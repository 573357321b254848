"""Closed-form analysis constants and theoretically-derived hyperparameters.

The table holds the constants that a stepsize cap, a schedule, a feasibility
flag or a check reads (the kappa, phi, psi and eps families), each evaluated
exactly from the graph spectrum, the smoothness constant, the compressor
contract, and the candidate scalars (gamma, tau_1, omega, alpha).  Regime
parameter selection builds on these constants.  Structural constraints
(gamma > kappa_2, tau_1 >= kappa_1, omega in (0, 1/r], stepsize caps, s0
floors) are enforced by construction; horizon thresholds such as
T > kappa_tilde_3, which only certify rate prefactors and are astronomically
conservative at desk scale, are evaluated and reported as feasibility flags
(raised only in strict mode).
"""

import contextlib
import functools
import inspect
import math
from dataclasses import dataclass, field

import numpy as np

from .algorithm import (GeometricSchedule, HyperParams, RecursiveSchedule, draw_x0,
                        resolve_omega, s0_floor)
from .compressors import GLOBAL, LOCAL, AssumptionContract, pnorms
from .diagnostics import lyapunov_components
from .errors import InfeasibleParams, OutOfRange

SAFETY = 0.9         # selected stepsizes sit at this fraction of their caps
MARGIN = 1.05        # selected gamma and tau_1 sit this factor above kappa_2 and kappa_1
KAPPA_HAT_3 = 1.0    # free constant in the last term of kappa_tilde_3
DESCENT_STEPS = 31   # most times a selection lowers its stepsize to SAFETY x its cap


class ConstantTable(dict):
    """Named scalars with attribute access."""

    def __getattr__(self, name):
        try:
            return self[name]
        except KeyError as exc:
            raise AttributeError(name) from exc


def _evaluable(formulas):
    """The layer's one range rule: no cap or floor can be read at a point where
    ``formulas`` overflows a float, leaves a function's domain or gives a NaN."""
    @functools.wraps(formulas)
    def evaluate(*args, **kwargs):
        with contextlib.suppress(ArithmeticError, ValueError):
            out = formulas(*args, **kwargs)
            if not any(v != v for v in (out.values() if isinstance(out, dict) else out)):
                return out
        point = inspect.signature(formulas).bind(*args, **kwargs).arguments.items()
        raise OutOfRange(f"{formulas.__name__} cannot be evaluated in floats at " + ", ".join(
            f"{name}={value}" for name, value in point if isinstance(value, float)))
    return evaluate


@_evaluable
def kappa_12(rho2: float, ell: float) -> tuple:
    """(kappa_1, kappa_2), the floors of tau_1 and gamma, set by lambda_2 and ell alone."""
    kappa_1 = 4.0 / rho2
    return kappa_1, max(2.0 + 2.0 * ell ** 2, 5.0 / rho2,
                        (16.0 * ell ** 2 * (kappa_1 + 1.0) ** 2 / rho2) ** (1.0 / 3.0),
                        2.0 * math.sqrt(2.0) * ell / rho2)


@_evaluable
def compute_constants(graph, ell: float, gamma: float, tau_1: float, omega: float,
                      alpha: float, contract: AssumptionContract, d: int,
                      T: int | None = None, l1_0: float | None = None,
                      s0: float | None = None, nu: float | None = None,
                      tau_0: float = 1.0) -> ConstantTable:
    """Evaluate the constant table at one parameter point, in dimension d."""
    if gamma <= 0 or tau_1 <= 0 or omega <= 0 or alpha <= 0:
        raise OutOfRange("gamma, tau_1, omega, alpha must be positive")
    # phi_6 >= ell / 2 divides kappa_hat_0, so ell / 2 must not be 0 (nor NaN)
    if not ell / 2.0 > 0:
        raise OutOfRange(f"ell must be positive with ell / 2 > 0, got {ell}")
    rho, rho2, n = graph.rho, graph.rho2, graph.n
    r, delta, C = contract.r, contract.delta, contract.C
    dt = contract.d_tilde(d)
    beta = tau_1 * gamma

    t = ConstantTable()
    t["kappa_1"], t["kappa_2"] = kappa_12(rho2, ell)

    t["phi_1"] = 0.5 * (rho2 * beta - (3.0 * gamma + 2.0 + 2.0 * ell ** 2))
    t["phi_2"] = 3.0 * rho ** 2 * beta ** 2 - rho2 * beta * gamma \
        + (rho + 2.0) * gamma ** 2 + 1.0 + 2.5 * ell ** 2
    t["phi_3"] = gamma / 2.0 - 2.5 / rho2
    t["phi_4"] = 2.0 * rho * gamma ** 2 + rho / 2.0
    t["phi_5"] = 0.125 - (beta + gamma) ** 2 / gamma ** 5 * ell ** 2 / rho2 \
        - ell ** 2 / (2.0 * gamma ** 2 * rho2 ** 2)
    t["phi_6"] = (beta + gamma) / (2.0 * gamma ** 3) * ell ** 2 / rho2 \
        + ell ** 2 / (2.0 * gamma ** 2 * rho2 ** 2) \
        + ell ** 2 / (2.0 * rho2 ** 2) + ell ** 2 / 2.0 + ell / 2.0
    t["phi_7"] = (rho + 1.0) * gamma + 0.5 * rho * beta
    t["phi_8"] = 3.0 * rho ** 2 * beta ** 2 + (rho - 2.0 * rho2) * beta * gamma \
        + (rho + 2.0) * gamma ** 2 + 1.0

    t["kappa_hat_0"] = min(t["phi_1"] / t["phi_2"], t["phi_3"] / t["phi_4"],
                           t["phi_5"] / t["phi_6"])

    t["eps_1"] = (tau_1 * rho2 - 1.0) / (2.0 * tau_1 * rho2)
    t["eps_2"] = max((1.0 + tau_1 * rho2) / 2.0,
                     (1.0 + tau_1) / 2.0 + 1.0 / (2.0 * tau_1 * rho2 ** 2))
    t["eps_3"] = min(t["phi_1"] - alpha * t["phi_2"], t["phi_3"] - alpha * t["phi_4"])
    t["eps_5"] = omega * r * (delta - delta ** 2 / 2.0)

    t["psi_2"] = t["phi_7"] + alpha * t["phi_8"]
    # psi_3 and psi_4 drop the paper's factor d_hat^2, which is 1 at p = 2 and p = inf
    t["psi_3"] = 4.0 * (1.0 + 1.0 / t["eps_5"]) * beta ** 2 * rho ** 2
    # eps_1 <= 0 marks tau_1 below its admissible floor; the dependent
    # constants degenerate rather than the whole table failing to evaluate
    t["psi_4"] = 4.0 * (1.0 + 1.0 / t["eps_5"]) \
        * max(beta ** 2 * rho ** 2 + ell ** 2, gamma ** 2 * rho) / t["eps_1"] \
        if t["eps_1"] > 0 else math.inf

    # gradient-dominated (local) family; a cap over 1 - 2 eps_5 = 0 is +inf
    one_minus = 1.0 - 2.0 * t["eps_5"]
    if nu is not None:
        t["eps_6"] = min(nu / 2.0, t["eps_3"]) / t["eps_2"]
        t["psi_5"] = 2.0 * one_minus * t["psi_2"] / t["eps_6"] if t["eps_6"] > 0 else math.inf
    else:
        t["eps_6"] = t["psi_5"] = None

    # horizon-dependent (local nonconvex) family
    t["eps_8"] = (t["eps_5"] + 2.0 * t["eps_5"] ** 2) / 2.0
    # the paper's min also takes 1/(2 ell), which cannot bind, in floats too (rounding is
    # monotone): phi_5 <= 1/8 and phi_6 >= ell/2 give kappa_hat_0 <= phi_5/phi_6 <= 1/(4 ell)
    t["kappa_7"] = t["kappa_hat_0"]
    if T is not None and s0 is not None and l1_0 is not None and C > 0:
        e8 = t["eps_8"]
        t["kappa_8"] = min(
            math.sqrt(e8 / (one_minus * t["psi_3"] * n * dt ** 2)) if one_minus > 0 else math.inf,
            math.sqrt(e8 * C ** 2 * s0 ** 2 / (2.0 * t["psi_4"] * l1_0)) if l1_0 > 0 else math.inf,
            (e8 / (2.0 * one_minus * t["psi_2"] * t["psi_4"] * n * dt ** 2)) ** (1.0 / 3.0)
            / T ** (1.0 / 3.0) if one_minus > 0 else math.inf,
        )
        t["kappa_tilde_0_prime"] = min(t["kappa_7"], t["kappa_8"])
        t["kappa_tilde_4"] = t["psi_4"] * l1_0 * alpha ** 2 / C ** 2 \
            + one_minus * t["psi_2"] * t["psi_4"] * n * dt ** 2 * s0 ** 2 * alpha ** 3 * T
        t["kappa_tilde_3"] = max(
            1.0 / (math.sqrt(n) * dt ** 2 * t["kappa_7"] ** 2),
            one_minus * t["psi_3"] / e8 * math.sqrt(n),
            (2.0 * t["psi_4"] * l1_0 / (e8 * C ** 2 * s0 ** 2 * n)) * math.sqrt(n) / dt ** 2,
            (4.0 * one_minus ** 2 * t["psi_2"] ** 2 * t["psi_4"] ** 2 / e8 ** 2)
            * math.sqrt(n) / dt ** 2,
            KAPPA_HAT_3 * dt ** 2 / math.sqrt(n),
        )
        # exact-first-round constants
        t["kappa_0"] = (e8 / (2.0 * one_minus * t["psi_2"] * t["psi_4"])) ** (1.0 / 3.0) \
            if one_minus > 0 else math.inf
        t["kappa_3"] = max(tau_0 ** 3 / (n * dt ** 2 * t["kappa_7"] ** 3),
                           (max(one_minus, 0.0) * t["psi_3"] * tau_0 ** 2 / e8) ** 1.5
                           * math.sqrt(n) * dt)
        t["kappa_4"] = 2.0 * t["psi_4"] * l1_0 / (C ** 2 * e8 * n)
    else:
        for name in ("kappa_8", "kappa_tilde_0_prime", "kappa_tilde_4",
                     "kappa_tilde_3", "kappa_0", "kappa_3", "kappa_4"):
            t[name] = None

    # gradient-dominated local regime, null where psi_5 is infinite or 0 (eps_5 = 1/2)
    if t["psi_5"] is not None and 0.0 < t["psi_5"] < math.inf:
        t["kappa_6_prime"] = math.sqrt((t["eps_5"] + 2.0 * t["eps_5"] ** 2)
                                       / (one_minus * t["psi_3"] + t["psi_4"] * t["psi_5"]))
        # the paper's min also takes κ₅, the least alpha > 0 with alpha min(phi_1 -
        # alpha phi_2, phi_3 - alpha phi_4) = 1. None exists on a connected graph: with
        # u = lambda_2 beta, phi_2 >= 3u^2 - u gamma + 2 gamma^2 + 1 > 0, and phi_1 > 0 forces
        # phi_1^2 < u^2/4 < 4 phi_2, so alpha phi_1 - alpha^2 phi_2 < 1 for every alpha > 0
        t["kappa_0_prime"] = min(t["kappa_hat_0"], t["kappa_6_prime"] / (math.sqrt(n) * dt))
        t["kappa_9"] = math.sqrt(max(
            1.0 - alpha * (t["eps_6"] - one_minus * t["psi_2"] / t["psi_5"]), 0.0))
        t["kappa_10"] = math.sqrt(max(
            1.0 - (t["eps_5"] + 2.0 * t["eps_5"] ** 2)
            + alpha ** 2 * n * dt ** 2 * (one_minus * t["psi_3"] + t["psi_4"] * t["psi_5"]),
            0.0))
    else:
        for name in ("kappa_6_prime", "kappa_0_prime", "kappa_9", "kappa_10"):
            t[name] = None

    # globally-bounded family
    t["eps_9"] = omega * r * delta / 2.0
    t["eps_10"] = (1.0 - 2.0 * t["eps_9"]) * (1.0 + 1.0 / t["eps_9"])
    t["eps_12"] = (t["eps_9"] + 2.0 * t["eps_9"] ** 2) / 2.0
    t["phi_2_prime"] = (3.0 + 4.0 * t["eps_10"]) * rho ** 2 * beta ** 2 \
        - rho2 * beta * gamma + (rho + 2.0) * gamma ** 2 + 1.0 \
        + (2.5 + 4.0 * t["eps_10"]) * ell ** 2
    t["phi_4_prime"] = (2.0 + 4.0 * t["eps_10"]) * rho * gamma ** 2 + 0.5 * rho
    t["phi_8_prime"] = (3.0 + 4.0 * t["eps_10"]) * rho ** 2 * beta ** 2 \
        + (rho - 2.0 * rho2) * beta * gamma + (rho + 2.0) * gamma ** 2 + 1.0
    t["eps_3_prime"] = min(t["phi_1"] - alpha * t["phi_2_prime"],
                           t["phi_3"] - alpha * t["phi_4_prime"])
    t["kappa_hat_0_prime"] = min(
        t["phi_1"] / t["phi_2_prime"], t["phi_3"] / t["phi_4_prime"],
        t["phi_5"] / t["phi_6"],
        (math.sqrt(t["phi_7"] ** 2 + 8.0 * t["eps_12"] * t["phi_8_prime"]) - t["phi_7"])
        / (2.0 * t["phi_8_prime"]))
    if nu is not None:
        t["eps_6_prime"] = min(nu / 2.0, t["eps_3_prime"],
                               (2.0 * t["eps_12"] - alpha * t["phi_7"]
                                - alpha ** 2 * t["phi_8_prime"]) / alpha) / t["eps_2"]
    else:
        t["eps_6_prime"] = None

    return t


def positivity_flags(table: ConstantTable, gamma: float, tau_1: float,
                     alpha: float) -> dict:
    """Structural feasibility of one parameter point."""
    return {
        "gamma_above_kappa_2": (gamma > table.kappa_2, gamma, table.kappa_2),
        "tau_1_at_least_kappa_1": (tau_1 >= table.kappa_1, tau_1, table.kappa_1),
        "alpha_below_kappa_hat_0": (alpha < table.kappa_hat_0, alpha, table.kappa_hat_0),
        "phi_1_positive": (table.phi_1 > 0, table.phi_1, 0.0),
        "phi_3_positive": (table.phi_3 > 0, table.phi_3, 0.0),
        "phi_5_positive": (table.phi_5 > 0, table.phi_5, 0.0),
    }


# ---------------------------------------------------------------------------
# regime parameter selection
# ---------------------------------------------------------------------------

REGIMES = {"T1_local_nonconvex": (LOCAL, False, True, "standard"),
           "T2_local_exact_first": (LOCAL, False, True, "exact_first_round"),
           "T3_local_PL": (LOCAL, True, False, "standard"),
           "T5_global_nonconvex": (GLOBAL, False, False, "standard"),
           "T6_global_PL": (GLOBAL, True, False, "standard")}
"""Each regime's (contract class, needs a P-L constant nu, needs T up front, init mode),
keyed in the order in which ``config.GRAMMAR`` lists the theoretical modes."""


@dataclass
class ParamSelection:
    hyper: HyperParams
    init_mode: str
    x0: np.ndarray
    table: ConstantTable
    feasibility: dict
    extras: dict = field(default_factory=dict)


def _descend(table, cap: str, alpha: float, steps: int = DESCENT_STEPS) -> tuple:
    """Set alpha = SAFETY * table(alpha)[cap] while that lowers it, at most
    ``steps`` times; returns the stepsize and the table at it."""
    tab = table(alpha)
    for _ in range(steps):
        cand = SAFETY * tab[cap]
        if not cand < alpha:
            break
        alpha, tab = cand, table(cand)
    return alpha, tab


def theorem_params(regime: str, problem, graph, contract: AssumptionContract,
                   T: int | None = None, x0_seed: int = 0, omega: float | None = None,
                   tau_0: float = 1.0, epsilon: float = 0.99,
                   clamp_alpha: bool = False, strict: bool = False) -> ParamSelection:
    """Produce a complete parameter set for one convergence regime.

    Structural constraints are satisfied by construction; horizon-style
    preconditions are evaluated and reported in ``feasibility``.  One rule
    sets every stepsize: from a start, alpha = SAFETY * cap(alpha) while
    that lowers alpha, the cap read from the regime's table at alpha.  T1/T2
    start at the horizon display and descend on kappa_tilde_0_prime =
    min(kappa_7, kappa_8(T)) only with ``clamp_alpha`` (so the induction
    behind the region guarantee applies as proved), T2's s0 moving with
    alpha; T3 and T5/T6 start at SAFETY * kappa_0_prime or kappa_hat_0_prime
    at alpha = 1e-9.  With ``strict`` any False flag raises InfeasibleParams.  All
    refusals but the range rule's precede the first table: ``REGIMES``' needs and T5/T6's
    epsilon in (0, 1) (InfeasibleParams), T >= 1 and tau_0 > 0 (OutOfRange), and omega.
    """
    if regime not in REGIMES:
        raise InfeasibleParams(f"unknown regime {regime!r}")
    cls, needs_nu, needs_T, init_mode = REGIMES[regime]
    if contract.cls != cls:
        raise InfeasibleParams(f"{regime} needs a {cls} compressor contract")
    if needs_nu and problem.pl_nu is None:
        raise InfeasibleParams(f"{regime} needs a gradient-domination constant")
    if needs_T and T is None:
        raise InfeasibleParams(f"{regime} needs the horizon T up front")
    if T is not None and T < 1:
        raise OutOfRange(f"T must be >= 1, got {T}")
    if tau_0 <= 0:
        raise OutOfRange(f"tau_0 must be positive, got {tau_0}")
    omega = resolve_omega(omega, contract)
    if cls == GLOBAL and not 0.0 < epsilon < 1.0:
        raise InfeasibleParams(f"epsilon must be in (0,1), got {epsilon}")

    n, d = graph.n, problem.d
    dt = contract.d_tilde(d)
    x0 = draw_x0(n, d, init_mode, x0_seed)

    tau_1, gamma = (MARGIN * kappa for kappa in kappa_12(graph.rho2, problem.ell))
    beta = tau_1 * gamma
    # the initial state (x0, v = 0, xhat = x0), e4 against the known lower bound
    c0 = lyapunov_components(x0, np.zeros_like(x0), x0, problem, graph, gamma, beta,
                             f_ref=problem.f_low)
    l1_0 = max(c0["e1"] + c0["e2"] + c0["e3"] + c0["e4"], 1e-12)
    at = functools.partial(compute_constants, graph, problem.ell, gamma, tau_1, omega,
                           contract=contract, d=d, T=T, l1_0=l1_0, nu=problem.pl_nu, tau_0=tau_0)

    feas = {}
    extras = {"l1_0": l1_0}

    if needs_T:
        if regime == "T1_local_nonconvex":
            alpha = 1.0 / (n ** 0.25 * dt * math.sqrt(T))
            s0_fixed = max(s0_floor(x0, contract), 1e-12)
            s0_at = lambda a: s0_fixed
        else:
            alpha = tau_0 / (n ** (1.0 / 3.0) * dt ** (2.0 / 3.0) * T ** (1.0 / 3.0))
            # kappa_4 depends on neither alpha nor s0; tau_4 = kappa_4 makes
            # the second stepsize cap collapse onto alpha itself, so a
            # factor-2 margin keeps the cap non-binding
            extras["tau_4"] = tau_4 = 2.0 * max(at(alpha, s0=1.0).kappa_4, 1e-12)
            s0_at = lambda a: math.sqrt(tau_4 * n) * a
        extras["alpha_display"] = alpha
        alpha, tab = _descend(lambda a: at(a, s0=s0_at(a)), "kappa_tilde_0_prime", alpha,
                              DESCENT_STEPS if clamp_alpha else 0)
        s0 = s0_at(alpha)

        if regime == "T2_local_exact_first":
            feas["tau_0_at_most_kappa_0"] = (tau_0 <= tab.kappa_0, tau_0, tab.kappa_0)
            feas["T_above_kappa_3"] = (T > tab.kappa_3, float(T), tab.kappa_3)
        else:
            feas["T_above_kappa_tilde_3"] = (T > tab.kappa_tilde_3, float(T),
                                             tab.kappa_tilde_3)
        feas["alpha_within_kappa_tilde_0_prime"] = (
            alpha < tab.kappa_tilde_0_prime, alpha, tab.kappa_tilde_0_prime)
        feas["recursive_admissible"] = (
            tab.kappa_tilde_4 <= tab.eps_8 * s0 ** 2, tab.kappa_tilde_4,
            tab.eps_8 * s0 ** 2)
        schedule = RecursiveSchedule(s0=s0, eps8=tab.eps_8, kappa4=tab.kappa_tilde_4,
                                     horizon=T)

    elif regime == "T3_local_PL":
        tab = at(1e-9)
        if tab.kappa_0_prime is None:  # psi_5 <= 0 once eps_5 >= 1/2; s0 divides by it
            raise InfeasibleParams(f"{regime}: the P-L family is null (psi_5 = {tab.psi_5:.3g})")
        alpha, tab = _descend(at, "kappa_0_prime", SAFETY * tab.kappa_0_prime)
        eps_lo = max(tab.kappa_9, tab.kappa_10)
        if not eps_lo < 1.0:
            raise InfeasibleParams("no geometric ratio in (max(kappa_9, kappa_10), 1)")
        eps = 0.5 * (1.0 + eps_lo)
        # computable bound on the initial Lyapunov value under gradient
        # domination: e1 + e2 + e3 plus n ||gbar_0||^2 / (2 nu)
        kappa_nu = c0["e1"] + c0["e2"] + c0["e3"] + n * c0["grad_sq"] / (2.0 * problem.pl_nu)
        try:
            s0 = max(math.sqrt(kappa_nu / (n * dt ** 2 * tab.psi_5 * contract.C ** 2)),
                     s0_floor(x0, contract))
        except OverflowError:
            raise OutOfRange(f"{regime}: s0 cannot be evaluated in floats at C={contract.C}")
        schedule = GeometricSchedule(s0=s0, rate=eps)
        feas["alpha_below_kappa_0_prime"] = (alpha < tab.kappa_0_prime, alpha,
                                             tab.kappa_0_prime)
        feas["epsilon_in_range"] = (eps_lo < eps < 1.0, eps, eps_lo)
        extras.update({"kappa_nu": kappa_nu, "epsilon": eps})

    else:  # T5 / T6 global regimes
        alpha, tab = _descend(at, "kappa_hat_0_prime", SAFETY * at(1e-9).kappa_hat_0_prime)
        s0 = max(float(pnorms(x0, 2.0).max()), 1e-12)
        schedule = GeometricSchedule(s0=s0, rate=epsilon)
        feas["alpha_below_kappa_hat_0_prime"] = (alpha < tab.kappa_hat_0_prime,
                                                 alpha, tab.kappa_hat_0_prime)
        if regime == "T6_global_PL":
            lo = max(1.0 - alpha * tab.eps_6_prime, epsilon ** 2)
            extras["eps_hat"] = 0.5 * (1.0 + lo) if lo < 1.0 else None
            feas["linear_factor_below_one"] = (lo < 1.0, lo, 1.0)

    feas.update(positivity_flags(tab, gamma, tau_1, alpha))
    if strict:
        bad = [k for k, (ok, _, _) in feas.items() if not ok]
        if bad:
            raise InfeasibleParams("infeasible constraints: " + ", ".join(bad))

    hyper = HyperParams(alpha=alpha, beta=beta, gamma=gamma, omega=omega,
                        schedule=schedule, tau_1=tau_1)
    return ParamSelection(hyper=hyper, init_mode=init_mode, x0=x0,
                          table=tab, feasibility=feas, extras=extras)
