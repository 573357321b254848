import inspect
import math

import numpy as np
import pytest

from dcopt import (build_graph, compute_constants, constants, make_nonconvex, make_quadratic,
                   theorem_params)
from dcopt.compressors import (LOCAL, AssumptionContract, Identity, OneBit, TopK, UnbiasedKBit,
                               UniformQuantizer)
from dcopt.constants import _kappa5_root, positivity_flags
from dcopt.errors import ConfigError, InfeasibleParams, OutOfRange

LOCAL_CT = AssumptionContract(LOCAL, np.inf, 1.0, 1.0, 0.5)


def _table(graph, ell=1.0, gamma=None, tau_1=None, alpha=1e-4, omega=1.0, **kw):
    probe = compute_constants(graph, ell, 1.0, 1.0, omega, 1e-12, LOCAL_CT, 4)
    gamma = gamma if gamma is not None else 1.05 * probe.kappa_2
    tau_1 = tau_1 if tau_1 is not None else 1.05 * probe.kappa_1
    return compute_constants(graph, ell, gamma, tau_1, omega, alpha, LOCAL_CT, 4,
                             **kw), gamma, tau_1


def test_kappa1_kappa2_path3():
    g = build_graph("path", 3)
    t, _, _ = _table(g, ell=1.0)
    assert t.kappa_1 == pytest.approx(4.0, abs=1e-12)
    # independent hand evaluation: max{2+2, 5, (16*25)^(1/3), 2 sqrt(2)}
    assert t.kappa_2 == pytest.approx(400.0 ** (1.0 / 3.0), abs=1e-12)
    assert t.kappa_2 == pytest.approx(7.368062997280773, abs=1e-10)


def test_eps5_eps8_values():
    g = build_graph("path", 3)
    t, _, _ = _table(g)   # omega = 1, r = 1, delta = 1/2
    assert t.eps_5 == pytest.approx(0.375, abs=1e-15)
    assert t.eps_8 == pytest.approx(0.328125, abs=1e-15)


def test_positivity_under_stated_margins():
    for topo, n in (("path", 3), ("ring", 6), ("complete", 5)):
        g = build_graph(topo, n)
        t, gamma, tau_1 = _table(g, ell=0.7)
        flags = positivity_flags(t, gamma, tau_1, 1e-6)
        assert all(ok for ok, _, _ in flags.values()), flags


def test_kappa_monotone_in_rho2():
    # same formulas, increasing rho2 never increases kappa_1 or kappa_2
    graphs = [build_graph("path", 6), build_graph("ring", 6), build_graph("complete", 6)]
    graphs.sort(key=lambda g: g.rho2)
    vals = [_table(g, ell=1.0)[0] for g in graphs]
    for a, b in zip(vals, vals[1:]):
        assert b.kappa_1 <= a.kappa_1 + 1e-12
        assert b.kappa_2 <= a.kappa_2 + 1e-12


def test_kappa5_root_against_scan():
    g = build_graph("complete", 4)
    t, gamma, tau_1 = _table(g, ell=0.5)
    root = _kappa5_root(t.phi_1, t.phi_2, t.phi_3, t.phi_4)
    f = lambda a: a * min(t.phi_1 - a * t.phi_2, t.phi_3 - a * t.phi_4)
    if math.isfinite(root):
        assert f(root) == pytest.approx(1.0, abs=1e-6)
        grid = np.linspace(1e-9, root * 0.999, 4000)
        assert np.all([f(a) < 1.0 for a in grid])
    else:
        grid = np.linspace(1e-9, 10.0, 20000)
        assert np.all([f(a) < 1.0 for a in grid])


def test_kappa5_root_on_its_active_branch():
    # phi = (3, 1, 10, 1): a (3 - a) = 1 at a = (3 - sqrt 5) / 2 on the first
    # branch; the second branch's smaller root, (10 - sqrt 96) / 2 ~ 0.101,
    # solves a (10 - a) = 1, but there the min is 3 - a, so it is rejected
    root = _kappa5_root(3.0, 1.0, 10.0, 1.0)
    assert root == (3.0 - math.sqrt(5.0)) / 2.0 == 0.3819660112501051


def test_theorem1_alpha_display():
    prob = make_nonconvex(10, 4, seed=3)
    g = build_graph("complete", 10)
    sel = theorem_params("T1_local_nonconvex", prob, g, OneBit(1.0).contract(4),
                         T=10_000, x0_seed=1)
    d_tilde = 4 ** 0.5
    assert sel.extras["alpha_display"] == pytest.approx(
        1.0 / (10 ** 0.25 * d_tilde * 100.0))
    assert sel.hyper.beta == pytest.approx(sel.hyper.tau_1 * sel.hyper.gamma)
    assert sel.hyper.schedule.mode == "recursive"
    assert "T_above_kappa_tilde_3" in sel.feasibility


def test_theorem2_alpha_display():
    prob = make_nonconvex(10, 4, seed=3)
    g = build_graph("complete", 10)
    display = [theorem_params("T2_local_exact_first", prob, g, OneBit(1.0).contract(4),
                              T=T, x0_seed=1).extras["alpha_display"] for T in (1000, 8000)]
    d_tilde = 4 ** 0.5
    assert display[0] == pytest.approx(
        1.0 / (10 ** (1 / 3) * d_tilde ** (2 / 3) * 1000 ** (1 / 3)))
    assert display[1] == pytest.approx(display[0] / 2)


def test_theorem1_clamped_alpha_certifies_recursion():
    prob = make_nonconvex(6, 4, seed=5)
    g = build_graph("ring", 6)
    sel = theorem_params("T1_local_nonconvex", prob, g, OneBit(2.0).contract(4),
                         T=500, x0_seed=2, clamp_alpha=True)
    ok, val, bound = sel.feasibility["alpha_within_kappa_tilde_0_prime"]
    assert ok and val < bound
    ok, val, bound = sel.feasibility["recursive_admissible"]
    assert ok and val <= bound
    # scaling stays below its initial value for the whole horizon
    sched = sel.hyper.schedule
    assert all(sched.value(k) <= sched.s0 * (1 + 1e-12) for k in range(0, 501, 50))


def test_recursive_admissibility_at_large_horizon():
    # T above kappa_tilde_3 makes the display stepsize itself admissible
    prob = make_nonconvex(6, 4, seed=5)
    g = build_graph("ring", 6)
    probe = theorem_params("T1_local_nonconvex", prob, g, OneBit(2.0).contract(4),
                           T=1000, x0_seed=2)
    kt3 = probe.table.kappa_tilde_3
    big_T = int(kt3 * 1.2) + 1
    sel = theorem_params("T1_local_nonconvex", prob, g, OneBit(2.0).contract(4),
                         T=big_T, x0_seed=2)
    assert sel.feasibility["T_above_kappa_tilde_3"][0]
    assert sel.feasibility["alpha_within_kappa_tilde_0_prime"][0]
    assert sel.feasibility["recursive_admissible"][0]


def test_theorem3_selection_feasible():
    prob = make_quadratic(5, 3, seed=7, condition_number=5.0)
    g = build_graph("ring", 5)
    sel = theorem_params("T3_local_PL", prob, g, OneBit(2.0).contract(3), x0_seed=3)
    assert all(ok for ok, _, _ in sel.feasibility.values()), sel.feasibility
    eps = sel.extras["epsilon"]
    assert max(sel.table.kappa_9, sel.table.kappa_10) < eps < 1.0
    assert sel.hyper.schedule.mode == "geometric"


def test_theorem5_selection():
    prob = make_nonconvex(5, 4, seed=9)
    g = build_graph("ring", 5)
    cpr = UnbiasedKBit(3, seed=1)
    sel = theorem_params("T5_global_nonconvex", prob, g, cpr.contract(4), x0_seed=4)
    assert sel.hyper.alpha < sel.table.kappa_hat_0_prime
    assert sel.hyper.schedule.s0 >= max(np.linalg.norm(sel.x0[i]) for i in range(5))


def test_theorem6_linear_factor():
    prob = make_quadratic(5, 3, seed=11, condition_number=4.0)
    g = build_graph("complete", 5)
    cpr = UnbiasedKBit(3, seed=1)
    sel = theorem_params("T6_global_PL", prob, g, cpr.contract(3), x0_seed=5,
                         epsilon=0.98)
    assert sel.extras["eps_hat"] is not None and sel.extras["eps_hat"] < 1.0


def test_regime_validation():
    prob = make_nonconvex(4, 3, seed=13)
    g = build_graph("ring", 4)
    local = OneBit(1.0).contract(3)
    glob = UnbiasedKBit(3).contract(3)
    with pytest.raises(InfeasibleParams):
        theorem_params("T1_local_nonconvex", prob, g, glob, T=100)
    with pytest.raises(InfeasibleParams):
        theorem_params("T5_global_nonconvex", prob, g, local)
    with pytest.raises(InfeasibleParams):
        theorem_params("T3_local_PL", prob, g, local)   # no pl_nu
    with pytest.raises(InfeasibleParams):
        theorem_params("T1_local_nonconvex", prob, g, local)   # no T
    with pytest.raises(InfeasibleParams):
        theorem_params("T9_unknown", prob, g, local)
    with pytest.raises(InfeasibleParams):
        theorem_params("T1_local_nonconvex", prob, g, local, T=200, strict=True)


def _counting(monkeypatch, *names):
    """Wrap each named function of ``constants`` to count its calls."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _real=getattr(constants, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(constants, name, counted)
    return calls


# (regime, contract, family, keyword arguments, error class, message) of
# each refusal that needs no table
NO_TABLE_REFUSALS = [
    ("T9_unknown", "local", "nonconvex", {"T": 50}, InfeasibleParams,
     "unknown regime 'T9_unknown'"),
    ("T1_local_nonconvex", "global", "nonconvex", {"T": 50}, InfeasibleParams,
     "T1_local_nonconvex needs a local compressor contract"),
    ("T5_global_nonconvex", "local", "nonconvex", {}, InfeasibleParams,
     "T5_global_nonconvex needs a global compressor contract"),
    ("T3_local_PL", "local", "nonconvex", {}, InfeasibleParams,
     "T3_local_PL needs a gradient-domination constant"),
    ("T6_global_PL", "global", "nonconvex", {}, InfeasibleParams,
     "T6_global_PL needs a gradient-domination constant"),
    ("T2_local_exact_first", "local", "nonconvex", {}, InfeasibleParams,
     "T2_local_exact_first needs the horizon T up front"),
    ("T5_global_nonconvex", "global", "nonconvex", {"epsilon": 1.0}, InfeasibleParams,
     "epsilon must be in (0,1), got 1.0"),
    ("T6_global_PL", "global", "quadratic", {"epsilon": 0.0}, InfeasibleParams,
     "epsilon must be in (0,1), got 0.0"),
    ("T1_local_nonconvex", "local", "nonconvex", {"T": 0}, OutOfRange,
     "T must be >= 1, got 0"),
    ("T2_local_exact_first", "local", "nonconvex", {"T": -3}, OutOfRange,
     "T must be >= 1, got -3"),
    ("T5_global_nonconvex", "global", "nonconvex", {"T": 0}, OutOfRange,
     "T must be >= 1, got 0"),
    ("T2_local_exact_first", "local", "nonconvex", {"T": 50, "tau_0": 0.0}, OutOfRange,
     "tau_0 must be positive, got 0.0"),
    ("T1_local_nonconvex", "local", "nonconvex", {"T": 50, "tau_0": -1.0}, OutOfRange,
     "tau_0 must be positive, got -1.0"),
    ("T3_local_PL", "local", "quadratic", {"tau_0": 0.0}, OutOfRange,
     "tau_0 must be positive, got 0.0"),
    ("T1_local_nonconvex", "local", "nonconvex", {"T": 50, "omega": 1.5}, ConfigError,
     "omega must be in (0, 1/r], got 1.5"),
]


@pytest.mark.parametrize("regime,cls,family,kwargs,error,message", NO_TABLE_REFUSALS,
                         ids=[f"{case[0]}: {case[-1]}" for case in NO_TABLE_REFUSALS])
def test_refusals_come_before_the_first_table(monkeypatch, regime, cls, family, kwargs,
                                              error, message):
    calls = _counting(monkeypatch, "table_at", "compute_constants")
    make = make_quadratic if family == "quadratic" else make_nonconvex
    contract = (OneBit(1.0) if cls == "local" else UnbiasedKBit(3)).contract(3)
    with pytest.raises(error) as refused:
        theorem_params(regime, make(4, 3, seed=13), build_graph("ring", 4), contract, **kwargs)
    assert str(refused.value) == message
    assert calls == {"table_at": 0, "compute_constants": 0}


@pytest.mark.parametrize("regime", list(constants.REGIMES))
def test_every_table_of_a_selection_is_one_table_at(monkeypatch, regime):
    # kappa_1 and kappa_2 come from kappa_12, not from a probe table
    calls = _counting(monkeypatch, "table_at", "compute_constants")
    local = constants.REGIMES[regime][0] == LOCAL
    sel = theorem_params(regime, make_quadratic(4, 3, seed=4), build_graph("ring", 4),
                         (OneBit(2.0) if local else UnbiasedKBit(3)).contract(3), T=50,
                         x0_seed=9, clamp_alpha=True)
    assert calls["table_at"] >= 1 and calls["compute_constants"] == calls["table_at"]
    assert (sel.hyper.tau_1, sel.hyper.gamma) == (constants.MARGIN * sel.table.kappa_1,
                                                  constants.MARGIN * sel.table.kappa_2)


# criterion 9's path-3 graph by hand: L, its lambda_2 = 1, and F = L^+ + 1 1^T / (n lambda_2);
# the tests below take n = 3 agents and d = 4, so d_tilde^2 = d at p = inf
PATH3_L = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
PATH3_F = np.linalg.pinv(PATH3_L) + np.ones((3, 3)) / 3.0


def _initial_e(sel, problem):
    """e1, e2, e3, e4 (against f_low) at (x0, v = 0, xhat = x0) on the path-3
    graph, from their definitions, and the mean gradient at the mean of x0."""
    x0, gamma, beta = sel.x0, sel.hyper.gamma, sel.hyper.beta
    xbar = x0.mean(axis=0)
    costs, G = problem.at_shared(xbar)
    dev, FW = x0 - xbar, PATH3_F @ (G / gamma)
    return (0.5 * np.sum(dev * dev), 0.5 * (beta + gamma) / gamma * np.sum(G / gamma * FW),
            np.sum(dev * FW), np.sum(costs) - 3 * problem.f_low), G.mean(axis=0)


def test_t2_tau_4_is_twice_kappa_4_by_hand():
    prob = make_nonconvex(3, 4, seed=1)
    contract = OneBit(1.0).contract(4)
    sel = theorem_params("T2_local_exact_first", prob, build_graph("path", 3), contract,
                         T=1000, x0_seed=2)
    l1_0 = sum(_initial_e(sel, prob)[0])
    assert sel.extras["l1_0"] == pytest.approx(l1_0, rel=1e-12)
    t = sel.table
    kappa_4 = 2.0 * t.psi_4 * l1_0 / (contract.C ** 2 * t.eps_8 * 3)
    assert sel.extras["tau_4"] == pytest.approx(2.0 * kappa_4, rel=1e-12)


@pytest.mark.parametrize("regime", ["T1_local_nonconvex", "T2_local_exact_first"])
def test_kappa_tilde_4_by_hand_and_linear_in_T(regime):
    prob = make_nonconvex(3, 4, seed=1)
    g = build_graph("path", 3)
    contract = OneBit(1.0).contract(4)
    T = 1000
    sel = theorem_params(regime, prob, g, contract, T=T, x0_seed=2)
    h, t = sel.hyper, sel.table
    alpha, s0, l1_0 = h.alpha, h.schedule.s0, sel.extras["l1_0"]
    per_round = (1.0 - 2.0 * t.eps_5) * t.psi_2 * t.psi_4 * 3 * 4 * s0 ** 2 * alpha ** 3
    assert t.kappa_tilde_4 == pytest.approx(
        t.psi_4 * l1_0 * alpha ** 2 / contract.C ** 2 + per_round * T, rel=1e-12)
    at = [constants.table_at(prob, g, contract, h.gamma, h.tau_1, h.omega, alpha, s0=s0,
                             T=k * T, l1_0=l1_0).kappa_tilde_4 for k in (1, 2, 3)]
    assert at[0] == t.kappa_tilde_4
    assert at[1] - at[0] == pytest.approx(per_round * T, rel=1e-9)
    assert at[2] - at[1] == pytest.approx(per_round * T, rel=1e-9)


def test_t3_kappa_nu_by_hand():
    prob = make_quadratic(3, 4, seed=1, condition_number=5.0)
    sel = theorem_params("T3_local_PL", prob, build_graph("path", 3), OneBit(2.0).contract(4),
                         x0_seed=2)
    (e1, e2, e3, _), gbar = _initial_e(sel, prob)
    assert sel.extras["kappa_nu"] == pytest.approx(
        e1 + e2 + e3 + 3 * float(gbar @ gbar) / (2.0 * prob.pl_nu), rel=1e-12)


def test_t2_s0_follows_alpha_through_every_clamp(monkeypatch):
    # a cap at alpha itself clamps at every step of the descent; each table it
    # evaluates, the last one included, is at T2's s0 = sqrt(tau_4 n) alpha
    real, calls = constants.table_at, []

    def shrinking(*args, **kwargs):
        point = inspect.signature(real).bind(*args, **kwargs).arguments
        tab = real(*args, **kwargs)
        tab["kappa_tilde_0_prime"] = point["alpha"]
        calls.append((point["alpha"], point.get("s0"), tab))
        return tab

    monkeypatch.setattr(constants, "table_at", shrinking)
    prob = make_nonconvex(6, 4, seed=5)
    g = build_graph("ring", 6)
    sel = theorem_params("T2_local_exact_first", prob, g, OneBit(2.0).contract(4),
                         T=500, x0_seed=2, clamp_alpha=True)
    alpha, s0, tab = sel.hyper.alpha, sel.hyper.schedule.s0, sel.table
    root = math.sqrt(sel.extras["tau_4"] * g.n)
    assert s0 == root * alpha
    descent = calls[1:]   # the first call sets tau_4, at s0 = 1
    assert descent[-1] == (alpha, s0, tab) and descent[-1][2] is tab
    assert all(s == root * a for a, s, _ in descent)
    assert sel.feasibility["recursive_admissible"] == (
        tab.kappa_tilde_4 <= tab.eps_8 * s0 ** 2, tab.kappa_tilde_4, tab.eps_8 * s0 ** 2)
    assert [a for a, _, _ in descent[1:]] == [constants.SAFETY * a for a, _, _ in descent[:-1]]
    assert len(descent) == constants.DESCENT_STEPS + 1


# at the default omega = 1/r, top-k with k = d (local) and the uniform quantizer
# and identity (global) meet omega r (2 delta - delta^2) = 1, i.e. eps_5 = 1/2
@pytest.mark.parametrize("regime,compressor", [
    ("T1_local_nonconvex", TopK(3)), ("T2_local_exact_first", TopK(3)),
    ("T5_global_nonconvex", UniformQuantizer(0.5)), ("T5_global_nonconvex", Identity()),
    ("T6_global_PL", UniformQuantizer(0.5)), ("T6_global_PL", Identity())],
    ids=lambda v: v if isinstance(v, str) else v.kind)
def test_half_eps5_makes_its_caps_vacuous(regime, compressor):
    prob = make_quadratic(4, 3, seed=4, condition_number=5.0)
    g = build_graph("ring", 4)
    sel = theorem_params(regime, prob, g, compressor.contract(3), T=50, x0_seed=9,
                         clamp_alpha=True)
    t = sel.table
    assert t.eps_5 == 0.5 and t.kappa_6 == math.inf
    assert t.kappa_6_prime is t.kappa_0_prime is t.kappa_9 is t.kappa_10 is None
    assert 0.0 < sel.hyper.alpha < math.inf
    if regime.startswith(("T1", "T2")):
        assert t.kappa_0 == math.inf and 0.0 < t.kappa_8 < math.inf
        assert 0.0 < sel.hyper.schedule.s0 < math.inf


def test_half_eps5_leaves_t3_no_stepsize():
    # T3's s0 divides by psi_5, which is 0 at eps_5 = 1/2
    prob = make_quadratic(4, 3, seed=4, condition_number=5.0)
    g = build_graph("ring", 4)
    with pytest.raises(InfeasibleParams, match="P-L family is null"):
        theorem_params("T3_local_PL", prob, g, TopK(3).contract(3), x0_seed=9)


@pytest.mark.parametrize("regime", ["T1_local_nonconvex", "T2_local_exact_first"])
def test_omega_in_its_slack_above_one_over_r(regime):
    # omega may exceed 1/r by 1e-12 (a decimal spelling of 1/r); with delta = 1
    # that takes 1 - 2 eps_5 just below 0, where the same caps are vacuous
    prob = make_nonconvex(4, 3, seed=4)
    g = build_graph("ring", 4)
    sel = theorem_params(regime, prob, g, TopK(3).contract(3), T=50, x0_seed=9,
                         omega=1.0 + 5e-13, clamp_alpha=True)
    assert sel.table.eps_5 > 0.5 and sel.table.kappa_6 == math.inf
    assert 0.0 < sel.hyper.alpha < math.inf and 0.0 < sel.table.kappa_8 < math.inf
