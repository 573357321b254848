"""The unified compression loop.

Each iteration k performs, for every agent i simultaneously:

    q_{i,k}   = C((x_{i,k} - xhat_{i,k-1}) / s_k)
    xhat_{i,k} = xhat_{i,k-1} + omega s_k q_{i,k}
    y_{i,k}   = y_{i,k-1} + omega s_k sum_j L_ij q_{j,k}
    x_{i,k+1} = x_{i,k} - alpha (beta y_{i,k} + gamma v_{i,k} + g_{i,k})
    v_{i,k+1} = v_{i,k} + alpha gamma y_{i,k}

The maintained y equals L xhat by induction, the dual mean stays zero, and
the iterate mean follows plain gradient descent on the average cost.  s_k is
consumed by step k and advanced afterwards.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .compressors import B1, LOCAL, AssumptionContract, Compressor, pnorms
from .diagnostics import TRACE_DTYPE, RunTrace, trace_rows
from .errors import ConfigError, DcoptError, InvalidScale, NonFiniteState


# ---------------------------------------------------------------------------
# scaling schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantSchedule:
    s0: float
    mode = "constant"

    def value(self, k: int) -> float:
        return self.s0


@dataclass(frozen=True)
class GeometricSchedule:
    s0: float
    rate: float
    mode = "geometric"

    def __post_init__(self):
        if not 0.0 < self.rate < 1.0:
            raise ConfigError(f"geometric rate must be in (0,1), got {self.rate}")

    def value(self, k: int) -> float:
        return self.s0 * self.rate ** k


@dataclass(frozen=True)
class RecursiveSchedule:
    """s_k^2 = (1 - eps8) s_{k-1}^2 + kappa4; fixed point kappa4 / eps8.

    The additive constant depends on the horizon, so the schedule carries the
    horizon it was derived for and the runner refuses to exceed it.
    """

    s0: float
    eps8: float
    kappa4: float
    horizon: int
    mode = "recursive"

    def __post_init__(self):
        if not 0.0 < self.eps8 < 1.0:
            raise ConfigError(f"eps8 must be in (0,1), got {self.eps8}")
        if self.kappa4 < 0:
            raise ConfigError(f"kappa4 must be >= 0, got {self.kappa4}")
        if self.horizon < 1:
            raise ConfigError("recursive schedule needs a fixed horizon >= 1")

    def value(self, k: int) -> float:
        decay = (1.0 - self.eps8) ** k
        return math.sqrt(decay * self.s0 ** 2 + self.kappa4 * (1.0 - decay) / self.eps8)


@dataclass(frozen=True)
class HyperParams:
    alpha: float
    beta: float
    gamma: float
    omega: float
    schedule: object
    tau_1: float | None = None

    def __post_init__(self):
        if min(self.beta, self.gamma, self.omega) <= 0:
            raise ConfigError("beta, gamma, omega must all be positive")
        # alpha = 0 freezes the primal/dual pair while surrogates keep
        # tracking; useful as a diagnostic degenerate case
        if self.alpha < 0:
            raise ConfigError(f"alpha must be >= 0, got {self.alpha}")


@dataclass(slots=True)
class AlgorithmState:
    x: np.ndarray          # n x d primal iterates
    v: np.ndarray          # n x d dual variables
    x_hat: np.ndarray      # n x d surrogates from the last exchange
    y: np.ndarray          # n x d running Laplacian-weighted surrogate sums
    k: int
    s_k: float
    bits_cum: int


INIT_MODES = ("standard", "exact_first_round", "shared_x0")

# elements (rows x n x d) of the states ``run`` holds before it records them
# in one batched evaluation: 81 rows at n d = 50, one row from n d = 4096 on,
# where the work per row outweighs the per-call overhead
RECORD_BUDGET = 4096


def draw_x0(n: int, d: int, init_mode: str, x0_seed: int) -> np.ndarray:
    """The seeded n x d starting point; shared_x0 gives every agent one draw."""
    gen = _rng.substream(x0_seed, _rng.X0, 0)
    if init_mode == "shared_x0":
        return np.tile(gen.standard_normal(d), (n, 1))
    return gen.standard_normal((n, d))


def s0_floor(x0: np.ndarray, contract: AssumptionContract, margin: float = 1.0) -> float:
    """margin * max_i ||x_i0||_p / C: the smallest s0 (at margin 1) that puts
    every agent's first compressor input in the local region."""
    return margin * float(pnorms(x0, contract.p).max()) / contract.C


def resolve_omega(omega: float | None, contract: AssumptionContract) -> float:
    """``omega``, or 1/r when it is None; refused outside (0, 1/r], with 1e-12
    of slack for a decimal spelling of 1/r that rounds above it."""
    if omega is None:
        return 1.0 / contract.r
    if not 0.0 < omega <= 1.0 / contract.r + 1e-12:
        raise ConfigError(f"omega must be in (0, 1/r], got {omega}")
    return omega


def init_state(problem, graph, hyper: HyperParams, init_mode: str = "standard",
               x0_seed: int = 0, x0: np.ndarray | None = None,
               contract: AssumptionContract | None = None) -> AlgorithmState:
    """Initialize per Algorithm start conditions.

    standard           v = xhat = y = 0
    exact_first_round  one uncompressed exchange: xhat = x0, y = L x0,
                       charged n*d*32 bits
    shared_x0          all agents start from the same random point
    """
    if init_mode not in INIT_MODES:
        raise ConfigError(f"unknown init mode {init_mode!r}")
    n, d = graph.n, problem.d
    if x0 is None:
        x0 = draw_x0(n, d, init_mode, x0_seed)
    else:
        x0 = np.array(x0, dtype=float)
        if x0.shape != (n, d):
            raise ConfigError(f"x0 must have shape {(n, d)}, got {x0.shape}")

    s0 = hyper.schedule.value(0)
    bits = 0
    if init_mode == "exact_first_round":
        x_hat = x0.copy()
        y = graph.mix(x0)
        bits = n * d * B1
    else:
        x_hat = np.zeros_like(x0)
        y = np.zeros_like(x0)
        if contract is not None and contract.cls == LOCAL:
            floor = s0_floor(x0, contract)
            if floor > s0 * (1.0 + 1e-12):
                raise InvalidScale(
                    f"s0={s0} violates the local-class bound: need s0 >= "
                    f"max_i ||x_i0||_p / C = {floor}")

    return AlgorithmState(x=x0, v=np.zeros_like(x0), x_hat=x_hat, y=y,
                          k=0, s_k=s0, bits_cum=bits)


def _finite(a: np.ndarray) -> bool:
    """Whether every entry is finite, by one dot product: a finite sum of squares
    says so; one that is not, or overflows (from ~1e155), defers to each entry."""
    return math.isfinite(np.vdot(a, a)) or bool(np.isfinite(a).all())


def step(state: AlgorithmState, problem, graph, compressor: Compressor,
         hyper: HyperParams) -> AlgorithmState:
    """Advance one iteration; pure in (state, seeds), and in new arrays."""
    if state.s_k <= 0:
        raise ConfigError(f"s_k must be positive, got {state.s_k}")
    s, k = state.s_k, state.k
    with np.errstate(over="ignore", invalid="ignore"):
        U = (state.x - state.x_hat) / s
        if not _finite(U):
            raise NonFiniteState(f"non-finite compressor input at iteration {k}", iteration=k)
        Q, bits = compressor.apply(U, k)
        x_hat = state.x_hat + hyper.omega * s * Q
        y = state.y + hyper.omega * s * graph.mix(Q)
        G = problem.stacked_gradients(state.x)
        x = state.x - hyper.alpha * (hyper.beta * y + hyper.gamma * state.v + G)
        v = state.v + hyper.alpha * hyper.gamma * y
        if not (_finite(x) and _finite(v) and _finite(x_hat)):
            raise NonFiniteState(f"non-finite state at iteration {k}", iteration=k)
    return AlgorithmState(x=x, v=v, x_hat=x_hat, y=y, k=k + 1,
                          s_k=hyper.schedule.value(k + 1),
                          bits_cum=state.bits_cum + bits)


def run(problem, graph, compressor: Compressor, hyper: HyperParams, T: int,
        init_mode: str = "standard", x0_seed: int = 0, x0: np.ndarray | None = None,
        contract: AssumptionContract | None = None,
        config_echo: dict | None = None) -> RunTrace:
    """Execute T iterations and record per-iteration diagnostics.

    The trace has T+1 rows; row k pairs x_k with the surrogate of the
    previous exchange.  The states of up to ``RECORD_BUDGET // (n d)``
    consecutive rows are held by reference and recorded in one
    ``trace_rows`` evaluation; the rows do not depend on where blocks end.
    """
    if T < 1:
        raise ConfigError(f"T must be >= 1, got {T}")
    if isinstance(hyper.schedule, RecursiveSchedule) and T > hyper.schedule.horizon:
        raise ConfigError(f"recursive schedule derived for horizon {hyper.schedule.horizon}, "
                          f"cannot run T={T}")
    if contract is None:
        try:
            contract = compressor.contract(problem.d)
        except DcoptError:
            contract = None

    state = init_state(problem, graph, hyper, init_mode, x0_seed, x0, contract)
    rows = np.zeros(T + 1, TRACE_DTYPE)
    n, d = state.x.shape
    size = max(1, RECORD_BUDGET // (n * d))
    block = []  # the pending rows' states, by reference: a step leaves its input alone
    # diagnostics on a diverging state may transiently overflow; the step
    # itself raises NonFiniteState before the next round starts
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(T + 1):
            block.append(state)
            if k < T:
                state = step(state, problem, graph, compressor, hyper)
            if len(block) == size or k == T:
                part = rows[k + 1 - len(block):k + 1]
                part["k"], part["s_k"], part["bits_cum"] = zip(
                    *[(s.k, s.s_k, s.bits_cum) for s in block])
                # each row's x, v and x_hat, and x_hat after its exchange (the final
                # row, then ``state`` itself, has none); a single row as views
                X, V, Xhat, post = (a[0][None] if len(a) == 1 else np.stack(a) for a in zip(
                    *[(s.x, s.v, s.x_hat, t.x_hat) for s, t in zip(block, block[1:] + [state])]))
                trace_rows(part, X, V, Xhat, post[:len(block) - (k == T)],
                           problem, graph, hyper, contract)
                block = []

    echo = dict(config_echo or {})
    echo.setdefault("T", T)
    echo.setdefault("init_mode", init_mode)
    if contract is not None and contract.cls == LOCAL:
        echo.setdefault("contract_C", contract.C)
    return RunTrace(rows, "exact" if problem.f_star is not None else "lower_gap", state, echo)
