"""Run traces, Lyapunov components, inequality checks, and rate fits.

The per-iteration record pairs the iterate x_k with the surrogate from the
previous exchange (so e5 at row k is ||x_k - xhat_{k-1}||^2, the distance the
round-k compressor actually sees, and equals ||x_0||^2 at k = 0 under zero
initialization).  The distances after the round-k exchange are kept in
separate columns (surr_post_*) for the contraction checks.  Every total is
a sum over agents of one BLAS dot per agent's row, ``np.vecdot``: e1, e2,
e3, e5 and surr_post_l2sq, the last two of each agent's squared distance,
whose root is the p = 2 distance.  OpenBLAS splits only a dot of more than
10,000 entries across its threads, so while d <= 10,000 the record does not
depend on their count.
"""

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .compressors import LOCAL, pnorms
from .errors import DegenerateSeries

# one trace row: the CSV columns, then the distances around the round-k
# exchange (p-norm max over agents, and l2-squared summed over agents), whose
# post entries are NaN at the final row
TRACE_DTYPE = np.dtype([("k", np.int64)]
                       + [(name, np.float64) for name in ("f_bar", "grad_sq", "consensus", "e1",
                                                          "e2", "e3", "e4", "e5", "s_k")]
                       + [("bits_cum", np.int64), ("region_ok", np.bool_)]
                       + [(name, np.float64) for name in ("surr_pre_pmax", "surr_post_pmax",
                                                          "surr_post_l2sq")], align=True)
CSV_COLUMNS = TRACE_DTYPE.names[:12]


@dataclass
class RunTrace:
    """Per-iteration diagnostics for one run: T+1 rows of ``TRACE_DTYPE``,
    each column read as the attribute of its name."""

    rows: np.ndarray
    e4_mode: str
    final_state: object
    config: dict

    def __getattr__(self, name):
        if name in TRACE_DTYPE.names:
            return self.rows[name]
        raise AttributeError(name)

    # perfbench/workloads.py is its last caller; ROADMAP item 1 removes it
    @property
    def surr_pre_l2sq(self) -> np.ndarray:
        """||x_k - xhat_{k-1}||^2 summed over agents: the e5 column."""
        return self.e5

    @property
    def T(self) -> int:
        return len(self.rows) - 1

    def lyapunov_l1(self) -> np.ndarray:
        return self.e1 + self.e2 + self.e3 + self.e4


def _columns(X: np.ndarray, V: np.ndarray, Xhat: np.ndarray, problem, graph,
             gamma: float, beta: float, f_ref: float | None = None) -> tuple:
    """The objective, stationarity, consensus and Lyapunov columns of states
    stacked along the leading axis of X, V and Xhat (shape (B, n, d)), and
    the X - Xhat and each agent's squared distance they read e5 from.

    e4 uses the problem's exact optimal value when available, else the known
    lower bound, unless the caller passes ``f_ref``.  E is the symmetric
    centering projector, so E X = X - xbar and <X, E F W> = <X - xbar, F W>:
    one product, F W, serves e2 and e3.
    """
    if f_ref is None:
        f_ref = problem.f_star if problem.f_star is not None else problem.f_low
    xbar = X.mean(axis=-2)
    costs, G0 = problem.at_shared(xbar)
    f_bar = np.sum(costs, axis=-1) / problem.n
    gbar = G0.mean(axis=-2)
    W = G0 / gamma
    del G0                      # W = V + G0 / gamma, with G0's block freed before F W
    W += V
    dev = X - xbar[..., None, :]
    e1 = 0.5 * np.sum(np.vecdot(dev, dev), axis=-1)
    FW = graph.apply_F(W)
    # consensus ||x - xbar||^2 / n is 2 e1 / n
    cols = {"f_bar": f_bar, "grad_sq": np.vecdot(gbar, gbar), "consensus": 2.0 * e1 / graph.n,
            "e1": e1, "e2": 0.5 * (beta + gamma) / gamma * np.sum(np.vecdot(W, FW), axis=-1),
            "e3": np.sum(np.vecdot(dev, FW), axis=-1), "e4": graph.n * (f_bar - f_ref)}
    diff = X - Xhat
    sq = np.vecdot(diff, diff)
    cols["e5"] = np.sum(sq, axis=-1)
    return cols, diff, sq


def lyapunov_components(X: np.ndarray, V: np.ndarray, Xhat: np.ndarray,
                        problem, graph, gamma: float, beta: float,
                        f_ref: float | None = None):
    """Evaluate (e1, ..., e5) at one state snapshot: the block evaluation of
    ``trace_rows`` on a block of one state.  e4 is taken against f_star when
    known, else the known lower bound, unless the caller passes ``f_ref``."""
    cols, *_ = _columns(X[None], V[None], Xhat[None], problem, graph, gamma, beta, f_ref)
    return tuple(float(cols[name][0]) for name in ("e1", "e2", "e3", "e4", "e5"))


def _pmax(D: np.ndarray, sq: np.ndarray, p: float) -> np.ndarray:
    """Each state's largest p-norm over agents, given each agent's squared
    distance sq: at p = inf one exact max, at p = 2 the root of sq."""
    if p == np.inf:
        return np.max(np.abs(D), axis=(-2, -1))
    return (np.sqrt(sq) if p == 2 else pnorms(D, p)).max(axis=-1)


def trace_rows(rows: np.ndarray, X: np.ndarray, V: np.ndarray, Xhat: np.ndarray,
               Xhat_next: np.ndarray, problem, graph, hyper, contract) -> None:
    """Fill a block of trace rows from the states stacked along the leading
    axis of X, V and Xhat, shape (B, n, d).  ``rows`` already holds each
    state's k, s_k and bits_cum.  ``Xhat_next[j]`` is the surrogate after row
    j's exchange; it has one entry fewer than X when the block ends at the
    final row, whose post-exchange distances are NaN.

    A local contract sets the distances' norm p and the region radius C;
    under any other contract the distances are Euclidean and the region
    always holds.
    """
    local = contract is not None and contract.cls == LOCAL
    p = contract.p if local else 2.0
    cols, diff, sq = _columns(X, V, Xhat, problem, graph, hyper.gamma, hyper.beta)
    for name, column in cols.items():
        rows[name] = column
    pre = _pmax(diff, sq, p)
    rows["surr_pre_pmax"] = pre
    rows["region_ok"] = meets(pre, contract.C * rows["s_k"] * (1.0 + 1e-12)) if local else True
    m = len(Xhat_next)
    # the distances after the exchange overwrite those before it
    post = np.subtract(X[:m], Xhat_next, out=diff[:m])
    sq = np.vecdot(post, post, out=sq[:m])
    rows["surr_post_pmax"][:m] = _pmax(post, sq, p)
    rows["surr_post_l2sq"][:m] = np.sum(sq, axis=-1)
    rows["surr_post_pmax"][m:] = rows["surr_post_l2sq"][m:] = np.nan


@dataclass
class CheckReport:
    name: str
    checked: int
    violations: int

    @property
    def passed(self) -> bool:
        return self.violations == 0


def meets(value, bound) -> np.ndarray:
    """The verdict rule of every row: its bound is a finite float and its value
    meets it, so that a NaN, an overflow or an infinite bound fails."""
    return np.isfinite(bound) & (value <= bound)


def _report(name: str, value: np.ndarray, bound: np.ndarray) -> CheckReport:
    return CheckReport(name, len(value), int(np.count_nonzero(~meets(value, bound))))


@np.errstate(over="ignore", invalid="ignore")
def lyapunov_sandwich_check(trace: RunTrace, eps1: float, eps2: float,
                            gamma: float, beta: float) -> CheckReport:
    """Check eps1 * L1_hat <= L1 <= eps2 * L1_hat at every recorded iteration."""
    l1 = trace.lyapunov_l1()
    # ||x||_E^2 = 2 e1 and ||v + g0/gamma||_F^2 = 2 e2 * gamma/(beta+gamma)
    hat = 2.0 * trace.e1 + 2.0 * trace.e2 * gamma / (beta + gamma) + trace.e4
    return _report("lyapunov_sandwich", np.maximum(eps1 * hat - l1, l1 - eps2 * hat),
                   1e-9 * np.maximum(np.abs(hat), 1.0))


@np.errstate(over="ignore", invalid="ignore")
def lyapunov_descent_check(trace: RunTrace, alpha: float, eps6: float, eps5: float,
                           psi2: float, C: float, d_tilde: float, n: int) -> CheckReport:
    """Check the gradient-dominated one-step bound
    L1_{k+1} <= (1 - alpha eps6) L1_k + alpha n d_tilde^2 (1 - 2 eps5) psi2 C^2 s_k^2."""
    l1 = trace.lyapunov_l1()
    rhs = (1.0 - alpha * eps6) * l1[:-1] \
        + alpha * n * d_tilde ** 2 * (1.0 - 2.0 * eps5) * psi2 * (C * C) * trace.s_k[:-1] ** 2
    return _report("lyapunov_descent", l1[1:] - rhs, 1e-9 * np.maximum(np.abs(rhs), 1.0))


@np.errstate(over="ignore", invalid="ignore")
def contraction_local_check(trace: RunTrace, contract, omega: float) -> CheckReport:
    """Deterministic per-step check of
    ||x_k - xhat_k||_p <= sqrt(1 - omega r (2 delta - delta^2)) C s_k,
    on the steps where the region guarantee holds.

    The 1e-12 tolerance is relative to the squared region radius C^2 s_k^2,
    not to the bound: an exact compressor at omega = 1 has bound 0 and a
    rounding-level error.  Distances, not their squares, are compared, so the
    bound stays finite while C s_k does.
    """
    factor = 1.0 - omega * contract.r * (2.0 * contract.delta - contract.delta ** 2)
    ok_rows = trace.region_ok[:-1]
    bound = np.sqrt(factor + 1e-12) * contract.C * trace.s_k[:-1]
    return _report("contraction_local", trace.surr_post_pmax[:-1][ok_rows], bound[ok_rows])


@np.errstate(over="ignore", invalid="ignore")
def contraction_global_check(traces: list, contract, omega: float,
                             n: int) -> CheckReport:
    """Aggregate Monte-Carlo check of the mean-square contraction
    E||X_k - Xhat_k||^2 <= (1 - omega r delta) ||X_k - Xhat_{k-1}||^2
                           + n omega r C s_k^2
    across independent seeds, with a 3-standard-error margin per iteration."""
    if len(traces) < 2:
        raise DegenerateSeries("need at least two seeds for the aggregate check")
    rows = min(t.T for t in traces)
    rho = 1.0 - omega * contract.r * contract.delta
    D = np.stack([t.surr_post_l2sq[:rows] - rho * t.e5[:rows]
                  - n * omega * contract.r * contract.C * t.s_k[:rows] ** 2 for t in traces])
    se = D.std(axis=0, ddof=1) / math.sqrt(len(traces))
    return _report("contraction_global", D.mean(axis=0), 3.0 * se)


def rate_fit(ts, vs, model: str = "power_law", burn_in_frac: float = 0.1):
    """Least-squares fit in log space.

    power_law fits log v = a + b log t and returns (b, r_squared);
    geometric fits log v = a + k log rho and returns (rho, r_squared).
    A burn-in prefix is discarded because the target rates are asymptotic.
    """
    ts = np.asarray(ts, dtype=float)
    vs = np.asarray(vs, dtype=float)
    if len(ts) != len(vs):
        raise DegenerateSeries("ts and vs must have equal length")
    skip = int(len(ts) * burn_in_frac)
    ts, vs = ts[skip:], vs[skip:]
    if len(ts) < 3 or not np.all(np.isfinite(ts) & np.isfinite(vs)) or np.any(vs <= 0):
        raise DegenerateSeries("need >= 3 finite points with positive values")
    if np.all(ts == ts[0]):
        raise DegenerateSeries("need at least two distinct abscissae")
    y = np.log(vs)
    if model == "power_law":
        if np.any(ts <= 0):
            raise DegenerateSeries("power_law needs positive abscissae")
        x = np.log(ts)
    elif model == "geometric":
        x = ts
    else:
        raise DegenerateSeries(f"unknown model {model!r}")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    value = float(slope) if model == "power_law" else float(np.exp(slope))
    return value, r2


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def json_safe(value):
    """``value`` with each non-finite float written as "inf", "-inf" or
    "nan", so that the JSON dumped from it is standard JSON."""
    if isinstance(value, dict):
        return {key: json_safe(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


def write_csv(trace: RunTrace, path) -> None:
    """Write the fixed 12-column per-iteration table; byte-stable for a
    given trace."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        columns = [getattr(trace, name).tolist() for name in CSV_COLUMNS]
        for row in zip(*columns):
            writer.writerow([repr(v) if isinstance(v, float) else int(v) for v in row])


def summary(trace: RunTrace) -> dict:
    last = -1
    return {
        "iterations": int(trace.T),
        "final": {
            "f_bar": float(trace.f_bar[last]),
            "grad_sq": float(trace.grad_sq[last]),
            "consensus": float(trace.consensus[last]),
            "e5": float(trace.e5[last]),
            "s_k": float(trace.s_k[last]),
            "bits_cum": int(trace.bits_cum[last]),
        },
        "region_violations": int((~trace.region_ok).sum()),
        "e4_mode": trace.e4_mode,
        "config": trace.config,
    }


def write_summary(trace: RunTrace, path, extra: dict | None = None) -> None:
    data = summary(trace)
    if extra:
        data.update(extra)
    with open(path, "w") as fh:
        json.dump(json_safe(data), fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
