"""Run traces, Lyapunov components, inequality checks, and rate fits.

The per-iteration record pairs the iterate x_k with the surrogate from the
previous exchange (so e5 at row k is ||x_k - xhat_{k-1}||^2, the distance the
round-k compressor actually sees, and equals ||x_0||^2 at k = 0 under zero
initialization).  The distances after the round-k exchange are kept in
separate columns (surr_post_*) for the contraction checks.
"""

import csv
import json
import math
from dataclasses import dataclass, field

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


def _total(A: np.ndarray) -> np.ndarray:
    """Sum over the agent and coordinate axes: one value per state."""
    return np.sum(A, axis=(-2, -1))


def _columns(X: np.ndarray, V: np.ndarray, Xhat: np.ndarray, problem, graph,
             gamma: float, beta: float, f_ref: float | None = None) -> tuple:
    """The objective, stationarity, consensus and Lyapunov columns of states
    stacked along the leading axis of X, V and Xhat (shape (B, n, d)), and
    the X - Xhat they read e5 from.

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
    dev = X - xbar[..., None, :]
    e1 = 0.5 * _total(dev * dev)
    W = V + G0 / gamma
    FW = graph.apply_F(W)
    diff = X - Xhat
    # consensus ||x - xbar||^2 / n is 2 e1 / n
    return {"f_bar": f_bar, "grad_sq": np.vecdot(gbar, gbar), "consensus": 2.0 * e1 / graph.n,
            "e1": e1, "e2": 0.5 * (beta + gamma) / gamma * _total(W * FW),
            "e3": _total(dev * FW), "e4": graph.n * (f_bar - f_ref),
            "e5": _total(diff * diff)}, diff


def lyapunov_components(X: np.ndarray, V: np.ndarray, Xhat: np.ndarray,
                        problem, graph, gamma: float, beta: float,
                        f_ref: float | None = None):
    """Evaluate (e1, ..., e5) at one state snapshot: the block evaluation of
    ``trace_rows`` on a block of one state.

    e4 uses the problem's exact optimal value when available, else the known
    lower bound, unless the caller passes ``f_ref``.
    """
    cols, _ = _columns(X[None], V[None], Xhat[None], problem, graph, gamma, beta, f_ref)
    return tuple(float(cols[name][0]) for name in ("e1", "e2", "e3", "e4", "e5"))


def _pmax(D: np.ndarray, p: float) -> np.ndarray:
    """Each state's largest p-norm over agents; at p = inf one exact max."""
    return np.max(np.abs(D), axis=(-2, -1)) if p == np.inf else pnorms(D, p).max(axis=-1)


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
    cols, diff = _columns(X, V, Xhat, problem, graph, hyper.gamma, hyper.beta)
    for name, column in cols.items():
        rows[name] = column
    pre = _pmax(diff, p)
    rows["surr_pre_pmax"] = pre
    rows["region_ok"] = pre <= contract.C * rows["s_k"] * (1.0 + 1e-12) if local else True
    m = len(Xhat_next)
    post = X[:m] - Xhat_next
    rows["surr_post_pmax"][:m] = _pmax(post, p)
    rows["surr_post_l2sq"][:m] = _total(post * post)
    rows["surr_post_pmax"][m:] = rows["surr_post_l2sq"][m:] = np.nan


@dataclass
class CheckReport:
    name: str
    checked: int
    violations: int
    worst_margin: float      # most negative slack (bound - value); >= 0 when clean
    detail: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.violations == 0


def lyapunov_sandwich_check(trace: RunTrace, eps1: float, eps2: float,
                            gamma: float, beta: float) -> CheckReport:
    """Check eps1 * L1_hat <= L1 <= eps2 * L1_hat at every recorded iteration."""
    l1 = trace.lyapunov_l1()
    # ||x||_E^2 = 2 e1 and ||v + g0/gamma||_F^2 = 2 e2 * gamma/(beta+gamma)
    hat = 2.0 * trace.e1 + 2.0 * trace.e2 * gamma / (beta + gamma) + trace.e4
    scale = np.maximum(np.abs(hat), 1.0)
    lo_slack = l1 - eps1 * hat
    hi_slack = eps2 * hat - l1
    bad = (lo_slack < -1e-9 * scale) | (hi_slack < -1e-9 * scale)
    worst = float(min(lo_slack.min(), hi_slack.min()))
    return CheckReport("lyapunov_sandwich", len(l1), int(bad.sum()), worst,
                       {"eps1": eps1, "eps2": eps2})


def lyapunov_descent_check(trace: RunTrace, alpha: float, eps6: float, eps5: float,
                           psi2: float, C: float, d_tilde: float, n: int) -> CheckReport:
    """Check the gradient-dominated one-step bound
    L1_{k+1} <= (1 - alpha eps6) L1_k + alpha n d_tilde^2 (1 - 2 eps5) psi2 C^2 s_k^2."""
    l1 = trace.lyapunov_l1()
    rhs = (1.0 - alpha * eps6) * l1[:-1] \
        + alpha * n * d_tilde ** 2 * (1.0 - 2.0 * eps5) * psi2 * C ** 2 * trace.s_k[:-1] ** 2
    slack = rhs - l1[1:]
    scale = np.maximum(np.abs(rhs), 1.0)
    bad = slack < -1e-9 * scale
    return CheckReport("lyapunov_descent", len(slack), int(bad.sum()), float(slack.min()),
                       {"alpha": alpha, "eps6": eps6})


def contraction_local_check(trace: RunTrace, contract, omega: float) -> CheckReport:
    """Deterministic per-step check of
    ||x_k - xhat_k||_p^2 <= (1 - omega r (2 delta - delta^2)) C^2 s_k^2,
    conditional on the region guarantee holding at step k.

    The 1e-12 tolerance is relative to the region's scale C^2 s_k^2, not to
    the bound: an exact compressor at omega = 1 has bound 0 and a
    rounding-level error.
    """
    factor = 1.0 - omega * contract.r * (2.0 * contract.delta - contract.delta ** 2)
    post = trace.surr_post_pmax[:-1]
    scale = contract.C ** 2 * trace.s_k[:-1] ** 2
    ok_rows = trace.region_ok[:-1]
    slack = (factor + 1e-12) * scale - post ** 2
    bad = (slack < 0) & ok_rows
    checked = int(ok_rows.sum())
    worst = float(slack[ok_rows].min()) if checked else 0.0
    return CheckReport("contraction_local", checked, int(bad.sum()), worst,
                       {"factor": factor})


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
    D = np.stack([
        t.surr_post_l2sq[:rows] - rho * t.e5[:rows]
        - n * omega * contract.r * contract.C * t.s_k[:rows] ** 2
        for t in traces
    ])
    mean = D.mean(axis=0)
    se = D.std(axis=0, ddof=1) / math.sqrt(len(traces))
    slack = 3.0 * se - mean
    bad = slack < 0
    return CheckReport("contraction_global", rows, int(bad.sum()), float(slack.min()),
                       {"seeds": len(traces)})


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
