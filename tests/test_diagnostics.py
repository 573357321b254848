import ast
import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dcopt
from dcopt import (
    GeometricSchedule,
    HyperParams,
    OneBit,
    UnbiasedKBit,
    build_graph,
    compute_constants,
    lyapunov_components,
    make_quadratic,
    rate_fit,
    run,
    write_csv,
)
from dcopt.diagnostics import (
    TRACE_DTYPE,
    contraction_global_check,
    contraction_local_check,
    lyapunov_descent_check,
    lyapunov_sandwich_check,
    summary,
    trace_rows,
)
from dcopt.errors import DegenerateSeries


def _setup(n=3, d=2, seed=1):
    prob = make_quadratic(n, d, seed=seed, condition_number=5.0)
    g = build_graph("path", n)
    hyper = HyperParams(alpha=0.05, beta=5.0, gamma=1.2, omega=1.0,
                        schedule=GeometricSchedule(5.0, 0.99))
    return prob, g, hyper


def test_components_trivial_cases():
    prob, g, hyper = _setup()
    n, d = 3, 2
    xbar = np.ones(d)
    X = np.tile(xbar, (n, 1))
    # consensus state: e1 = 0
    c = lyapunov_components(X, np.zeros((n, d)), X, prob, g, hyper.gamma, hyper.beta)
    # every record column of the state, by name
    assert list(c) == list(TRACE_DTYPE.names[1:9])
    assert c["e1"] == pytest.approx(0.0, abs=1e-12)
    assert c["e5"] == pytest.approx(0.0, abs=1e-12)
    # zero dual residual: v = -g0/gamma kills e2 and e3
    rng = np.random.default_rng(0)
    X = rng.standard_normal((n, d))
    xbar = X.mean(axis=0)
    V = -prob.at_shared(xbar)[1] / hyper.gamma
    c = lyapunov_components(X, V, X, prob, g, hyper.gamma, hyper.beta)
    assert c["e2"] == pytest.approx(0.0, abs=1e-12)
    assert c["e3"] == pytest.approx(0.0, abs=1e-12)


def test_no_module_imports_another_modules_private_name():
    """A private name has one home: no module of the package imports another
    module's underscore name, or reads one off a sibling module it imports."""
    found = []
    for path in sorted(Path(dcopt.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        siblings = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += [(path.name, node.module, alias.name) for alias in node.names
                          if node.module and alias.name.startswith("_")]
                if node.module is None:
                    siblings.update(alias.asname or alias.name for alias in node.names)
        found += [(path.name, node.value.id, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in siblings and node.attr.startswith("_")]
    assert found == []


def test_e1_consensus_identity_on_trace():
    prob, g, hyper = _setup()
    tr = run(prob, g, OneBit(2.0), hyper, T=40, x0_seed=2)
    np.testing.assert_allclose(tr.e1, 3 * tr.consensus / 2.0, rtol=0, atol=1e-12)
    assert not hasattr(tr, "e6")


def test_sandwich_holds_on_random_states():
    """The two-sided Lyapunov bound is algebraic: it must hold for arbitrary
    states once tau_1 >= kappa_1 and gamma > kappa_2."""
    prob, g, _ = _setup(n=3, d=2, seed=4)
    ct = OneBit(1.0).contract(2)
    probe = compute_constants(g, prob.ell, 1.0, 1.0, 1.0, 1e-9, ct, 2)
    gamma = 1.05 * probe.kappa_2
    tau_1 = 1.05 * probe.kappa_1
    table = compute_constants(g, prob.ell, gamma, tau_1, 1.0, 1e-4, ct, 2)
    beta = tau_1 * gamma
    E, F = np.eye(3) - 1.0 / 3, g.apply_F(np.eye(3))
    rng = np.random.default_rng(5)
    for _ in range(300):
        X = rng.standard_normal((3, 2)) * rng.uniform(0.1, 20)
        V = rng.standard_normal((3, 2)) * rng.uniform(0.1, 20)
        V -= V.mean(axis=0)     # dual mean is an algorithm invariant
        c = lyapunov_components(X, V, X, prob, g, gamma, beta)
        l1 = c["e1"] + c["e2"] + c["e3"] + c["e4"]
        xbar = X.mean(axis=0)
        W = V + prob.at_shared(xbar)[1] / gamma
        hat = float(np.sum(X * (E @ X))) + float(np.sum(W * (F @ W))) + c["e4"]
        scale = max(abs(hat), 1.0)
        assert l1 >= table.eps_1 * hat - 1e-9 * scale
        assert l1 <= table.eps_2 * hat + 1e-9 * scale


def test_sandwich_check_on_trace():
    prob, g, _ = _setup(n=3, d=2, seed=6)
    ct = OneBit(4.0).contract(2)
    probe = compute_constants(g, prob.ell, 1.0, 1.0, 1.0, 1e-9, ct, 2)
    gamma = 1.05 * probe.kappa_2
    tau_1 = 1.05 * probe.kappa_1
    table = compute_constants(g, prob.ell, gamma, tau_1, 1.0, 1e-4, ct, 2)
    hyper = HyperParams(alpha=1e-4, beta=tau_1 * gamma, gamma=gamma, omega=1.0,
                        schedule=GeometricSchedule(3.0, 0.999), tau_1=tau_1)
    tr = run(prob, g, OneBit(4.0), hyper, T=50, x0_seed=7, contract=ct)
    rep = lyapunov_sandwich_check(tr, table.eps_1, table.eps_2, gamma, hyper.beta)
    assert rep.passed, rep


def _two_product(a, b):
    """(p, e) with a * b = p + e exactly, elementwise (Dekker's product on
    Veltkamp's split); exact while no product under- or overflows."""
    def split(x):
        c = 134217729.0 * x                   # 2^27 + 1
        hi = c - (c - x)
        return hi, x - hi
    (a1, a2), (b1, b2) = split(a), split(b)
    p = a * b
    return p, ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2


def _exact_dot(a, b):
    """(sum of a_i b_i rounded once, sum of |a_i b_i|) by ``math.fsum`` over
    the exact products, with no NumPy reduction or BLAS call."""
    p, e = _two_product(np.ravel(a), np.ravel(b))
    return math.fsum([*p, *e]), math.fsum([*np.abs(p), *np.abs(e)])


class _FixedGradients:
    """A problem whose costs are zero and whose gradients at the shared point
    are a fixed (B, n, d) block, so that W = V + G0 / gamma is any block."""

    def __init__(self, G0):
        self.G0, self.n, self.f_star = G0, G0.shape[1], 0.0

    def at_shared(self, xbar):
        return np.zeros(self.G0.shape[:2]), self.G0


@pytest.mark.parametrize("topology", ["ring", "complete", "path"])
@pytest.mark.parametrize("B", [1, 7])
def test_record_totals_match_exact_sums(topology, B):
    """Each total the record takes (one BLAS dot of a state's block, or of an
    agent's row, and a sum of the rows' dots) is within 1e-12 of the exactly
    rounded sum of the exact products, relative to the sum of their
    magnitudes, on blocks whose magnitudes reach 1e-150 and 1e150 and whose
    rows include zeros."""
    n, d = 10, 5
    g = build_graph(topology, n)
    rng = np.random.default_rng(17 + B)
    scale = 10.0 ** rng.uniform(-150, 150, size=(B, 1, 1)) * 10.0 ** rng.uniform(-2, 2, (B, n, 1))
    X, V, Xhat, Xhat_next, G0 = (rng.standard_normal((B, n, d)) * scale for _ in range(5))
    X[:, 3] = 0.0
    Xhat[:, :2] = X[:, :2]                    # agents at zero distance before the exchange
    Xhat_next[:, -1] = X[:, -1]               # and one after it
    if B > 1:
        X[1], V[1], Xhat[1], Xhat_next[1], G0[1] = 0.0, 0.0, 0.0, 0.0, 0.0
    hyper = HyperParams(alpha=0.05, beta=2.1, gamma=0.7, omega=1.0,
                        schedule=GeometricSchedule(1.0, 0.99))
    rows = np.zeros(B, TRACE_DTYPE)
    trace_rows(rows, X, V, Xhat, Xhat_next, _FixedGradients(G0), g, hyper, None)

    factor = 0.5 * (hyper.beta + hyper.gamma) / hyper.gamma
    for j in range(B):
        dev = X[j] - X[j].mean(axis=0)
        W = V[j] + G0[j] / hyper.gamma
        FW = g.apply_F(W[None])[0]
        pre, post = X[j] - Xhat[j], X[j] - Xhat_next[j]
        e1, e1_scale = _exact_dot(dev, dev)
        e2, e2_scale = _exact_dot(W, FW)
        e3, e3_scale = _exact_dot(dev, FW)
        e5, _ = _exact_dot(pre, pre)
        l2sq, _ = _exact_dot(post, post)
        for name, exact, magnitude in (
                ("e1", 0.5 * e1, 0.5 * e1_scale), ("e2", factor * e2, factor * e2_scale),
                ("e3", e3, e3_scale), ("e5", e5, e5), ("surr_post_l2sq", l2sq, l2sq),
                ("consensus", e1 / n, e1 / n)):
            assert abs(rows[name][j] - exact) <= 1e-12 * magnitude, (name, j)


def test_rate_fit_exact_and_noisy():
    k = np.arange(1, 200)
    b, r2 = rate_fit(k, k ** -0.5, "power_law", burn_in_frac=0.0)
    assert b == pytest.approx(-0.5, abs=1e-12) and r2 == pytest.approx(1.0)
    ratio, r2 = rate_fit(k, 0.9 ** k, "geometric", burn_in_frac=0.0)
    assert ratio == pytest.approx(0.9, abs=1e-12) and r2 == pytest.approx(1.0)
    rng = np.random.default_rng(8)
    noisy = k ** (-2.0 / 3.0) * (1.0 + 0.01 * rng.uniform(-1, 1, size=len(k)))
    b, _ = rate_fit(k, noisy, "power_law")
    assert abs(b - (-2.0 / 3.0)) <= 0.02


def test_rate_fit_rejections():
    with pytest.raises(DegenerateSeries):
        rate_fit([1, 2], [1.0, 0.5], "power_law", burn_in_frac=0.0)
    with pytest.raises(DegenerateSeries):
        rate_fit([1, 2, 3], [1.0, -0.5, 0.2], "power_law", burn_in_frac=0.0)
    with pytest.raises(DegenerateSeries):
        rate_fit([1, 2, 3], [1.0, 0.5, 0.2], "parabola", burn_in_frac=0.0)
    # non-finite values and a constant abscissa have no fit
    for ts, vs in (([1, 2, 3], [1.0, np.nan, 0.2]), ([1, 2, 3], [1.0, np.inf, 0.2]),
                   ([1, np.inf, 3], [1.0, 0.5, 0.2]), ([100, 100, 100], [1.0, 0.5, 0.2])):
        for model in ("power_law", "geometric"):
            with pytest.raises(DegenerateSeries):
                rate_fit(ts, vs, model, burn_in_frac=0.0)


def test_csv_rows_and_byte_stability(tmp_path):
    prob, g, hyper = _setup(seed=9)
    tr = run(prob, g, OneBit(2.0), hyper, T=12, x0_seed=10)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(tr, p1)
    write_csv(tr, p2)
    data = p1.read_bytes()
    assert data == p2.read_bytes()
    lines = data.decode().strip().split("\n")
    assert lines[0] == "k,f_bar,grad_sq,consensus,e1,e2,e3,e4,e5,s_k,bits_cum,region_ok"
    assert len(lines) == 1 + 13      # header + T+1 rows


def test_summary_keys():
    prob, g, hyper = _setup(seed=11)
    tr = run(prob, g, OneBit(2.0), hyper, T=5, x0_seed=12)
    s = summary(tr)
    assert s["iterations"] == 5
    assert set(s["final"]) == {"f_bar", "grad_sq", "consensus", "e5", "s_k", "bits_cum"}
    assert s["e4_mode"] == "exact"


@pytest.fixture(scope="module")
def checked_runs():
    """A local run that meets all three of its checks, with the constants they
    read, and two seeds of a global run that meet the aggregate check."""
    prob, g, _ = _setup(n=3, d=2, seed=6)
    ct = OneBit(4.0).contract(2)
    probe = compute_constants(g, prob.ell, 1.0, 1.0, 1.0, 1e-9, ct, 2)
    gamma, tau_1 = 1.05 * probe.kappa_2, 1.05 * probe.kappa_1
    table = compute_constants(g, prob.ell, gamma, tau_1, 1.0, 1e-4, ct, 2, nu=prob.pl_nu)
    hyper = HyperParams(alpha=1e-4, beta=tau_1 * gamma, gamma=gamma, omega=1.0,
                        schedule=GeometricSchedule(3.0, 0.999), tau_1=tau_1)
    local = run(prob, g, OneBit(4.0), hyper, T=20, x0_seed=7, contract=ct)
    kbit = [run(prob, g, UnbiasedKBit(3, seed=seed), hyper, T=20, x0_seed=7)
            for seed in (1, 2)]
    return {"local": [local], "global": kbit, "contract": ct, "table": table, "hyper": hyper}


# each check on the runs, and the trace edits that make one row NaN and give
# another an infinite bound: (column, row, value); the global edits go to the
# first seed's trace
CHECKS = {
    "lyapunov_sandwich": (lambda r, traces: lyapunov_sandwich_check(
        traces[0], r["table"].eps_1, r["table"].eps_2, r["hyper"].gamma, r["hyper"].beta),
        # 2 e2 overflows L1_hat
        ("e1", 5, np.nan), ("e2", 9, 1e308)),
    # the last row's L1 enters one step only; s_k^2 overflows at 1e200
    "lyapunov_descent": (lambda r, traces: lyapunov_descent_check(
        traces[0], r["hyper"].alpha, r["table"].eps_6, r["table"].eps_5, r["table"].psi_2,
        r["contract"].C, r["contract"].d_tilde(2), 3), ("e1", 20, np.nan), ("s_k", 9, 1e200)),
    # C s_k = 4 * 1e308 overflows
    "contraction_local": (lambda r, traces: contraction_local_check(
        traces[0], r["contract"], 1.0), ("surr_post_pmax", 5, np.nan), ("s_k", 9, 1e308)),
    # two seeds 1e308 apart overflow the standard error
    "contraction_global": (lambda r, traces: contraction_global_check(
        traces, UnbiasedKBit(3).contract(2), 1.0, 3),
        ("surr_post_l2sq", 5, np.nan), ("surr_post_l2sq", 9, 1e308)),
}


@pytest.mark.parametrize("name", CHECKS)
def test_a_nan_row_and_an_infinite_bound_are_violations(checked_runs, name):
    check, *edits = CHECKS[name]
    traces = checked_runs["global" if name == "contraction_global" else "local"]
    clean = check(checked_runs, traces)
    assert clean.name == name and clean.passed and clean.checked > 0
    rows = traces[0].rows.copy()
    for column, row, value in edits:
        rows[column][row] = value
    edited = check(checked_runs, [dataclasses.replace(traces[0], rows=rows), *traces[1:]])
    assert (edited.checked, edited.violations) == (clean.checked, 2)


def test_a_region_radius_whose_square_overflows_fails_every_descent_row(checked_runs):
    # C^2 overflows a float, so every row's bound is infinite
    r = checked_runs
    report = lyapunov_descent_check(r["local"][0], r["hyper"].alpha, r["table"].eps_6,
                                    r["table"].eps_5, r["table"].psi_2, 1e200, 1.0, 3)
    assert report.violations == report.checked == 20


# a noisy 8-bit ring run and a T2 one-bit selection whose states have
# n d = 12,000 entries; prints the trace's column bytes' digest, l1_0 and s0
THREADS_SCRIPT = """
import hashlib
from dcopt import (GeometricSchedule, HyperParams, Noisy, OneBit, UnbiasedKBit, build_graph,
                   make_nonconvex, run, theorem_params)
from dcopt.diagnostics import TRACE_DTYPE
problem, graph = make_nonconvex(120, 100, seed=2), build_graph("ring", 120)
hyper = HyperParams(alpha=0.2, beta=0.9, gamma=0.6, omega=1.0,
                    schedule=GeometricSchedule(1.0, 0.99))
trace = run(problem, graph, Noisy(UnbiasedKBit(8, seed=7), 0.5), hyper, 5, x0_seed=7)
sel = theorem_params("T2_local_exact_first", problem, graph, OneBit(1.0).contract(100),
                     T=1000, x0_seed=4)
print(hashlib.sha256(b"".join(trace.rows[name].tobytes() for name in TRACE_DTYPE.names))
      .hexdigest(), repr(sel.extras["l1_0"]), repr(sel.hyper.schedule.s0))
"""


def test_record_and_selection_do_not_depend_on_the_blas_thread_count():
    """OpenBLAS splits a dot of more than 10,000 entries across its threads,
    and the split moves its rounding.  A record total is a sum over agents of
    one dot per agent's row, so a run and a selection at n d = 12,000 print
    the same bytes under one and two BLAS threads.  On a host with one CPU
    OpenBLAS runs one thread either way, and this test cannot fail there."""
    src = str(Path(dcopt.__file__).resolve().parent.parent)
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        outs.append(subprocess.run([sys.executable, "-c", THREADS_SCRIPT], env=env,
                                   check=True, capture_output=True).stdout)
    assert outs[0] and outs[0] == outs[1]
