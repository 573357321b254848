import numpy as np
import pytest

from dcopt import (
    GeometricSchedule,
    HyperParams,
    OneBit,
    build_graph,
    compute_constants,
    lyapunov_components,
    make_quadratic,
    rate_fit,
    run,
    write_csv,
)
from dcopt.diagnostics import lyapunov_sandwich_check, summary
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
    e1, e2, e3, e4, e5 = lyapunov_components(X, np.zeros((n, d)), X, prob, g,
                                             hyper.gamma, hyper.beta)
    assert e1 == pytest.approx(0.0, abs=1e-12)
    assert e5 == pytest.approx(0.0, abs=1e-12)
    # zero dual residual: v = -g0/gamma kills e2 and e3
    rng = np.random.default_rng(0)
    X = rng.standard_normal((n, d))
    xbar = X.mean(axis=0)
    V = -prob.at_shared(xbar)[1] / hyper.gamma
    _, e2, e3, _, _ = lyapunov_components(X, V, X, prob, g, hyper.gamma, hyper.beta)
    assert e2 == pytest.approx(0.0, abs=1e-12)
    assert e3 == pytest.approx(0.0, abs=1e-12)


def test_e1_consensus_identity_on_trace():
    prob, g, hyper = _setup()
    tr = run(prob, g, OneBit(2.0), hyper, T=40, x0_seed=2)
    np.testing.assert_allclose(tr.e1, 3 * tr.consensus / 2.0, rtol=0, atol=1e-12)


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
    E = np.eye(3) - 1.0 / 3
    rng = np.random.default_rng(5)
    for _ in range(300):
        X = rng.standard_normal((3, 2)) * rng.uniform(0.1, 20)
        V = rng.standard_normal((3, 2)) * rng.uniform(0.1, 20)
        V -= V.mean(axis=0)     # dual mean is an algorithm invariant
        e1, e2, e3, e4, _ = lyapunov_components(X, V, X, prob, g, gamma, beta)
        l1 = e1 + e2 + e3 + e4
        xbar = X.mean(axis=0)
        W = V + prob.at_shared(xbar)[1] / gamma
        hat = float(np.sum(X * (E @ X))) + float(np.sum(W * (g.F @ W))) + e4
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
