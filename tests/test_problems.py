import math

import numpy as np
import pytest

from dcopt import estimate_f_star, make_nonconvex, make_quadratic
from dcopt.errors import IndexOutOfRange


def _finite_diff(f, x, h=1e-6):
    g = np.zeros_like(x)
    for j in range(len(x)):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def test_scalar_least_squares():
    # f(x) = 0.5 (x - 2)^2 built by hand through the same container
    prob = make_quadratic(1, 1, seed=0, condition_number=1.0)
    # generated instance has ell = 1 by construction
    assert prob.ell == pytest.approx(1.0)
    assert prob.f(prob.x_star) == pytest.approx(prob.f_star)
    assert prob.f_star >= prob.f_low - 1e-12


def test_quadratic_closed_form_matches_gd_oracle():
    prob = make_quadratic(2, 2, seed=3, condition_number=4.0)
    x = np.zeros(2)
    for _ in range(20_000):
        g = prob.grad_f(x)
        if np.linalg.norm(g) <= 1e-12:
            break
        x = x - 0.9 / prob.ell * g
    assert np.linalg.norm(prob.grad_f(x)) <= 1e-10
    assert prob.f(x) == pytest.approx(prob.f_star, abs=1e-8)
    np.testing.assert_allclose(x, prob.x_star, atol=1e-6)


def test_quadratic_gradient_examples():
    prob = make_quadratic(3, 4, seed=1)
    # stationary at the per-agent solution A_i x = b_i is not required, but
    # the global optimum has zero average gradient
    assert np.linalg.norm(prob.grad_f(prob.x_star)) <= 1e-9
    x = np.zeros(4)
    g = prob.gradient(0, x)
    gd = _finite_diff(lambda y: prob.cost(0, y), x)
    np.testing.assert_allclose(g, gd, rtol=1e-4, atol=1e-7)
    with pytest.raises(IndexOutOfRange):
        prob.gradient(3, x)


def test_nonconvex_value_at_origin():
    # logistic loss at the origin is log 2 regardless of the data
    prob = make_nonconvex(2, 3, seed=5, lam=0.0, m=4)
    for i in range(2):
        assert prob.cost(i, np.zeros(3)) == pytest.approx(math.log(2.0))


@pytest.mark.parametrize("factory", [
    lambda: make_quadratic(3, 5, seed=7, condition_number=8.0),
    lambda: make_nonconvex(3, 5, seed=7),
])
def test_gradients_match_finite_differences(factory):
    prob = factory()
    rng = np.random.default_rng(2)
    for _ in range(10):
        i = int(rng.integers(prob.n))
        x = rng.standard_normal(prob.d)
        g = prob.gradient(i, x)
        gd = _finite_diff(lambda y: prob.cost(i, y), x)
        denom = max(np.linalg.norm(gd), 1e-8)
        assert np.linalg.norm(g - gd) / denom <= 1e-4


@pytest.mark.parametrize("m,d", [(4, 9), (12, 5)])
def test_nonconvex_data_scaled_to_unit_spectral_radius(m, d):
    # the scale comes from the smaller Gram matrix; the certificate is the d x d one
    prob = make_nonconvex(6, d, seed=17, lam=0.2, m=m)
    A = prob.data["A"]
    tops = [np.linalg.eigvalsh(A[i].T @ A[i] / m)[-1] for i in range(6)]
    np.testing.assert_allclose(tops, 1.0, rtol=0, atol=1e-12)
    assert prob.ell == 0.25 + 2.0 * 0.2


@pytest.mark.parametrize("factory", [
    lambda: make_quadratic(4, 3, seed=9, condition_number=6.0),
    lambda: make_nonconvex(4, 3, seed=9),
])
def test_smoothness_certificate(factory):
    prob = factory()
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1000):
        i = int(rng.integers(prob.n))
        x = rng.standard_normal(prob.d) * rng.uniform(0.1, 5)
        y = rng.standard_normal(prob.d) * rng.uniform(0.1, 5)
        num = np.linalg.norm(prob.gradient(i, x) - prob.gradient(i, y))
        den = np.linalg.norm(x - y)
        if den > 1e-12:
            worst = max(worst, num / den)
    assert worst <= prob.ell * (1.0 + 1e-8)


def test_pl_certificate_quadratic():
    prob = make_quadratic(3, 4, seed=11, condition_number=10.0)
    rng = np.random.default_rng(6)
    for _ in range(1000):
        x = rng.standard_normal(4) * rng.uniform(0.1, 10)
        g = prob.grad_f(x)
        gap = prob.f(x) - prob.f_star
        assert 0.5 * (g @ g) >= prob.pl_nu * gap * (1.0 - 1e-8)


def test_nonconvex_nonnegative_and_heterogeneous():
    prob = make_nonconvex(4, 3, seed=13)
    rng = np.random.default_rng(8)
    X = rng.standard_normal((10_000, 3)) * 3.0
    vals = np.array([prob.f(x) for x in X[:200]])
    assert np.all(vals >= 0.0)
    for x in X[200:]:
        assert prob.cost(0, x) >= 0.0
    # local gradients disagree at a common point
    g0 = prob.gradient(0, X[0])
    g1 = prob.gradient(1, X[0])
    assert np.linalg.norm(g0 - g1) > 1e-3


def test_estimate_f_star_reporting():
    prob = make_nonconvex(2, 2, seed=15)
    best = estimate_f_star(prob, restarts=2, iters=300, seed=1)
    assert 0.0 <= best <= prob.f(np.zeros(2))
