import math

import numpy as np
import pytest

import oracle
from dcopt import make_nonconvex, make_quadratic
from dcopt.compressors import pnorms
from dcopt.problems import ProblemInstance


def _costs(prob, X):
    """Agent i's cost at X[..., i, :], for every agent."""
    return prob.cost_from(X, prob.residual(X))


def _grad_f(prob, x):
    """Gradient of the global objective at x, as the T3 selection takes it."""
    return prob.at_shared(x)[1].mean(axis=0)


def _finite_diff(prob, X, h=1e-6):
    """Central differences of every agent's cost at its own row of X.  Agent
    i's cost reads only X[i], so one column perturbation of X gives every
    agent's partial derivative along that coordinate."""
    G = np.zeros_like(X)
    for j in range(X.shape[1]):
        E = np.zeros_like(X)
        E[:, j] = h
        G[:, j] = (_costs(prob, X + E) - _costs(prob, X - E)) / (2 * h)
    return G


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
        g = _grad_f(prob, x)
        if np.linalg.norm(g) <= 1e-12:
            break
        x = x - 0.9 / prob.ell * g
    assert np.linalg.norm(_grad_f(prob, x)) <= 1e-10
    assert prob.f(x) == pytest.approx(prob.f_star, abs=1e-8)
    np.testing.assert_allclose(x, prob.x_star, atol=1e-6)


def test_quadratic_gradient_examples():
    prob = make_quadratic(3, 4, seed=1)
    # stationary at the per-agent solution A_i x = b_i is not required, but
    # the global optimum has zero average gradient
    assert np.linalg.norm(_grad_f(prob, prob.x_star)) <= 1e-9
    X = np.zeros((3, 4))
    np.testing.assert_allclose(prob.stacked_gradients(X), _finite_diff(prob, X),
                               rtol=1e-4, atol=1e-7)


def test_nonconvex_value_at_origin():
    # logistic loss at the origin is log 2 regardless of the data
    prob = make_nonconvex(2, 3, seed=5, lam=0.0, m=4)
    assert _costs(prob, np.zeros((2, 3))) == pytest.approx([math.log(2.0)] * 2)


def test_nonconvex_loss_is_logaddexp_within_two_ulp():
    # one agent, one sample, no penalty: the cost at margin P is the loss itself
    prob = make_nonconvex(1, 1, seed=0, lam=0.0, m=1)
    grid = np.array([0.0, 1e-300, 1.0, 30.0, 709.0, 745.0, 1e300])
    P = np.concatenate([grid, -grid, np.linspace(-800.0, 800.0, 16001)])
    loss = prob.cost_from(np.zeros((P.size, 1, 1)), P[:, None, None])[:, 0]
    assert np.all(np.isfinite(loss)) and np.all(loss >= 0.0)
    np.testing.assert_array_max_ulp(loss, np.logaddexp(0.0, -P), maxulp=2)


@pytest.mark.parametrize("factory", [
    lambda: make_quadratic(3, 5, seed=7, condition_number=8.0),
    lambda: make_nonconvex(3, 5, seed=7),
])
def test_gradients_match_finite_differences(factory):
    prob = factory()
    rng = np.random.default_rng(2)
    for _ in range(10):
        X = rng.standard_normal((prob.n, prob.d))
        G = prob.stacked_gradients(X)
        Gd = _finite_diff(prob, X)
        denom = np.maximum(np.linalg.norm(Gd, axis=1), 1e-8)
        assert np.all(np.linalg.norm(G - Gd, axis=1) / denom <= 1e-4)


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
        X = rng.standard_normal((prob.n, prob.d)) * rng.uniform(0.1, 5, size=(prob.n, 1))
        Y = rng.standard_normal((prob.n, prob.d)) * rng.uniform(0.1, 5, size=(prob.n, 1))
        num = np.linalg.norm(prob.stacked_gradients(X) - prob.stacked_gradients(Y), axis=1)
        den = np.linalg.norm(X - Y, axis=1)
        apart = den > 1e-12
        worst = max(worst, float(np.max(num[apart] / den[apart], initial=0.0)))
    assert worst <= prob.ell * (1.0 + 1e-8)


def test_pl_certificate_quadratic():
    prob = make_quadratic(3, 4, seed=11, condition_number=10.0)
    rng = np.random.default_rng(6)
    for _ in range(1000):
        x = rng.standard_normal(4) * rng.uniform(0.1, 10)
        g = _grad_f(prob, x)
        gap = prob.f(x) - prob.f_star
        assert 0.5 * (g @ g) >= prob.pl_nu * gap * (1.0 - 1e-8)


def test_nonconvex_nonnegative_and_heterogeneous():
    prob = make_nonconvex(4, 3, seed=13)
    rng = np.random.default_rng(8)
    X = rng.standard_normal((10_000, 3)) * 3.0
    vals = np.array([prob.f(x) for x in X[:200]])
    assert np.all(vals >= 0.0)
    # every agent's cost at its own row of each stacked 4 x 3 block
    for block in X[200:].reshape(-1, 4, 3):
        assert np.all(_costs(prob, block) >= 0.0)
    # local gradients disagree at a common point
    G = prob.stacked_gradients(np.tile(X[0], (4, 1)))
    assert np.linalg.norm(G[0] - G[1]) > 1e-3


@pytest.mark.parametrize("family", ["quadratic", "nonconvex"])
@pytest.mark.parametrize("n", [1, 7, 8, 9, 33])
@pytest.mark.parametrize("d", [1, 7, 8, 9, 33])
def test_reductions_match_oracle_at_unrolled_sizes(family, n, d):
    # NumPy sums 8 or more elements in unrolled blocks; the per-agent forms
    # must agree bit for bit there too, not only on short rows
    make = make_quadratic if family == "quadratic" else make_nonconvex
    prob = make(n, d, seed=n * d)
    rng = np.random.default_rng(d)
    X = rng.standard_normal((n, d)) * 3.0
    x = X[0]
    for p in (1.0, 2.0, 3.0, np.inf):
        assert np.array_equal(pnorms(X, p), [oracle.pnorm(row, p) for row in X])
    assert prob.f(x) == oracle.f(prob, x)
    assert np.array_equal(prob.stacked_gradients(X), oracle.stacked_gradients(prob, X))
    # the shared-point oracle: costs and gradients from one residual, at one
    # point and at a stack of points, as f and the per-agent oracle give them
    costs, G = prob.at_shared(x)
    assert float(np.sum(costs)) / n == prob.f(x)
    assert np.array_equal(costs, [oracle.cost(prob, i, x) for i in range(n)])
    assert np.array_equal(G, [oracle.gradient(prob, i, x) for i in range(n)])
    assert np.array_equal(_grad_f(prob, x), oracle.grad_f(prob, x))
    points = rng.standard_normal((3, d)) * 3.0
    costs, G = prob.at_shared(points)
    assert costs.shape == (3, n) and G.shape == (3, n, d)
    for b, point in enumerate(points):
        assert np.sum(costs, axis=-1)[b] / n == prob.f(point)
        assert np.array_equal(G[b], [oracle.gradient(prob, i, point) for i in range(n)])
    # a (B, n, d) block: each n x d slice as on its own
    block = rng.standard_normal((3, n, d)) * 3.0
    for p in (1.0, 2.0, 3.0, np.inf):
        assert np.array_equal(pnorms(block, p),
                              [[oracle.pnorm(row, p) for row in Xb] for Xb in block])
    assert np.array_equal(_costs(prob, block),
                          [[oracle.cost(prob, i, Xb[i]) for i in range(n)] for Xb in block])
    assert np.array_equal(prob.stacked_gradients(block),
                          [oracle.stacked_gradients(prob, Xb) for Xb in block])


def _by_hand(n=6, d=5, m=3):
    """A family written by hand that broadcasts as a ProblemInstance needs:
    a per-agent residual plus a term on the point alone."""
    rng = np.random.default_rng(3)
    A, b = rng.standard_normal((n, m, d)), rng.standard_normal((n, m))
    At = A.transpose(0, 2, 1)
    return ProblemInstance(
        n=n, d=d, ell=1.0, f_low=-np.inf,
        residual=lambda X: (A @ X[..., None])[..., 0] - b,
        cost_from=lambda X, R: 0.5 * np.vecdot(R, R) + np.sum(np.cos(X), axis=-1),
        grad_from=lambda X, R: (At @ R[..., None])[..., 0] - np.sin(X))


@pytest.mark.parametrize("make", [_by_hand, lambda: make_quadratic(7, 9, seed=2),
                                  lambda: make_nonconvex(7, 9, seed=2)],
                         ids=["by_hand", "quadratic", "nonconvex"])
def test_shared_point_matches_the_point_tiled_to_n_rows(make):
    # the shared point reaches the family as one row; every agent's cost and
    # gradient, and f, are those of n copies of it, bit for bit
    prob = make()
    rng = np.random.default_rng(prob.n)
    for x in (rng.standard_normal(prob.d) * 3.0, rng.standard_normal((4, prob.d)) * 3.0):
        X = np.repeat(x[..., None, :], prob.n, axis=-2)
        costs, G = prob.at_shared(x)
        assert np.array_equal(costs, _costs(prob, X))
        assert np.array_equal(G, prob.stacked_gradients(X))
        for point, row in zip(np.atleast_2d(x), np.atleast_2d(_costs(prob, X))):
            assert prob.f(point) == float(np.sum(row)) / prob.n
