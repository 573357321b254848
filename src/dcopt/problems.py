"""Cost-function suites with certified smoothness constants.

Two families cover the assumptions needed by the simulator:

* quadratic least squares, f_i(x) = 0.5 ||A_i x - b_i||^2 — smooth, lower
  bounded by 0, and gradient dominated with nu = smallest positive
  eigenvalue of the average normal matrix; the optimum is known in closed
  form from the normal equations.

* regularized logistic loss with a smooth nonconvex penalty,
  f_i(x) = (1/m) sum_j log(1 + exp(-y_ij a_ij^T x)) + lam * sum_l x_l^2/(1+x_l^2)
  — smooth and nonnegative but not gradient dominated.

Per-agent data are drawn independently, so local gradients disagree at the
optimum (a genuinely heterogeneous instance).
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import rng as _rng
from .errors import SingularSystem


@dataclass
class ProblemInstance:
    """Bundle of n local costs with batched oracles and certificates.

    A family states its costs and gradients through one per-agent residual:
    ``residual(X)``, then ``cost_from(X, R)`` and ``grad_from(X, R)``, where
    row i of X is agent i's point.  X may carry leading batch axes, shape
    (..., n, d).  A point shared by every agent reaches the family as one
    (..., 1, d) row, which the agents' data and residuals must broadcast
    against, so that work on the point alone is done once.  The step reads
    ``stacked_gradients``, the record ``at_shared`` and the optimal value ``f``.
    """

    n: int
    d: int
    ell: float                       # certified smoothness constant
    f_low: float                     # known lower bound on f*
    residual: Callable               # X -> per-agent residuals R
    cost_from: Callable              # (X, R) -> costs, one per agent
    grad_from: Callable              # (X, R) -> gradients, one per agent
    pl_nu: float | None = None       # gradient-domination constant, if certified
    f_star: float | None = None      # exact optimal value, if known
    x_star: np.ndarray | None = None
    family: str = "custom"
    meta: dict = field(default_factory=dict)
    data: dict = field(default_factory=dict)   # stacked per-agent arrays

    def _shared(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float)[..., None, :]

    def stacked_gradients(self, X: np.ndarray) -> np.ndarray:
        """Agent i's gradient at X[..., i, :], for every agent."""
        return self.grad_from(X, self.residual(X))

    def at_shared(self, x: np.ndarray) -> tuple:
        """(costs, gradients) of every agent at a shared point x of shape
        (..., d): shapes (..., n) and (..., n, d), from one residual."""
        X = self._shared(x)
        R = self.residual(X)
        return self.cost_from(X, R), self.grad_from(X, R)

    def f(self, x: np.ndarray) -> float:
        """Global objective (1/n) sum_i f_i(x); costs only."""
        X = self._shared(x)
        return float(np.sum(self.cost_from(X, self.residual(X)))) / self.n


def _matvec(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Row j is M[j] @ X[..., j, :].  Stacked matmul matches the per-agent
    product bit for bit; einsum does not."""
    return (M @ X[..., None])[..., 0]


def make_quadratic(n: int, d: int, seed: int = 0,
                   condition_number: float = 10.0) -> ProblemInstance:
    """Least-squares instance with controlled per-agent spectra.

    Each A_i is d x d with singular values log-spaced in
    [1/sqrt(condition_number), 1], so ell = max_i rho(A_i^T A_i) = 1.
    """
    if n < 1 or d < 1 or condition_number < 1:
        raise SingularSystem(f"need n, d >= 1 and condition_number >= 1")
    gen = _rng.substream(seed, _rng.PROBLEM, 0)
    sigmas = np.logspace(-0.5 * np.log10(condition_number), 0.0, d)
    # one row per agent: its U and V draws, then its local solution
    draws = gen.standard_normal((n, 2 * d * d + d))
    U, _ = np.linalg.qr(draws[:, :d * d].reshape(n, d, d))
    V, _ = np.linalg.qr(draws[:, d * d:2 * d * d].reshape(n, d, d))
    A = (U * sigmas) @ V.transpose(0, 2, 1)
    b = _matvec(A, draws[:, 2 * d * d:])

    H = np.einsum("ikj,ikl->jl", A, A) / n          # (1/n) sum A_i^T A_i
    rhs = np.einsum("ikj,ik->j", A, b) / n
    eigs = np.linalg.eigvalsh(H)
    if eigs[-1] <= 0 or eigs[0] <= 1e-12 * eigs[-1]:
        raise SingularSystem(f"aggregate normal matrix is rank deficient: eigenvalue ratio "
                             f"{eigs[0] / eigs[-1]:.3g} is not above 1e-12")
    x_star = np.linalg.solve(H, rhs)

    ell = float(np.linalg.eigvalsh(A.transpose(0, 2, 1) @ A)[:, -1].max())
    nu = float(eigs[eigs > 1e-12 * eigs[-1]][0])

    def residual(X):
        return _matvec(A, X) - b

    def costs(X, R):
        return 0.5 * np.vecdot(R, R)

    def grads(X, R):
        return _matvec(A.transpose(0, 2, 1), R)

    prob = ProblemInstance(n=n, d=d, ell=ell, f_low=0.0, residual=residual, cost_from=costs,
                           grad_from=grads, pl_nu=nu, family="quadratic",
                           meta={"condition_number": condition_number, "seed": seed},
                           data={"A": A, "b": b})
    prob.x_star = x_star
    prob.f_star = prob.f(x_star)
    return prob


def make_nonconvex(n: int, d: int, seed: int = 0, lam: float = 0.1,
                   m: int = 20) -> ProblemInstance:
    """Heterogeneous regularized logistic instance (smooth, nonconvex, f >= 0).

    Rows are rescaled so rho((1/m) A_i^T A_i) = 1, giving the certified
    ell = 1/4 + 2 * lam.
    """
    if n < 1 or d < 1 or m < 1 or lam < 0:
        raise SingularSystem("need n, d, m >= 1 and lam >= 0")
    ell = 0.25 + 2.0 * lam
    if not np.isfinite(ell):
        raise SingularSystem(f"need a finite ell = 1/4 + 2 lam, got lam = {lam}")
    gen = _rng.substream(seed, _rng.PROBLEM, 1)
    A = gen.standard_normal((n, m, d))
    # A_i^T A_i and A_i A_i^T share their top eigenvalue; use the smaller one
    gram = A @ A.transpose(0, 2, 1) if m < d else A.transpose(0, 2, 1) @ A
    A /= np.sqrt(np.linalg.eigvalsh(gram / m)[:, -1])[:, None, None]
    # one row per agent: its d weights, then its m label-noise draws
    draws = gen.standard_normal((n, d + m))
    y = np.where(_matvec(A, draws[:, :d]) + 0.3 * draws[:, d:] >= 0, 1.0, -1.0)

    At = A.transpose(0, 2, 1)

    # the margins P = y a^T x; the loss reads -P, and a sign flip is exact
    def margins(X):
        return y * _matvec(A, X)

    def costs(X, P):
        # log(1 + exp(-P)) in the stable form of logaddexp(0, -P), within 2 ulp
        # of it, on NumPy's vectorized exp and log1p instead of a scalar loop
        loss = np.maximum(-P, 0.0) + np.log1p(np.exp(-np.abs(P)))
        logistic = np.mean(loss, axis=-1)
        # x^2 / (1 + x^2) <= 1 reads inf / inf once x^2 overflows; fmin takes the 1
        return logistic + lam * np.sum(np.fmin(X * X / (1.0 + X * X), 1.0), axis=-1)

    def grads(X, P):
        sig = 1.0 / (1.0 + np.exp(P))
        G = _matvec(At, y * sig) / -m
        return G + lam * 2.0 * X / (1.0 + X * X) ** 2

    return ProblemInstance(n=n, d=d, ell=ell, f_low=0.0, residual=margins, cost_from=costs,
                           grad_from=grads, family="nonconvex",
                           meta={"lam": lam, "m": m, "seed": seed},
                           data={"A": A, "y": y})

