"""Communication graphs as the operators the algorithm applies.

A ``Graph`` is what the engine and the analysis read: its size ``n``, its
``topology``, ``rho`` = lambda_n and ``rho2`` = lambda_2 of the Laplacian
L = D - A, and two products along axis -2 of an (..., n, d) stack of blocks:
``mix(Q) = L Q``, the neighbour exchange, and ``apply_F(W) = F W``.  F is the
positive definite V diag(1 / lambda') V^T, where L = V diag(lambda) V^T and
lambda' is lambda with lambda_2 in place of the zero eigenvalue.  With the
centering projector E = I - (1/n) 1 1^T, F satisfies F L = E and
rho(L)^-1 I <= F <= rho_2(L)^-1 I.

The operators are built per topology.  The ring is circulant: its spectrum is
the closed form 2 - 2 cos(2 pi k / n), ``mix`` takes each agent's two
neighbours from shifted slices, and ``apply_F`` divides the real FFT along the
agent axis by the spectrum, lambda_2 standing in at mode 0, so it holds no
n x n array and F's consensus direction is one more mode.  The complete graph
has L = n I - 1 1^T = n E, so rho = rho2 = n and F = I / n: it holds L alone
and needs no eigendecomposition.  Every other graph comes from its adjacency
through ``from_adjacency``, which builds F in one product from the whole
eigendecomposition that ``eigh`` returns and applies L and F as dense
products.  Every graph is checked against F L = E in operator form as it is
built.  The dense ``laplacian`` is the one view derived from the operators,
``mix`` applied to the identity; nothing under ``src`` reads it.
``[graph] topology`` takes one of ``TOPOLOGIES``, the topologies
``build_graph`` builds, checked as a config loads.
"""

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from . import rng as _rng
from .errors import DisconnectedGraph, InvalidTopology, NumericalFailure

_EIG_RESIDUAL_TOL = 1e-10
_IDENTITY_TOL = 1e-10
# rho / rho2 of the ring on 400 agents: the operator F L = E probe keeps
# _IDENTITY_TOL up to this condition number and scales with it beyond,
# because the error in F W grows with rho / rho2 (about n^2 / pi^2 on the ring)
_RING_COND_REF = 1.0 / np.sin(np.pi / 400) ** 2
_ER_MAX_RESAMPLE = 100

TOPOLOGIES = {"ring": 3, "path": 2, "complete": 2, "erdos_renyi": 2}
"""Each topology ``build_graph`` builds, with the fewest agents it is defined on."""


@dataclass(frozen=True)
class Graph:
    """A connected graph on n agents as its spectral bounds and its two
    operators, each applied along axis -2 of an (..., n, d) stack."""

    n: int
    topology: str
    rho: float                       # spectral radius of L
    rho2: float                      # smallest positive eigenvalue of L
    mix: Callable = field(repr=False)        # Q -> L Q
    apply_F: Callable = field(repr=False)    # W -> F W

    # perfbench/workloads.py is its last reader; ROADMAP item 1 removes it
    @cached_property
    def laplacian(self) -> np.ndarray:
        return self.mix(np.eye(self.n))


def from_adjacency(A: np.ndarray, topology: str = "custom") -> Graph:
    """The graph of a symmetric nonnegative adjacency matrix of a connected
    graph on at least two agents, applying its own dense L and F, built from
    the whole eigendecomposition of L and checked by ``_check_operators``."""
    A = np.array(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or len(A) < 2:
        raise InvalidTopology(f"adjacency must be a square matrix over at least 2 agents, "
                              f"got shape {A.shape}")
    if not np.allclose(A, A.T) or (A < 0).any() or np.diag(A).any():
        raise InvalidTopology("adjacency must be symmetric, nonnegative, zero diagonal")

    L = np.diag(A.sum(axis=1)) - A
    lam, V = np.linalg.eigh(L)
    resid = np.max(np.abs(L @ V - V * lam))
    if resid > _EIG_RESIDUAL_TOL:
        raise NumericalFailure(f"eigendecomposition residual {resid:.3e} exceeds tolerance")
    rho2 = float(lam[1])
    rho = float(lam[-1])
    # lambda_2 is zero exactly when the graph is disconnected
    if rho2 <= 1e-9 * max(rho, 1.0):
        raise DisconnectedGraph("graph is not connected: lambda_2 of L is numerically zero")
    # any value in [lambda_2, lambda_n] would do in place of the zero eigenvalue
    F = (V / np.concatenate([[rho2], lam[1:]])) @ V.T
    F = 0.5 * (F + F.T)
    return _check_operators(Graph(len(A), topology, rho, rho2, partial(np.matmul, L),
                                  partial(np.matmul, F)))


def _ring_mix(Q: np.ndarray) -> np.ndarray:
    """L Q on the ring: row i is 2 q_i - q_{i-1} - q_{i+1} (indices mod n),
    rounded as (2 q_i - q_{i-1}) - q_{i+1}."""
    out = 2.0 * Q
    out[..., 1:, :] -= Q[..., :-1, :]
    out[..., 0, :] -= Q[..., -1, :]
    out[..., :-1, :] -= Q[..., 1:, :]
    out[..., -1, :] -= Q[..., 0, :]
    return out


def _ring(n: int) -> Graph:
    """The ring on n >= 3 agents from its closed-form spectrum."""
    # lambda_k = 2 - 2 cos(2 pi k / n) for Fourier mode k, written as
    # 4 sin^2(pi k / n), which has no cancellation near k = 0
    lam = 4.0 * np.sin(np.pi * np.arange(n) / n) ** 2
    rho, rho2 = float(lam.max()), float(lam[1:].min())
    # 1 / lambda_k for rfft mode k, with lambda_2 in place of the zero eigenvalue
    inverse = 1.0 / np.concatenate([[rho2], lam[1:n // 2 + 1]])

    def apply_F(W: np.ndarray) -> np.ndarray:
        """F W by real FFT along the agent axis: each mode divided by its eigenvalue."""
        return np.fft.irfft(np.fft.rfft(W, axis=-2) * inverse[:, None], n=n, axis=-2)

    return Graph(n, "ring", rho, rho2, _ring_mix, apply_F)


def _complete(n: int) -> Graph:
    """The complete graph on n >= 2 agents: L = n I - 1 1^T = n E has
    lambda_2 = lambda_n = n, and n in place of the zero eigenvalue gives F = I / n."""
    L = np.full((n, n), -1.0)
    np.fill_diagonal(L, n - 1.0)
    return Graph(n, "complete", float(n), float(n), partial(np.matmul, L),
                 partial(np.multiply, 1.0 / n))


def _check_operators(g: Graph) -> Graph:
    """Return g once F L = E holds in operator form on one fixed random n x 2
    block, at a tolerance that grows with rho / rho2 past the ring on 400 agents."""
    W = np.random.default_rng(0).standard_normal((g.n, 2))
    tol = _IDENTITY_TOL * max(1.0, g.rho / g.rho2 / _RING_COND_REF)
    if np.max(np.abs(g.apply_F(g.mix(W)) - (W - W.mean(axis=0)))) > tol:
        raise NumericalFailure("FL = E identity residual exceeds tolerance")
    return g


def build_graph(topology: str, n: int, prob: float = 0.4, seed: int = 0) -> Graph:
    """Build a connected unit-weight graph of the requested topology: the ring
    and the complete graph in closed form, and any other through
    ``from_adjacency``, each checked in operator form.

    It refuses a topology, or an n, that ``TOPOLOGIES`` does not allow.  The
    Erdos-Renyi adjacency is resampled (up to 100 times) until it is connected.
    """
    if topology not in TOPOLOGIES:
        raise InvalidTopology(f"unknown topology {topology!r}")
    if n < TOPOLOGIES[topology]:
        raise InvalidTopology(f"{topology} needs n >= {TOPOLOGIES[topology]}, got {n}")
    if topology in ("ring", "complete"):
        return _check_operators(_ring(n) if topology == "ring" else _complete(n))
    if topology == "path":
        return from_adjacency(np.eye(n, k=1) + np.eye(n, k=-1), topology=topology)
    if not 0.0 < prob <= 1.0:
        raise InvalidTopology(f"erdos_renyi edge probability must be in (0,1], got {prob}")
    last = None
    for attempt in range(_ER_MAX_RESAMPLE):
        gen = _rng.substream(seed, _rng.GRAPH, tag=attempt)
        A = np.triu(gen.random((n, n)) < prob, k=1).astype(float)
        try:
            return from_adjacency(A + A.T, topology=topology)
        except DisconnectedGraph as exc:
            last = exc
    raise DisconnectedGraph(f"no connected graph after {_ER_MAX_RESAMPLE} attempts "
                            f"(topology={topology}, n={n})") from last
