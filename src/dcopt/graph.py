"""Communication graphs as the operators the algorithm applies.

A graph gives the engine its size ``n``, its ``topology``, the eigenvalues
of the Laplacian L = D - A in ascending order, ``rho`` = lambda_n and
``rho2`` = lambda_2, and two products on a stacked n x d block:
``mix(Q) = L Q``, the neighbour exchange, and ``apply_F(W) = F W``, which
also takes a (B, n, d) stack of blocks.  F is the positive definite matrix
obtained from the eigendecomposition of L by replacing the zero eigenvalue
with lambda_2 and inverting.  With the centering projector
E = I - (1/n) 1 1^T, F satisfies F L = E and rho(L)^-1 I <= F <= rho_2(L)^-1 I.

The ring is circulant, so it needs no n x n matrix.  Its spectrum is the
closed form 2 - 2 cos(2 pi k / n), ``mix`` takes each agent's two neighbours
from shifted slices, and ``apply_F`` divides the real FFT along the agent
axis by the spectrum.  Every other topology holds its dense adjacency,
Laplacian and F (by ``eigh``), mixes as ``L @ Q`` and applies ``F @ W``.
Dense ``adjacency``, ``laplacian`` and ``F`` are readable on every graph;
a ring builds them when they are read.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import rng as _rng
from .errors import DisconnectedGraph, InvalidTopology, NumericalFailure

_EIG_RESIDUAL_TOL = 1e-10
_IDENTITY_TOL = 1e-10
# rho / rho2 of the ring on 400 agents: the ring's F L = E probe keeps
# _IDENTITY_TOL up to this condition number and scales with it beyond,
# because the FFT's error in F W grows with rho / rho2 (about n^2 / pi^2)
_RING_COND_REF = 1.0 / np.sin(np.pi / 400) ** 2
_ER_MAX_RESAMPLE = 100


@dataclass(frozen=True)
class NetworkGraph:
    """Immutable graph bundle: adjacency, Laplacian, F and spectral data,
    applied as dense products."""

    n: int
    adjacency: np.ndarray
    laplacian: np.ndarray
    eigenvalues: np.ndarray          # ascending, eigenvalues of L
    rho: float                       # spectral radius of L
    rho2: float                      # smallest positive eigenvalue of L
    F: np.ndarray
    topology: str = field(default="custom", compare=False)

    def mix(self, Q: np.ndarray) -> np.ndarray:
        """L Q."""
        return self.laplacian @ Q

    def apply_F(self, W: np.ndarray) -> np.ndarray:
        """F W, for each n x d block of W."""
        return self.F @ W


@dataclass(frozen=True)
class RingGraph:
    """The ring on n >= 3 agents as a circulant operator: it holds the
    spectrum and the inverse spectrum of the real FFT's modes, and no n x n
    array until ``adjacency``, ``laplacian`` or ``F`` is read."""

    n: int
    eigenvalues: np.ndarray          # ascending, eigenvalues of L
    rho: float
    rho2: float
    mode_inverse: np.ndarray = field(repr=False)   # 1 / lambda_k for rfft mode k, 0 at k = 0
    topology = "ring"

    def mix(self, Q: np.ndarray) -> np.ndarray:
        """L Q: row i is 2 q_i - q_{i-1} - q_{i+1} (indices mod n), rounded
        as (2 q_i - q_{i-1}) - q_{i+1}."""
        out = 2.0 * Q
        out[1:] -= Q[:-1]
        out[0] -= Q[-1]
        out[:-1] -= Q[1:]
        out[-1] -= Q[0]
        return out

    def apply_F(self, W: np.ndarray) -> np.ndarray:
        """F W for each n x d block of W: the pseudo-inverse of L by real FFT
        along the agent axis (axis -2), plus mean(W) / lambda_2 on the
        consensus direction."""
        return (np.fft.irfft(np.fft.rfft(W, axis=-2) * self.mode_inverse[:, None], n=self.n,
                             axis=-2)
                + W.mean(axis=-2, keepdims=True) / self.rho2)

    @cached_property
    def adjacency(self) -> np.ndarray:
        return _adjacency("ring", self.n, 0.0, 0, 0)

    @cached_property
    def laplacian(self) -> np.ndarray:
        return _laplacian(self.adjacency)

    @cached_property
    def F(self) -> np.ndarray:
        """The dense F by eigendecomposition, as for every other topology."""
        return from_adjacency(self.adjacency, topology="ring").F


def _adjacency(topology: str, n: int, prob: float, seed: int, attempt: int) -> np.ndarray:
    A = np.zeros((n, n))
    if topology == "ring":
        if n < 3:
            raise InvalidTopology(f"ring needs n >= 3, got {n}")
        i = np.arange(n)
        A[i, (i + 1) % n] = A[(i + 1) % n, i] = 1.0
    elif topology == "path":
        if n < 2:
            raise InvalidTopology(f"path needs n >= 2, got {n}")
        i = np.arange(n - 1)
        A[i, i + 1] = A[i + 1, i] = 1.0
    elif topology == "complete":
        if n < 2:
            raise InvalidTopology(f"complete needs n >= 2, got {n}")
        A = np.ones((n, n)) - np.eye(n)
    elif topology == "erdos_renyi":
        if n < 2:
            raise InvalidTopology(f"erdos_renyi needs n >= 2, got {n}")
        if not 0.0 < prob <= 1.0:
            raise InvalidTopology(f"erdos_renyi edge probability must be in (0,1], got {prob}")
        gen = _rng.substream(seed, _rng.GRAPH, tag=attempt)
        upper = gen.uniform(size=(n, n)) < prob
        A = np.triu(upper, k=1).astype(float)
        A = A + A.T
    else:
        raise InvalidTopology(f"unknown topology {topology!r}")
    return A


def _laplacian(A: np.ndarray) -> np.ndarray:
    return np.diag(A.sum(axis=1)) - A


def _assemble_F(L: np.ndarray, lam: np.ndarray, V: np.ndarray) -> np.ndarray:
    """F from the eigendecomposition L = V diag(lam) V^T, with lam[1] in place
    of the zero eigenvalue (any value in [lambda_2, lambda_n] works; lambda_2
    is deterministic), checked against F L = E."""
    n = L.shape[0]
    q = np.ones(n) / np.sqrt(n)
    Q = V[:, 1:]
    F = np.outer(q, q) / lam[1] + (Q * (1.0 / lam[1:])) @ Q.T
    F = 0.5 * (F + F.T)
    if np.max(np.abs(F @ L - (np.eye(n) - 1.0 / n))) > _IDENTITY_TOL:
        raise NumericalFailure("FL = E identity residual exceeds tolerance")
    return F


def from_adjacency(A: np.ndarray, topology: str = "custom") -> NetworkGraph:
    """Assemble a NetworkGraph from a symmetric nonnegative adjacency matrix
    of a connected graph on at least two agents."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or len(A) < 2:
        raise InvalidTopology(f"adjacency must be a square matrix over at least 2 agents, "
                              f"got shape {A.shape}")
    if not np.allclose(A, A.T) or (A < 0).any() or np.diag(A).any():
        raise InvalidTopology("adjacency must be symmetric, nonnegative, zero diagonal")

    L = _laplacian(A)
    lam, V = np.linalg.eigh(L)
    resid = np.max(np.abs(L @ V - V * lam))
    if resid > _EIG_RESIDUAL_TOL:
        raise NumericalFailure(f"eigendecomposition residual {resid:.3e} exceeds tolerance")
    rho2 = float(lam[1])
    rho = float(lam[-1])
    # lambda_2 is zero exactly when the graph is disconnected
    if rho2 <= 1e-9 * max(rho, 1.0):
        raise DisconnectedGraph("graph is not connected: lambda_2 of L is numerically zero")
    return NetworkGraph(n=len(A), adjacency=A, laplacian=L, eigenvalues=lam, rho=rho,
                        rho2=rho2, F=_assemble_F(L, lam, V), topology=topology)


def _ring_graph(n: int) -> RingGraph:
    """The ring on n >= 3 agents from its closed-form spectrum, checked
    against F L = E in operator form on one fixed random block."""
    if n < 3:
        raise InvalidTopology(f"ring needs n >= 3, got {n}")
    # lambda_k = 2 - 2 cos(2 pi k / n) for Fourier mode k, written as
    # 4 sin^2(pi k / n), which has no cancellation near k = 0
    lam = 4.0 * np.sin(np.pi * np.arange(n) / n) ** 2
    inverse = np.zeros(n // 2 + 1)
    inverse[1:] = 1.0 / lam[1:n // 2 + 1]
    eigenvalues = np.sort(lam)
    g = RingGraph(n=n, eigenvalues=eigenvalues, rho=float(eigenvalues[-1]),
                  rho2=float(eigenvalues[1]), mode_inverse=inverse)
    _check_ring(g)
    return g


def _check_ring(g: RingGraph) -> None:
    """Check F L = E in operator form on one fixed random n x 2 block, at a
    tolerance that grows with rho / rho2 past the ring on 400 agents."""
    W = np.random.default_rng(0).standard_normal((g.n, 2))
    tol = _IDENTITY_TOL * max(1.0, g.rho / g.rho2 / _RING_COND_REF)
    if np.max(np.abs(g.apply_F(g.mix(W)) - (W - W.mean(axis=0)))) > tol:
        raise NumericalFailure("FL = E identity residual exceeds tolerance")


def build_graph(topology: str, n: int, prob: float = 0.4, seed: int = 0):
    """Build a connected unit-weight graph of the requested topology: a
    ``RingGraph`` for the ring, a dense ``NetworkGraph`` for any other.

    For erdos_renyi the adjacency is resampled (up to 100 times) until a
    connected graph appears.
    """
    if topology == "ring":
        return _ring_graph(n)
    attempts = _ER_MAX_RESAMPLE if topology == "erdos_renyi" else 1
    last = None
    for attempt in range(attempts):
        A = _adjacency(topology, n, prob, seed, attempt)
        try:
            return from_adjacency(A, topology=topology)
        except DisconnectedGraph as exc:
            last = exc
    raise DisconnectedGraph(
        f"no connected graph after {attempts} attempts (topology={topology}, n={n})") from last
