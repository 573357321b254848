"""Communication graphs and their Laplacian-derived matrices.

Builds undirected connected graphs with unit edge weights, the Laplacian
L = D - A, and the positive definite matrix F obtained from the
eigendecomposition of L by replacing the zero eigenvalue with lambda_2 and
inverting.  With the centering projector E = I - (1/n) 1 1^T, F satisfies
F L = E and rho(L)^-1 I <= F <= rho_2(L)^-1 I.
"""

from dataclasses import dataclass, field

import numpy as np

from . import rng as _rng
from .errors import DisconnectedGraph, InvalidTopology, NumericalFailure

_EIG_RESIDUAL_TOL = 1e-10
_IDENTITY_TOL = 1e-10
_ER_MAX_RESAMPLE = 100


@dataclass(frozen=True)
class NetworkGraph:
    """Immutable graph bundle: adjacency, Laplacian and spectral data."""

    n: int
    adjacency: np.ndarray
    laplacian: np.ndarray
    eigenvalues: np.ndarray          # ascending, eigenvalues of L
    rho: float                       # spectral radius of L
    rho2: float                      # smallest positive eigenvalue of L
    F: np.ndarray
    topology: str = field(default="custom", compare=False)


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
    return NetworkGraph(n=len(A), adjacency=A, laplacian=L, eigenvalues=lam, rho=rho,
                        rho2=rho2, F=_assemble_F(L, lam, V), topology=topology)


def build_graph(topology: str, n: int, prob: float = 0.4, seed: int = 0) -> NetworkGraph:
    """Build a connected unit-weight graph of the requested topology.

    For erdos_renyi the adjacency is resampled (up to 100 times) until a
    connected graph appears.
    """
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
