"""Communication graphs and their Laplacian-derived matrices.

Builds undirected connected graphs with unit edge weights, the Laplacian
L = D - A, the centering projector E = I - (1/n) 1 1^T, and the positive
definite matrix F obtained from the eigendecomposition of L by replacing
the zero eigenvalue with a value lambda_np1 in [lambda_2, lambda_n] and
inverting.  F satisfies F L = E and rho(L)^-1 I <= F <= rho_2(L)^-1 I.
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
    lambda_np1: float
    E: np.ndarray
    F: np.ndarray
    topology: str = field(default="custom", compare=False)


def _adjacency(topology: str, n: int, prob: float, seed: int, attempt: int) -> np.ndarray:
    A = np.zeros((n, n))
    if topology == "ring":
        if n < 3:
            raise InvalidTopology(f"ring needs n >= 3, got {n}")
        for i in range(n):
            A[i, (i + 1) % n] = A[(i + 1) % n, i] = 1.0
    elif topology == "path":
        if n < 2:
            raise InvalidTopology(f"path needs n >= 2, got {n}")
        for i in range(n - 1):
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


def _is_connected(A: np.ndarray) -> bool:
    n = A.shape[0]
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        i = stack.pop()
        for j in np.nonzero(A[i])[0]:
            if not seen[j]:
                seen[j] = True
                stack.append(int(j))
    return bool(seen.all())


def _assemble_F(L: np.ndarray, lam: np.ndarray, V: np.ndarray, lambda_np1: float,
                E: np.ndarray) -> np.ndarray:
    """F from the eigendecomposition L = V diag(lam) V^T, checked against F L = E."""
    n = L.shape[0]
    q = np.ones(n) / np.sqrt(n)
    Q = V[:, 1:]
    F = np.outer(q, q) / lambda_np1 + Q @ np.diag(1.0 / lam[1:]) @ Q.T
    F = 0.5 * (F + F.T)
    if np.max(np.abs(F @ L - E)) > _IDENTITY_TOL:
        raise NumericalFailure("FL = E identity residual exceeds tolerance")
    return F


def from_adjacency(A: np.ndarray, topology: str = "custom") -> NetworkGraph:
    """Assemble a NetworkGraph from a symmetric nonnegative adjacency matrix."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or not np.allclose(A, A.T) or (A < 0).any() or np.diag(A).any():
        raise InvalidTopology("adjacency must be square, symmetric, nonnegative, zero diagonal")
    if not _is_connected(A):
        raise DisconnectedGraph("graph is not connected")

    L = np.diag(A.sum(axis=1)) - A
    lam, V = np.linalg.eigh(L)
    resid = np.max(np.abs(L @ V - V * lam))
    if resid > _EIG_RESIDUAL_TOL:
        raise NumericalFailure(f"eigendecomposition residual {resid:.3e} exceeds tolerance")
    rho2 = float(lam[1])
    rho = float(lam[-1])
    if rho2 <= 1e-9 * max(rho, 1.0):
        raise DisconnectedGraph("smallest positive Laplacian eigenvalue is numerically zero")

    lambda_np1 = rho2  # any value in [lambda_2, lambda_n] works; lambda_2 is deterministic
    E = np.eye(n) - np.ones((n, n)) / n
    F = _assemble_F(L, lam, V, lambda_np1, E)
    return NetworkGraph(n=n, adjacency=A, laplacian=L, eigenvalues=lam, rho=rho,
                        rho2=rho2, lambda_np1=lambda_np1, E=E, F=F, topology=topology)


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


def build_F(graph: NetworkGraph, lambda_np1: float | None = None) -> np.ndarray:
    """Recompute F for a given lambda_np1 in [lambda_2, lambda_n]."""
    if lambda_np1 is None:
        lambda_np1 = graph.rho2
    if not graph.rho2 - 1e-12 <= lambda_np1 <= graph.rho + 1e-12:
        raise NumericalFailure(f"lambda_np1={lambda_np1} outside [{graph.rho2}, {graph.rho}]")
    _, V = np.linalg.eigh(graph.laplacian)
    return _assemble_F(graph.laplacian, graph.eigenvalues, V, lambda_np1, graph.E)
