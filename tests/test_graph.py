import numpy as np
import pytest

from dcopt import build_graph, from_adjacency
from dcopt.errors import DisconnectedGraph, InvalidTopology


def test_path3_laplacian_and_spectrum():
    g = build_graph("path", 3)
    expected_L = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    np.testing.assert_allclose(g.laplacian, expected_L)
    # eigendecomposition oracle on the 3x3 matrix
    lam = np.sort(np.linalg.eigvalsh(expected_L))
    assert abs(g.rho2 - lam[1]) < 1e-12
    assert abs(g.rho - lam[2]) < 1e-12
    assert abs(g.rho2 - 1.0) < 1e-12
    assert abs(g.rho - 3.0) < 1e-12


def test_ring4_spectrum_closed_form():
    g = build_graph("ring", 4)
    # ring spectrum: 2 - 2 cos(2 pi k / n)
    expected = np.sort([2.0 - 2.0 * np.cos(2.0 * np.pi * k / 4) for k in range(4)])
    np.testing.assert_allclose(np.sort(g.eigenvalues), expected, atol=1e-9)
    assert abs(g.rho2 - 2.0) < 1e-9
    assert abs(g.rho - 4.0) < 1e-9


def test_complete2():
    g = build_graph("complete", 2)
    np.testing.assert_allclose(g.laplacian, [[1.0, -1.0], [-1.0, 1.0]])
    assert abs(g.rho2 - 2.0) < 1e-12 and abs(g.rho - 2.0) < 1e-12
    # hand eigendecomposition: q = 1/sqrt(2), lambda_2 = 2 gives F = I/2
    np.testing.assert_allclose(g.F, 0.5 * np.eye(2), atol=1e-12)


@pytest.mark.parametrize("topology,n", [("path", 3), ("ring", 5), ("complete", 4),
                                        ("erdos_renyi", 9)])
def test_matrix_identities(topology, n):
    g = build_graph(topology, n, prob=0.5, seed=11)
    L, F = g.laplacian, g.F
    E = np.eye(n) - 1.0 / n
    assert np.abs(F @ L - E).max() <= 1e-10
    assert np.abs(E @ L - L).max() <= 1e-10
    assert np.abs(L @ np.ones(n)).max() <= 1e-12
    lam = g.eigenvalues
    assert abs(lam[0]) < 1e-9 and np.all(np.diff(lam) >= -1e-9)
    w = np.linalg.eigvalsh(F)
    assert w[0] >= 1.0 / g.rho - 1e-9 and w[-1] <= 1.0 / g.rho2 + 1e-9
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.standard_normal(n)
        qE = x @ E @ x
        qL = x @ L @ x
        scale = max(abs(qL), 1.0)
        assert g.rho2 * qE <= qL + 1e-8 * scale
        assert qL <= g.rho * qE + 1e-8 * scale
        y = rng.standard_normal(n)
        assert y @ F @ y > 0.0


def test_erdos_renyi_deterministic_and_connected():
    g1 = build_graph("erdos_renyi", 12, prob=0.3, seed=5)
    g2 = build_graph("erdos_renyi", 12, prob=0.3, seed=5)
    np.testing.assert_array_equal(g1.adjacency, g2.adjacency)
    assert g1.rho2 > 0


def test_rejections():
    with pytest.raises(InvalidTopology):
        build_graph("ring", 2)
    with pytest.raises(InvalidTopology):
        build_graph("mesh", 4)
    with pytest.raises(DisconnectedGraph):
        from_adjacency(np.array([[0.0, 1.0, 0.0, 0.0],
                                 [1.0, 0.0, 0.0, 0.0],
                                 [0.0, 0.0, 0.0, 1.0],
                                 [0.0, 0.0, 1.0, 0.0]]))
    with pytest.raises(DisconnectedGraph):
        build_graph("erdos_renyi", 30, prob=0.01, seed=1)
    # no spectral gap to read below two agents
    for A in (np.zeros((1, 1)), np.zeros((0, 0)), np.zeros(3)):
        with pytest.raises(InvalidTopology):
            from_adjacency(A)
