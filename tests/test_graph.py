import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcopt import GeometricSchedule, HyperParams, UnbiasedKBit, build_graph, from_adjacency, run
from dcopt.errors import DisconnectedGraph, InvalidTopology, NumericalFailure
from dcopt.graph import _IDENTITY_TOL, RingGraph, _adjacency, _check_ring
from dcopt.problems import make_quadratic

EPS = np.finfo(float).eps


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


# Tolerances of the ring's operators against the dense eigh reference, with
# the largest deviation measured over 150 random draws (n in [3, 400], d in
# [1, 8], entries scaled by 1e-3 to 1e3):
# - mix rounds each row as (2 q_i - q_{i-1}) - q_{i+1}, BLAS as it sums:
#   16 eps of max|W| (measured 2.6 eps, 6x headroom);
# - F W by FFT and by the dense F both carry an error of about eps times the
#   condition number rho / rho_2 ~ n^2 / pi^2: 2e-11 of max|F W| (measured
#   2.8e-12 at n near 400, 7x headroom);
# - F L = E in operator form: the build-time tolerance of max|W| (measured
#   2.7e-13, 360x headroom);
# - the closed-form spectrum: 1e-13 absolute, rho <= 4 (measured 4.9e-15).
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(n=st.integers(3, 400), d=st.integers(1, 8), scale=st.floats(-3.0, 3.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_ring_operator_matches_dense_reference(n, d, scale, seed):
    g = build_graph("ring", n)
    dense = from_adjacency(_adjacency("ring", n, 0.0, 0, 0))
    W = np.random.default_rng(seed).standard_normal((n, d)) * 10.0 ** scale
    w_max = np.abs(W).max()
    assert np.abs(g.mix(W) - dense.laplacian @ W).max() <= 16 * EPS * w_max
    FW = dense.F @ W
    assert np.abs(g.apply_F(W) - FW).max() <= 2e-11 * np.abs(FW).max()
    assert np.abs(g.apply_F(g.mix(W)) - (W - W.mean(axis=0))).max() <= _IDENTITY_TOL * w_max
    # a stack of blocks gives each block's F W, bit for bit
    stack = np.stack([W, -W[::-1]])
    for graph in (g, dense):
        FWs = graph.apply_F(stack)
        assert np.array_equal(FWs[0], graph.apply_F(W))
        assert np.array_equal(FWs[1], graph.apply_F(-W[::-1]))
    lam = np.linalg.eigvalsh(dense.laplacian)
    assert np.abs(g.eigenvalues - lam).max() <= 1e-13
    assert abs(g.rho - lam[-1]) <= 1e-13 and abs(g.rho2 - lam[1]) <= 1e-13
    # the dense views of a ring are the ones every other topology holds
    np.testing.assert_array_equal(g.laplacian, dense.laplacian)
    np.testing.assert_array_equal(g.F, dense.F)


def test_ring_run_holds_no_dense_matrix():
    n, d = 2000, 2
    tracemalloc.start()
    try:
        g = build_graph("ring", n)
        hyper = HyperParams(alpha=0.05, beta=1.2, gamma=0.7, omega=1.0,
                            schedule=GeometricSchedule(1.0, 0.97))
        trace = run(make_quadratic(n, d, seed=1), g, UnbiasedKBit(3, seed=2), hyper, T=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(g, RingGraph) and trace.T == 3
    assert np.all(np.isfinite(trace.e2)) and np.all(np.isfinite(trace.final_state.y))
    # below one dense n x n float matrix, 32 MB
    assert peak < 8 * n * n
    assert all(np.size(value) < n * n for value in vars(g).values())


@pytest.mark.parametrize("n", [16_000, 20_000])
def test_large_rings_pass_the_operator_probe(n):
    # the probe's residual grows with rho / rho2 (1.0e-10 at n = 16,000,
    # 2.3e-10 at 20,000), and so does its tolerance past n = 400
    g = build_graph("ring", n)
    assert isinstance(g, RingGraph) and g.n == n


@pytest.mark.parametrize("n", [3, 400, 16_000, 20_000])
def test_ring_probe_refuses_a_perturbed_inverse(n):
    g = build_graph("ring", n)
    _check_ring(g)
    wrong = dataclasses.replace(g, mode_inverse=g.mode_inverse * (1.0 + 1e-6))
    with pytest.raises(NumericalFailure):
        _check_ring(wrong)
