import dataclasses
import math
import re

import numpy as np
import pytest

import oracle
from dcopt import compressors as comp
from dcopt import config, rng
from dcopt.errors import DimensionMismatch, IncompatibleContracts, OutOfRange


def test_one_bit_example():
    (q,), bits = comp.OneBit(1.0).apply(np.array([[0.3, -0.2, 0.0]]))
    np.testing.assert_allclose(q, [0.5, -0.5, 0.5])   # tie at 0 takes + branch
    assert bits == 3


def test_sat_quant_example():
    (q,), bits = comp.SaturatingQuantizer(2.0, 1.0).apply(np.array([[0.6, 5.0]]))
    np.testing.assert_allclose(q, [1.0, 2.0])
    assert bits == 2 * math.ceil(math.log2(2 + 2 + 1))
    assert bits == 6


def test_top_k_example():
    (q,), bits = comp.TopK(1).apply(np.array([[3.0, -1.0, 2.0]]))
    np.testing.assert_allclose(q, [3.0, 0.0, 0.0])
    assert bits == 32


def test_norm_sign_example():
    (q,), bits = comp.NormSign().apply(np.array([[2.0, -1.0]]))
    np.testing.assert_allclose(q, [1.0, -1.0])
    assert bits == 2 + 32


def test_zero_input():
    z = np.zeros(4)
    for c in (comp.SaturatingQuantizer(2.0, 0.5), comp.TopK(2), comp.NormSign(),
              comp.UnbiasedKBit(3), comp.Scalarization(), comp.UniformQuantizer(0.5),
              comp.Identity()):
        (q,), bits = c.apply(z[None])
        np.testing.assert_allclose(q, 0.0)
        assert bits >= 1
    # one-bit still emits the + level on zeros
    (q,), bits = comp.OneBit(2.0).apply(z[None])
    np.testing.assert_allclose(q, 1.0)
    assert bits == 4
    # uniform quantizer charges the 1-bit floor on tiny inputs
    assert comp.UniformQuantizer(1.0).apply(np.array([[0.2, -0.3]]))[1] == 2
    # signed zeros and the least subnormals take the sign np.where(x >= 0, 1, -1)
    # gives them: ties at +-0.0 go to +1, value and sign bit
    edge = np.array([-0.0, 0.0, 5e-324, -5e-324, 1.0])
    for c, want in ((comp.OneBit(2.0), [1.0, 1.0, 1.0, -1.0, 1.0]),
                    (comp.NormSign(), [0.5, 0.5, 0.5, -0.5, 0.5]),
                    (comp.UnbiasedKBit(3, seed=4), [0.0, 0.0, 0.0, -0.0, 1.0])):
        (q,), _ = c.apply(edge[None])
        assert np.array_equal(q, want) and np.array_equal(np.signbit(q), np.signbit(want))


@pytest.mark.parametrize("c", [comp.UnbiasedKBit(3, seed=4), comp.NormSign()])
def test_zero_row_compresses_to_positive_zero(c):
    # -0.0 entries included: the output carries no sign bit, alone or in a round
    z = np.array([0.0, -0.0, 0.0, -0.0])
    U = np.stack([np.linspace(-1.0, 2.0, 4), z, -np.zeros(4)])
    Q, _ = c.apply(U, 5)
    (q,), _ = c.apply(z[None], 5)
    for row in (Q[1], Q[2], q):
        assert np.all(row == 0.0) and not np.any(np.signbit(row))
    assert np.any(Q[0] != 0.0)


def test_one_bit_error_bound():
    level = 1.5
    c = comp.OneBit(level)
    rng = np.random.default_rng(3)
    X = rng.uniform(-level, level, size=(10_000, 5))
    X = np.vstack([X, np.full((1, 5), level), np.full((1, 5), -level), np.zeros((1, 5))])
    Q, _ = c._apply(X, rng, X.shape)
    assert np.abs(Q - X).max() <= level / 2 + 1e-15


def test_sat_quant_region_and_range():
    # non-integer level/step ratio: saturation levels are asymmetric
    c = comp.SaturatingQuantizer(2.5, 1.0)
    rng = np.random.default_rng(4)
    lo, hi = math.floor(-2.5) * 1.0, math.floor(2.5) * 1.0
    X = rng.uniform(-8, 8, size=(5000, 3))
    Q, _ = c._apply(X, rng, X.shape)
    assert Q.min() >= lo - 1e-12 and Q.max() <= hi + 1e-12
    # inside the unsaturated region the rounding error is at most step/2
    region = math.floor(2.5 / 1.0) * 1.0 + 0.5
    Xin = rng.uniform(-region, region, size=(5000, 3))
    Qin, _ = c._apply(Xin, rng, Xin.shape)
    assert np.abs(Qin - Xin).max() <= 0.5 + 1e-12


def test_top_k_squared_inequality():
    c = comp.TopK(2)
    rng = np.random.default_rng(5)
    for _ in range(500):
        x = rng.standard_normal(6) * rng.uniform(0.1, 10)
        (q,), _ = c.apply(x[None])
        assert q @ q <= x @ x + 1e-12
        err = q - x
        assert err @ err <= (1 - 2 / 6) * (x @ x) + 1e-12


def test_unbiased_kbit_is_unbiased():
    c = comp.UnbiasedKBit(3, seed=7)
    x = np.array([0.7, -1.3, 0.2, 2.1, 0.0])
    gen = np.random.default_rng(0)
    draws, _ = c._apply(x[None], gen, (100_000, 5))
    mean = draws.mean(axis=0)
    se = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
    # absolute headroom covers summation rounding on zero-variance coordinates
    assert np.all(np.abs(mean - x) <= 4 * se + 1e-9)


@pytest.mark.parametrize("make,mean_factor", [
    (lambda: comp.UnbiasedKBit(2, seed=3), 1.0),
    (lambda: comp.Noisy(comp.UnbiasedKBit(2, seed=3), 0.5), 1.0),
    (lambda: comp.RandK(2, seed=3), 2 / 5),
], ids=["unbiased_kbit", "noisy_unbiased_kbit", "rand_k"])
def test_round_rows_are_unbiased_and_independent(make, mean_factor):
    c = make()
    x = np.array([0.7, -1.3, 0.2, 2.1, -0.4])
    rounds = 4000
    # every row of a round has the same input; rows >= 1 must be as good as row 0
    Q = np.stack([c.apply(np.tile(x, (4, 1)), k)[0] for k in range(rounds)])
    mean = Q.mean(axis=0)
    se = Q.std(axis=0, ddof=1) / math.sqrt(rounds)
    # absolute headroom covers summation rounding on zero-variance coordinates
    assert np.all(np.abs(mean - mean_factor * x) <= 4 * se + 1e-9)
    # equal inputs, separate draws: row 1 does not reuse row 0's randomness
    assert not np.array_equal(Q[:, 1], Q[:, 0])


def test_scalarization_direction_moments():
    # on U = I a round returns psi psi^T, whose mean over rounds is I/d
    c = comp.Scalarization(seed=9)
    d, rounds = 4, 10_000
    outer = sum(c.apply(np.eye(d), k)[0] for k in range(rounds)) / rounds
    se = 1.0 / math.sqrt(rounds)
    assert np.abs(outer - np.eye(d) / d).max() <= 4 * se
    # shared direction: identical for all agents at an iteration, varies with k
    U = np.tile([0.7, -1.3, 0.2, 2.1], (3, 1))
    Q = c.apply(U, 3)[0]
    np.testing.assert_array_equal(Q, np.tile(Q[0], (3, 1)))
    np.testing.assert_array_equal(Q, c.apply(U, 3)[0])
    assert not np.array_equal(Q, c.apply(U, 4)[0])


def test_scalarization_round_draws_its_direction_first(monkeypatch):
    # a round builds one generator, and its shared direction is the first draw
    built = []
    substream = rng.substream
    monkeypatch.setattr(rng, "substream", lambda *key: built.append(key) or substream(*key))
    s, k, d = 7, 5, 6
    U = np.random.default_rng(0).standard_normal((4, d))
    Q, _ = comp.Scalarization(seed=s).apply(U, k)
    assert built == [(s, rng.COMPRESSOR, 0, k)]
    psi = rng.sphere_point(substream(s, rng.COMPRESSOR, 0, k), d)
    for j in range(len(U)):
        np.testing.assert_array_equal(Q[j], psi * float(psi @ U[j]))


def _sent_index(x, step):
    # the largest index magnitude the midtread kernel sends for x
    return max(abs(math.floor(float(v) / step + 0.5)) for v in x)


def test_uniform_quant_bits_depend_on_input():
    c = comp.UniformQuantizer(0.5)
    x = np.array([3.3, -0.2, 1.0])
    _, bits = c.apply(x[None])
    levels = 2 * _sent_index(x, 0.5) + 1
    assert bits == 3 * max(1, math.ceil(math.log2(levels)))
    # a block is charged row by row, in integers: ceil(log2(2q + 1)) is the
    # bit length of 2q, also where a float log2 of 2q + 1 would round down
    X = np.array([[0.0, 0.0, 0.0], [3.3, -0.2, 1.0], [2.0 ** 59, 0.0, -1.0]])
    qs = [_sent_index(row, 0.5) for row in X]
    assert c.bits(X) == sum(3 * max(1, (2 * q).bit_length()) for q in qs) == 3 + 12 + 186


@pytest.mark.parametrize("x, sent, per_coordinate", [
    ([0.6, 0.1], 1, 2),      # max |x| rounds up into the next index
    ([1.6, 0.0], 2, 3),
    ([3.6, 0.0], 4, 4),
    ([-0.6], -1, 2),
    ([0.0, 0.0], 0, 1),
])
def test_uniform_quant_charges_the_index_it_sends(x, sent, per_coordinate):
    x = np.array(x)
    (q,), bits = comp.UniformQuantizer(1.0).apply(x[None])
    assert q[np.argmax(np.abs(q))] == sent
    assert bits == per_coordinate * x.size


def test_unbiased_kbit_bits():
    assert comp.UnbiasedKBit(4).apply(np.ones((1, 6)))[1] == (4 + 1) * 6 + 32
    assert comp.RandK(2, seed=0).apply(np.ones((1, 6)))[1] == 2 * 32
    assert comp.Scalarization(seed=0).apply(np.ones((1, 6)))[1] == 32


def test_determinism_and_stream_separation():
    c = comp.UnbiasedKBit(2, seed=42)
    # every coordinate but the largest is dithered: 0.3 scales to 0.6, which
    # rounds up with probability 0.6, so two rounds agree w.p. 0.52 ** 32
    x = np.r_[1.0, np.tile([0.3, -0.3], 16)]
    (q1,), b1 = c.apply(x[None], 5)
    (q2,), b2 = c.apply(x[None], 5)
    np.testing.assert_array_equal(q1, q2)
    assert b1 == b2
    (q3,), _ = c.apply(x[None], 6)
    assert not np.array_equal(q1, q3)


def test_noisy_wrapper_bounded():
    base = comp.UniformQuantizer(0.5, seed=3)
    c = comp.Noisy(base, 0.25)
    x = np.array([1.1, -0.4])
    for it in range(200):
        (q,), bits = c.apply(x[None], it)
        (qb,), bb = base.apply(x[None], it)
        assert np.linalg.norm(q - qb) <= 0.25 + 1e-12
        assert bits == bb


@pytest.mark.parametrize("d", [1, 2, 6])
def test_noisy_noise_is_uniform_in_the_ball(d):
    # uniform in the ball of radius b: ||xi|| <= b, E||xi||^2 = b^2 d / (d + 2)
    # and a zero mean; a radius of b u in place of b u^(1/d) fails at d = 2 and 6
    b, rows = 0.5, 20_000
    xi, _ = comp.Noisy(comp.Identity(), b).apply(np.zeros((rows, d)))
    sq = np.sum(xi * xi, axis=1)
    assert np.all(np.sqrt(sq) <= b * (1.0 + 1e-12))
    se = sq.std(ddof=1) / math.sqrt(rows)
    assert abs(sq.mean() - b * b * d / (d + 2)) <= 5.0 * se
    se = xi.std(axis=0, ddof=1) / math.sqrt(rows)
    assert np.all(np.abs(xi.mean(axis=0)) <= 5.0 * se)


def test_compose_orders():
    c9 = comp.compose_kbit_of_uniform(3, 0.5, seed=1)
    assert c9.order == "rel_of_abs"
    c10 = comp.compose_uniform_of_kbit(3, 0.5, seed=1)
    assert c10.order == "abs_of_rel"
    x = np.array([0.8, -1.7, 2.2])
    for c in (c9, c10):
        (q,), bits = c.apply(x[None], 1)
        assert np.all(np.isfinite(q)) and bits > 0
    with pytest.raises(IncompatibleContracts):
        comp.Compose(comp.UniformQuantizer(0.5), comp.UniformQuantizer(0.2))


def test_compose_keeps_callers_stages():
    inner = comp.Noisy(comp.UniformQuantizer(0.5, seed=4, tag=7), 0.2)
    outer = comp.Noisy(comp.UnbiasedKBit(3, seed=4, tag=7), 0.2)
    c = comp.Compose(inner, outer)
    assert (outer.tag, outer.base.tag, inner.tag, inner.base.tag) == (7, 7, 7, 7)
    assert c.inner is inner and c.outer is outer
    # the two noise stages draw different realizations: the outer stage goes
    # on drawing from the round's generator where the inner stage stopped
    x = np.array([0.8, -1.7, 2.2])
    mid, _ = inner.apply(x[None], 3)
    q, _ = c.apply(x[None], 3)
    q_same_stream, _ = outer.apply(mid, 3)
    assert not np.array_equal(q, q_same_stream)


def test_parameter_validation():
    with pytest.raises(OutOfRange):
        comp.OneBit(0.0)
    assert comp.OneBit(1e308).apply(np.array([[-1.0, 2.0]]))[0].tolist() == [[-5e307, 5e307]]
    with pytest.raises(OutOfRange):
        comp.SaturatingQuantizer(1.0, 3.0)   # step must be < 2 * level
    with pytest.raises(OutOfRange):
        comp.TopK(0)
    with pytest.raises(DimensionMismatch):
        comp.TopK(5).apply(np.ones((1, 3)))
    with pytest.raises(DimensionMismatch):
        comp.RandK(5, seed=0).apply(np.ones((1, 3)))
    with pytest.raises(DimensionMismatch):
        comp.OneBit(1.0).apply(np.ones((2, 2, 2)))


def _make(kind, noise):
    """A compressor of ``config.KINDS`` kind, wrapped in channel noise when
    ``noise`` is positive."""
    make = config.KINDS[kind]
    if isinstance(make, type):
        values = {"level": 1.5, "step": 0.4, "k": 2, "kbits": 3}
        c = make(*(values[f.name] for f in dataclasses.fields(make) if not f.kw_only), seed=12)
    else:
        c = make(3, 0.4, seed=12)
    return comp.with_noise(c, noise)


def _same_bits(a, b):
    """Equal values and sign bits, so +0.0 and -0.0 differ."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("noise", [0.0, 0.3], ids=["bare", "noisy"])
@pytest.mark.parametrize("kind", config.KINDS)
def test_a_stack_of_rounds_compresses_each_agent_of_each_round(kind, noise):
    # an (..., n, d) stack is rounds along its leading axes: each agent of each
    # round equals the oracle's one-agent result from the same draws, value and
    # sign bit, on rows with signed zeros, the least subnormals and all zeros
    c = _make(kind, noise)
    X = np.random.default_rng(3).uniform(-2.0, 2.0, size=(2, 3, 4, 5))
    X[0, 0, 0] = [0.0, -0.0, 5e-324, -5e-324, 1.0]
    X[0, 1, 2] = 0.0
    X[1, 0, 3] = -0.0
    X[1, 2, 1] = [5e-324, -5e-324, -0.0, 0.0, -5e-324]
    Q, _ = c._apply(X, rng.substream(12, rng.COMPRESSOR, 0, 7), X.shape)
    ref = oracle.compress_each(c, X, rng.substream(12, rng.COMPRESSOR, 0, 7))
    assert Q.shape == X.shape
    for i, (q, _) in ref.items():
        assert _same_bits(Q[i], q), i


@pytest.mark.parametrize("noise", [0.0, 0.3], ids=["bare", "noisy"])
@pytest.mark.parametrize("kind", config.KINDS)
def test_compression_leaves_its_input_alone(kind, noise):
    # kernels work in place only on arrays they allocate: an int64 round and a
    # read-only float round compress as their float copies do, and no input,
    # nor sample_errors' point, changes
    c = _make(kind, noise)
    ints = np.random.default_rng(4).integers(-3, 4, size=(4, 6))
    floats = np.random.default_rng(4).uniform(-2.0, 2.0, size=(4, 6))
    floats.flags.writeable = False
    for U in (ints, floats):
        before = U.copy()
        Q, bits = c.apply(U, 5)
        ref, ref_bits = c.apply(U.astype(float), 5)
        assert _same_bits(Q, ref) and bits == ref_bits
        assert U.dtype == before.dtype and np.array_equal(U, before)
    x = np.linspace(-2.0, 3.0, 6)
    c.sample_errors(x, 50, seed=1)
    assert np.array_equal(x, np.linspace(-2.0, 3.0, 6))


@pytest.mark.parametrize("noise", [0.0, 0.3], ids=["bare", "noisy"])
@pytest.mark.parametrize("kind", config.KINDS)
def test_apply_refuses_anything_but_a_round(kind, noise):
    # bits charge a round's rows: a bare vector or a stack of rounds would be
    # charged for the wrong rows, or fail inside a kernel
    c = _make(kind, noise)
    for U in (np.ones(4), np.ones((2, 3, 4))):
        with pytest.raises(DimensionMismatch, match=f"got shape {re.escape(str(U.shape))}"):
            c.apply(U, 1)
