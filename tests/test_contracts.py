"""Contract algebra and statistical verification of both assumption classes."""

import numpy as np
import pytest

import oracle
from dcopt import build_graph, compute_constants, make_quadratic, theorem_params
from dcopt import compressors as comp
from dcopt import rng
from dcopt.errors import DimensionMismatch, IncompatibleContracts, OutOfRange, WrongClass


def test_lemma1_relative_values():
    c = comp.lemma1_relative_params(0.5, 1.0, 1.0)
    assert (c.r, c.C, c.delta) == (1.0, 3.0, 0.25)
    c = comp.lemma1_relative_params(1.0, 1.0, 0.0)
    assert (c.r, c.C, c.delta) == (1.0, 0.0, 0.5)
    c = comp.lemma1_relative_params(0.25, 2.0, 3.0)
    assert (c.r, c.delta) == (2.0, 0.125)
    assert abs(c.C - 15.75) < 1e-12


def test_lemma1_absolute_values():
    c = comp.lemma1_absolute_params(1.0, 1.0, 1.0)
    assert (c.r, c.C, c.delta) == (1.0, 4.0, 1.0)
    c = comp.lemma1_absolute_params(1.0, 1.0, 0.0)
    assert (c.r, c.C, c.delta) == (1.0, 2.0, 1.0)
    c = comp.lemma1_absolute_params(0.5, 2.0, 2.0)
    assert (c.r, c.C, c.delta) == (2.0, 3.0, 1.0)
    with pytest.raises(OutOfRange):
        comp.lemma1_relative_params(1.5, 1.0, 0.0)


def test_lemma2_composition_values():
    rel = comp.AssumptionContract(comp.GLOBAL, 2.0, 1.0, 3.0, 0.25)   # delta_r = 0.5
    abs_ = comp.AssumptionContract(comp.GLOBAL, 2.0, 1.0, 4.0, 1.0)
    c = comp.lemma2_compose_params(rel, abs_, "rel_of_abs")
    assert abs(c.C - 84.0) < 1e-12 and c.delta == 0.0625 and c.r == 1.0
    c = comp.lemma2_compose_params(rel, abs_, "abs_of_rel")
    assert abs(c.C - 31.5) < 1e-12 and c.delta == 0.125 and c.r == 1.0
    # error-free composition keeps C = 0 in both orders
    rel0 = comp.AssumptionContract(comp.GLOBAL, 2.0, 1.0, 0.0, 0.25)
    abs0 = comp.AssumptionContract(comp.GLOBAL, 2.0, 1.0, 0.0, 1.0)
    for order in ("rel_of_abs", "abs_of_rel"):
        assert comp.lemma2_compose_params(rel0, abs0, order).C == 0.0


@pytest.mark.parametrize("make", [
    lambda: comp.OneBit(1.0),
    lambda: comp.SaturatingQuantizer(2.0, 1.0),
    lambda: comp.NormSign(),
    # level/step = 3.75: the top output 1.2 sits 0.3 (> step/2) below level
    lambda: comp.SaturatingQuantizer(1.5, 0.4),
])
def test_local_contracts_pass(make):
    c = make()
    report = comp.verify_local_assumption(c, c.contract(6), samples=3000, seed=2)
    assert report.passed, report
    assert report.max_ratio <= 1.0 + 1e-12


def test_top_k_stated_delta_is_too_large():
    # the advertised point contract delta = k/d fails the unsquared bound on
    # equal-magnitude boundary points; the corrected delta passes
    c = comp.TopK(2)
    stated = comp.verify_local_assumption(c, c.contract(6), samples=2000, seed=2)
    assert not stated.passed
    assert stated.max_ratio == pytest.approx(1.0 / np.sqrt(1.0 - 2.0 / 6.0), rel=1e-9)
    sound = comp.verify_local_assumption(c, c.sound_contract(6), samples=2000, seed=2)
    assert sound.passed


def test_wrong_contract_detected():
    # delta beyond 1 - step/(2 level) has a boundary counterexample
    c = comp.SaturatingQuantizer(2.0, 1.0)
    too_tight = comp.AssumptionContract(comp.LOCAL, np.inf, 1.0, 2.0, 0.9)
    report = comp.verify_local_assumption(c, too_tight, samples=2000, seed=2)
    assert not report.passed and report.max_ratio > 1.0


def test_a_zero_bound_passes_only_an_exact_compressor():
    # delta = 1 makes the bound C (1 - delta) zero: top-k with k = d carries
    # that contract and is exact; one-bit against it fails where it moves a point
    c = comp.TopK(6)
    exact = comp.verify_local_assumption(c, c.contract(6), samples=500, seed=2)
    assert exact.passed and exact.max_ratio == 0.0 and exact.worst == {}
    zero_bound = comp.AssumptionContract(comp.LOCAL, np.inf, 1.0, 1.0, 1.0)
    report = comp.verify_local_assumption(comp.OneBit(1.0), zero_bound, samples=500, seed=2)
    assert not report.passed and report.max_ratio == np.inf
    assert report.worst["bound"] == 0.0 and report.worst["error"] > 0.0


class _NanBeyond(comp.OneBit):
    """One-bit, but NaN wherever |x| > 0.9."""

    def _kernel(self, X, zeta):
        return np.where(np.abs(X) > 0.9, np.nan, super()._kernel(X, zeta))


def test_nan_output_fails_and_names_its_point():
    c = _NanBeyond(2.0)
    report = comp.verify_local_assumption(c, c.contract(6), samples=500, seed=2)
    assert not report.passed and np.isnan(report.max_ratio)
    assert np.isnan(report.worst["error"]) and report.worst["bound"] == 1.0
    assert np.max(np.abs(report.worst["x"])) > 0.9


def test_class_mismatch_raises():
    c = comp.OneBit(1.0)
    with pytest.raises(WrongClass):
        comp.verify_global_assumption(c, c.contract(4), trials_per_sample=10)
    u = comp.UnbiasedKBit(3)
    with pytest.raises(WrongClass):
        comp.verify_local_assumption(u, u.contract(4))


GLOBAL_SPECS = [
    ("unbiased_kbit", lambda: comp.UnbiasedKBit(3, seed=5)),
    ("rand_k", lambda: comp.RandK(3, seed=5)),
    ("scalarization", lambda: comp.Scalarization(seed=5)),
    ("uniform_quant", lambda: comp.UniformQuantizer(0.5, seed=5)),
    ("unbiased_kbit_noisy", lambda: comp.Noisy(comp.UnbiasedKBit(3, seed=5), 2.0)),
    ("rand_k_noisy", lambda: comp.Noisy(comp.RandK(3, seed=5), 2.0)),
    ("scalarization_noisy", lambda: comp.Noisy(comp.Scalarization(seed=5), 2.0)),
    ("uniform_quant_noisy", lambda: comp.Noisy(comp.UniformQuantizer(0.5, seed=5), 2.0)),
    ("compose_rel_of_abs", lambda: comp.compose_kbit_of_uniform(3, 0.5, 1.0, 1.0, seed=5)),
    ("compose_abs_of_rel", lambda: comp.compose_uniform_of_kbit(3, 0.5, 1.0, 1.0, seed=5)),
]


@pytest.mark.parametrize("name,make", GLOBAL_SPECS)
def test_global_contracts_pass(name, make):
    c = make()
    contract = c.contract(8)
    report = comp.verify_global_assumption(c, contract, samples=12,
                                           trials_per_sample=4000, seed=3, d=8)
    assert report.passed, (name, report)


def test_verification_deterministic():
    for c in (comp.Noisy(comp.RandK(2, seed=7), 1.0),
              comp.compose_kbit_of_uniform(3, 0.5, noise_inner=1.0, seed=7)):
        r1 = comp.verify_global_assumption(c, c.contract(6), samples=8,
                                           trials_per_sample=500, seed=11, d=6)
        r2 = comp.verify_global_assumption(c, c.contract(6), samples=8,
                                           trials_per_sample=500, seed=11, d=6)
        assert vars(r1) == vars(r2), c


ORACLE_SPECS = GLOBAL_SPECS + [
    ("compose_rel_of_abs_noise_free", lambda: comp.compose_kbit_of_uniform(3, 0.5, seed=5)),
    ("compose_abs_of_rel_noise_free", lambda: comp.compose_uniform_of_kbit(3, 0.5, seed=5)),
    ("identity", lambda: comp.Identity(seed=5)),
]


@pytest.mark.parametrize("name,make", ORACLE_SPECS)
def test_sample_errors_match_the_materialised_block(name, make, monkeypatch):
    # the trials as one stack of one-agent rounds equal, bit for bit, the
    # oracle's trials compressed one at a time
    c = make()
    for d in (3, 8, 17):
        points = [np.zeros(d), np.linspace(-2.0, 3.0, d), 500.0 * np.ones(d)]
        for seed in (0, 1, 4):
            for tag, x in enumerate(points):
                ref = oracle.sample_errors(c, x, 64, seed, tag)
                assert np.array_equal(c.sample_errors(x, 64, seed, tag), ref), (name, d, seed)
        report = comp.verify_global_assumption(c, c.contract(d), samples=5,
                                               trials_per_sample=64, seed=2, d=d)
        with monkeypatch.context() as m:
            m.setattr(c, "sample_errors", lambda x, trials, seed, tag=0:
                      oracle.sample_errors(c, x, trials, seed, tag))
            ref = comp.verify_global_assumption(c, c.contract(d), samples=5,
                                                trials_per_sample=64, seed=2, d=d)
        assert vars(report) == vars(ref), (name, d)


def test_verification_streams_do_not_overlap(monkeypatch):
    # the local points, the global points and each global point's trials
    # each draw from their own VERIFY coordinates
    built = []
    substream = rng.substream

    def recording(seed, purpose, tag=0, iteration=0):
        built.append((seed, purpose, tag, iteration))
        return substream(seed, purpose, tag, iteration)

    monkeypatch.setattr(rng, "substream", recording)
    one_bit, kbit = comp.OneBit(1.0), comp.Noisy(comp.UnbiasedKBit(3, seed=5), 0.5)
    comp.verify_local_assumption(one_bit, one_bit.contract(6), samples=50, seed=3)
    comp.verify_global_assumption(kbit, kbit.contract(8), samples=4,
                                  trials_per_sample=50, seed=3, d=8)
    assert len(built) == 1 + 1 + 4
    assert {key[:2] for key in built} == {(3, rng.VERIFY)}
    assert len(set(built)) == len(built), built


def test_unbiased_kbit_needs_enough_levels():
    with pytest.raises(OutOfRange):
        comp.UnbiasedKBit(1, seed=0).contract(8)   # 4^1 < 8


@pytest.mark.parametrize("samples,radii", [(1, [0.0]), (2, [0.0, 0.1]), (3, [0.0, 0.1, 1e3])])
def test_global_verifier_checks_as_many_points_as_asked(monkeypatch, samples, radii):
    # the origin, then samples - 1 radii log-spaced from 0.1 to 1e3
    c = comp.UnbiasedKBit(3, seed=5)
    seen = []
    sample_errors = c.sample_errors

    def recording(x, *args, **kwargs):
        seen.append(float(np.linalg.norm(x)))
        return sample_errors(x, *args, **kwargs)

    monkeypatch.setattr(c, "sample_errors", recording)
    report = comp.verify_global_assumption(c, c.contract(8), samples=samples,
                                           trials_per_sample=50, seed=3, d=8)
    assert report.samples == samples
    np.testing.assert_allclose(seen, radii, rtol=1e-12)


REL = comp.AssumptionContract(comp.GLOBAL, 2.0, 1.0, 3.0, 0.25)
ABS = comp.AssumptionContract(comp.GLOBAL, 2.0, 1.0, 4.0, 1.0)
ONE_BIT = comp.OneBit(1.0)
KBIT = comp.UnbiasedKBit(3)


def _constants(gamma=8.0, tau_1=4.2, omega=1.0, alpha=1e-6, ell=1.0):
    return compute_constants(build_graph("path", 3), ell, gamma, tau_1, omega, alpha,
                             ONE_BIT.contract(4), 4)


def test_a_tiny_ell_still_evaluates():
    # 1e-300 squares to 0, but phi_6 >= ell / 2 = 5e-301 still divides kappa_hat_0
    table = _constants(ell=1e-300)
    assert table["phi_6"] == 5e-301
    assert table["kappa_hat_0"] == min(table["phi_1"] / table["phi_2"],
                                       table["phi_3"] / table["phi_4"], 0.125 / 5e-301)


# each refusal of the contract layer: the call, its error class and its message
CONTRACT_REFUSALS = [
    (lambda: comp.AssumptionContract("bogus", 2.0, 1.0, 0.0, 0.5), OutOfRange,
     "contract class must be local/global, got 'bogus'"),
    (lambda: comp.AssumptionContract(comp.GLOBAL, 2.0, 0.0, 1.0, 0.5), OutOfRange,
     "contract constants out of range: r=0.0, C=1.0, delta=0.5"),
    (lambda: comp.AssumptionContract(comp.GLOBAL, 2.0, 1.0, 1.0, 0.0), OutOfRange,
     "contract constants out of range: r=1.0, C=1.0, delta=0.0"),
    (lambda: comp.AssumptionContract(comp.GLOBAL, 2.0, 1.0, 1.0, 1.5), OutOfRange,
     "contract constants out of range: r=1.0, C=1.0, delta=1.5"),
    (lambda: comp.AssumptionContract(comp.GLOBAL, 2.0, 1.0, -1.0, 0.5), OutOfRange,
     "contract constants out of range: r=1.0, C=-1.0, delta=0.5"),
    (lambda: comp.AssumptionContract(comp.LOCAL, np.inf, 1.0, 0.0, 0.5), OutOfRange,
     "local contracts need a positive region radius C"),
    (lambda: comp.lemma1_relative_params(0.5, 0.0, 1.0), OutOfRange,
     "need r_r > 0 and C_xi >= 0, got 0.0, 1.0"),
    (lambda: comp.lemma1_relative_params(0.5, 1.0, -1.0), OutOfRange,
     "need r_r > 0 and C_xi >= 0, got 1.0, -1.0"),
    (lambda: comp.lemma1_absolute_params(-1.0, 1.0, 0.0), OutOfRange,
     "need C_a >= 0, r_a > 0, C_xi >= 0, got -1.0, 1.0, 0.0"),
    (lambda: comp.lemma2_compose_params(ONE_BIT.contract(4), ABS, "rel_of_abs"),
     IncompatibleContracts, "composition inputs must be global contracts"),
    (lambda: comp.lemma2_compose_params(REL, REL, "rel_of_abs"), IncompatibleContracts,
     "second argument must be an absolute-error contract"),
    (lambda: comp.lemma2_compose_params(ABS, ABS, "rel_of_abs"), IncompatibleContracts,
     "first argument must be a relative-error contract (delta = delta_r/2 <= 1/2)"),
    (lambda: comp.lemma2_compose_params(REL, ABS, "sideways"), OutOfRange,
     "order must be rel_of_abs or abs_of_rel, got 'sideways'"),
    (lambda: comp.UnbiasedKBit(0), OutOfRange, "kbits must be >= 1, got 0"),
    (lambda: comp.UniformQuantizer(0.0), OutOfRange, "step must be positive and finite, got 0.0"),
    (lambda: ONE_BIT.sample_errors([0.0, np.nan], 10, seed=0), DimensionMismatch,
     "compressor input must be finite"),
    (lambda: comp.verify_local_assumption(ONE_BIT, ONE_BIT.contract(6), samples=0),
     OutOfRange, "samples must be >= 1"),
    (lambda: comp.verify_global_assumption(KBIT, KBIT.contract(8), samples=0), OutOfRange,
     "need samples >= 1 and trials_per_sample >= 2"),
    (lambda: comp.verify_global_assumption(KBIT, KBIT.contract(8), trials_per_sample=1),
     OutOfRange, "need samples >= 1 and trials_per_sample >= 2"),
    *((lambda kw=kw: _constants(**kw), OutOfRange, "gamma, tau_1, omega, alpha must be positive")
      for kw in ({"gamma": 0.0}, {"tau_1": -1.0}, {"omega": 0.0}, {"alpha": 0.0})),
    (lambda: comp.UnbiasedKBit(512), OutOfRange, "kbits must be <= 511, got 512"),
    (lambda: comp.SaturatingQuantizer(1e308, 1e-300), OutOfRange,
     "need level > 0, step in (0, 2*level) and level/step finite, got 1e+308, 1e-300"),
    *((lambda ell=ell: _constants(ell=ell), OutOfRange,
       f"ell must be positive with ell / 2 > 0, got {ell}")
      for ell in (0.0, -1.0, float("nan"), 5e-324)),
    # the layer's one range rule: an overflow, a domain error or a NaN value
    (lambda: _constants(ell=1e200), OutOfRange,
     "kappa_12 cannot be evaluated in floats at rho2=1.0, ell=1e+200"),
    *((lambda kw=kw: _constants(**kw), OutOfRange,
       f"compute_constants cannot be evaluated in floats at {point}, alpha=1e-06")
      for kw, point in (({"ell": 1e154}, "ell=1e+154, gamma=8.0, tau_1=4.2, omega=1.0"),
                        ({"ell": np.inf}, "ell=inf, gamma=8.0, tau_1=4.2, omega=1.0"),
                        ({"gamma": np.nan}, "ell=1.0, gamma=nan, tau_1=4.2, omega=1.0"),
                        ({"tau_1": np.nan}, "ell=1.0, gamma=8.0, tau_1=nan, omega=1.0"),
                        ({"omega": np.inf}, "ell=1.0, gamma=8.0, tau_1=4.2, omega=inf"))),
    # a contract's constants are finite floats, so a formula that overflows is refused
    *((lambda r=r, C=C: comp.AssumptionContract(comp.GLOBAL, 2.0, r, C, 0.5), OutOfRange,
       f"contract constants out of range: r={r}, C={C}, delta=0.5")
      for r, C in ((np.nan, 1.0), (np.inf, 1.0), (1.0, np.inf), (1.0, np.nan))),
    (lambda: comp.lemma1_relative_params(0.5, 1.0, 1e155), OutOfRange,
     "contract constants out of range: r=1.0, C=inf, delta=0.25"),
    *((call, OutOfRange, "contract constants out of range: r=1.0, C=inf, delta=1.0") for call in (
        lambda: comp.lemma1_absolute_params(0.0, 1.0, 1e200),
        lambda: comp.UniformQuantizer(1e200).contract(6),
        lambda: comp.compose_kbit_of_uniform(3, 0.5, noise_inner=1e200).contract(6))),
    # T3's initial scale divides by C^2
    (lambda: theorem_params("T3_local_PL", make_quadratic(4, 3, seed=13), build_graph("ring", 4),
                            comp.OneBit(1e200).contract(3)), OutOfRange,
     "T3_local_PL: s0 cannot be evaluated in floats at C=1e+200"),
    # the local verifier draws from [-C, C]
    (lambda: comp.verify_local_assumption(comp.OneBit(1e308), comp.OneBit(1e308).contract(6)),
     OutOfRange, "cannot sample the region of radius C=1e+308: 2 C is not finite"),
    # a level or step in (0, inf) and a noise bound in [0, inf): NaN and inf
    # would construct and then compress to NaN or inf
    *((lambda level=level: comp.OneBit(level), OutOfRange,
       f"quantization level must be positive and finite, got {level}")
      for level in (0.0, np.nan, np.inf)),
    *((lambda step=step: comp.UniformQuantizer(step), OutOfRange,
       f"step must be positive and finite, got {step}") for step in (-1.0, np.nan, np.inf)),
    *((call, OutOfRange, f"noise bound must be >= 0 and finite, got {bound}")
      for bound in (-0.5, np.nan, np.inf)
      for call in (lambda bound=bound: comp.Noisy(KBIT, bound),
                   lambda bound=bound: comp.with_noise(comp.UniformQuantizer(0.5), bound))),
    # p is a norm index in [1, inf]: at 0 d_hat divides by zero, at -1 the local
    # verifier asks for a negative shape, 0.5 is no norm and NaN gives NaN ratios
    *((lambda p=p: comp.AssumptionContract(comp.LOCAL, p, 1.0, 1.0, 0.5), OutOfRange,
       f"contract norm index p must be in [1, inf], got {p}") for p in (0.0, -1.0, 0.5, np.nan)),
    # the local verifier draws its uniform points from the 2- and the inf-ball only
    *((lambda p=p: comp.verify_local_assumption(
        comp.OneBit(1.0), comp.AssumptionContract(comp.LOCAL, p, 1.0, 1.0, 0.5)), OutOfRange,
       f"local verification samples the 2- or inf-ball, got p={p}") for p in (1.0, 1.5, 3.0)),
    # a bound below the least normal float would certify a lossy quantizer as exact
    *((lambda step=step: comp.UniformQuantizer(step).contract(6), OutOfRange,
       f"uniform quantizer bound d step^2 / 4 = {C} is below the least normal float "
       f"at step={step}, d=6") for step, C in ((5e-324, 0.0), (1e-154, 1.5e-308))),
]


def test_max_kbits_is_the_last_finite_power_of_four():
    k = comp.UnbiasedKBit.max_kbits
    assert comp.UnbiasedKBit(k).relative_delta(8) == 1.0 - 8 / 4.0 ** k
    with pytest.raises(OverflowError):
        4.0 ** (k + 1)


@pytest.mark.parametrize("call,error,message", CONTRACT_REFUSALS,
                         ids=[f"{i}: {case[-1]}" for i, case in enumerate(CONTRACT_REFUSALS)])
def test_contract_layer_refusals(call, error, message):
    with pytest.raises(error) as refused:
        call()
    assert str(refused.value) == message


def test_a_point_whose_bound_overflows_fails_with_a_nan_ratio():
    # the noise's trial variance overflows, so bound + 3 se is no finite float
    c = comp.Noisy(comp.UnbiasedKBit(3, seed=5), 1e150)
    report = comp.verify_global_assumption(c, c.contract(8), samples=4,
                                           trials_per_sample=50, seed=3, d=8)
    assert not report.passed and np.isnan(report.max_ratio)
    assert report.worst["se"] == np.inf
