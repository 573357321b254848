import dataclasses
import warnings

import numpy as np
import oracle
import pytest

from dcopt import (
    ConstantSchedule,
    GeometricSchedule,
    HyperParams,
    Identity,
    OneBit,
    RecursiveSchedule,
    build_graph,
    contraction_global_check,
    from_adjacency,
    init_state,
    make_nonconvex,
    make_quadratic,
    rate_fit,
    run,
    step,
)
from dcopt import algorithm
from dcopt import compressors as comp
from dcopt.errors import (
    ConfigError,
    DegenerateSeries,
    InvalidScale,
    InvalidTopology,
    NonFiniteState,
    SingularSystem,
)


def _hyper(alpha=0.05, beta=2.0, gamma=1.0, omega=1.0, schedule=None):
    return HyperParams(alpha=alpha, beta=beta, gamma=gamma, omega=omega,
                       schedule=schedule or ConstantSchedule(4.0))


def test_schedule_values():
    geo = GeometricSchedule(1.0, 0.9)
    assert geo.value(2) == pytest.approx(0.81)
    rec = RecursiveSchedule(s0=10.0, eps8=0.5, kappa4=0.5, horizon=100)
    # fixed point kappa4/eps8 = 1
    assert rec.value(60) ** 2 == pytest.approx(1.0)
    # step-by-step recursion agrees with the closed form
    s2 = rec.s0 ** 2
    for k in range(1, 8):
        s2 = 0.5 * s2 + 0.5
        assert rec.value(k) ** 2 == pytest.approx(s2)
    # kappa4 <= eps8 s0^2 keeps s_k below s0
    rec2 = RecursiveSchedule(s0=2.0, eps8=0.25, kappa4=0.9, horizon=50)
    assert rec2.kappa4 <= rec2.eps8 * rec2.s0 ** 2
    assert all(rec2.value(k) <= rec2.s0 + 1e-12 for k in range(50))
    with pytest.raises(ConfigError):
        GeometricSchedule(1.0, 1.1)


def test_init_modes():
    prob = make_quadratic(4, 3, seed=1)
    g = build_graph("ring", 4)
    hyper = _hyper()
    st = init_state(prob, g, hyper, "standard", x0_seed=2)
    assert np.all(st.v == 0) and np.all(st.x_hat == 0) and np.all(st.y == 0)
    assert st.bits_cum == 0
    # e5 at the initial state is ||x0||^2
    assert np.sum((st.x - st.x_hat) ** 2) == pytest.approx(np.sum(st.x ** 2))

    st = init_state(prob, g, hyper, "exact_first_round", x0_seed=2)
    assert np.abs(st.x - st.x_hat).max() == 0.0
    np.testing.assert_allclose(st.y, g.laplacian @ st.x)
    assert st.bits_cum == 4 * 3 * 32

    st = init_state(prob, g, hyper, "shared_x0", x0_seed=2)
    assert np.abs(st.x - st.x[0]).max() == 0.0


def test_invalid_scale():
    prob = make_quadratic(3, 2, seed=1)
    g = build_graph("path", 3)
    contract = comp.OneBit(1.0).contract(2)
    hyper = _hyper(schedule=ConstantSchedule(1e-6))
    with pytest.raises(InvalidScale):
        init_state(prob, g, hyper, "standard", x0_seed=2, contract=contract)
    # exact first round needs no scale floor: the first input is zero
    init_state(prob, g, hyper, "exact_first_round", x0_seed=2, contract=contract)


def test_step_matches_compact_form_oracle():
    """One step against a straight-line dense evaluation of the update system."""
    prob = make_quadratic(3, 2, seed=4)
    g = build_graph("path", 3)
    hyper = _hyper(alpha=0.07, beta=1.3, gamma=0.6, omega=0.8,
                   schedule=ConstantSchedule(2.5))
    level = 1.5
    st = init_state(prob, g, hyper, "standard", x0_seed=5)
    new = step(st, prob, g, OneBit(level), hyper)

    # oracle: compact-form updates written out directly
    L = g.laplacian
    s = 2.5
    q = np.where((st.x - st.x_hat) / s >= 0, level / 2, -level / 2)
    xhat = st.x_hat + hyper.omega * s * q
    y = st.y + hyper.omega * s * (L @ q)
    grads = oracle.stacked_gradients(prob, st.x)
    x_next = st.x - hyper.alpha * (hyper.beta * (L @ xhat) + hyper.gamma * st.v + grads)
    v_next = st.v + hyper.alpha * hyper.gamma * (L @ xhat)

    assert np.abs(new.x_hat - xhat).max() <= 1e-14
    assert np.abs(new.y - y).max() <= 1e-14
    assert np.abs(new.x - x_next).max() <= 1e-14
    assert np.abs(new.v - v_next).max() <= 1e-14
    assert new.bits_cum == 3 * 2    # one-bit: d bits per agent


def test_identity_compressor_tracks_exactly():
    prob = make_quadratic(3, 2, seed=6)
    g = build_graph("path", 3)
    hyper = _hyper(omega=1.0)
    st = init_state(prob, g, hyper, "standard", x0_seed=7)
    new = step(st, prob, g, Identity(), hyper)
    # surrogate equals the compressed iterate exactly
    assert np.abs(new.x_hat - st.x).max() <= 1e-14


def test_frozen_dynamics_at_zero_stepsize():
    prob = make_quadratic(3, 2, seed=6)
    g = build_graph("path", 3)
    hyper = _hyper(alpha=0.0)
    st = init_state(prob, g, hyper, "standard", x0_seed=7)
    new = step(st, prob, g, OneBit(2.0), hyper)
    np.testing.assert_array_equal(new.x, st.x)
    np.testing.assert_array_equal(new.v, st.v)
    assert np.abs(new.x_hat - st.x_hat).max() > 0   # surrogates still move


def test_run_rejects_t0():
    prob = make_quadratic(3, 2, seed=1)
    g = build_graph("path", 3)
    with pytest.raises(ConfigError):
        run(prob, g, Identity(), _hyper(), T=0)


def test_state_machine_identities_and_mean_dynamics():
    prob = make_quadratic(4, 3, seed=8)
    g = build_graph("ring", 4)
    hyper = _hyper(alpha=0.03, beta=2.0, gamma=0.8, omega=0.9,
                   schedule=GeometricSchedule(4.0, 0.99))
    cpr = comp.UnbiasedKBit(3, seed=3)
    st = init_state(prob, g, hyper, "standard", x0_seed=9)
    for k in range(40):
        xbar = st.x.mean(axis=0)
        gbar = oracle.stacked_gradients(prob, st.x).mean(axis=0)
        new = step(st, prob, g, cpr, hyper)
        assert np.abs(new.v.mean(axis=0)).max() <= 1e-12
        assert np.abs(new.y - g.laplacian @ new.x_hat).max() <= 1e-10
        assert np.linalg.norm(new.x.mean(axis=0) - (xbar - hyper.alpha * gbar)) <= 1e-12
        st = new


def test_uncompressed_baseline_monotone():
    prob = make_quadratic(4, 3, seed=10, condition_number=5.0)
    g = build_graph("ring", 4)
    hyper = _hyper(alpha=0.1, beta=1.5, gamma=0.7, omega=1.0)
    tr = run(prob, g, Identity(), hyper, T=120, x0_seed=11)
    f = tr.f_bar
    assert np.all(np.diff(f[10:]) <= 1e-10)


def test_run_deterministic_and_matches_oracle():
    prob = make_quadratic(5, 3, seed=12)
    g = build_graph("complete", 5)
    hyper = _hyper(alpha=0.05, beta=1.0, gamma=0.5, omega=1.0,
                   schedule=GeometricSchedule(3.0, 0.995))
    cpr = comp.Noisy(comp.RandK(2, seed=21), 0.5)
    t1 = run(prob, g, cpr, hyper, T=30, x0_seed=13)
    t2 = run(prob, g, cpr, hyper, T=30, x0_seed=13)
    ref, _ = oracle.run(prob, g, cpr, hyper, 30, x0_seed=13, contract=cpr.contract(3))
    for name in ("f_bar", "e5", "bits_cum"):
        np.testing.assert_array_equal(getattr(t1, name), getattr(t2, name))
        np.testing.assert_array_equal(getattr(t1, name), ref[name])


def test_bits_accounting():
    prob = make_quadratic(4, 3, seed=14)
    g = build_graph("ring", 4)
    hyper = _hyper(schedule=ConstantSchedule(5.0))
    tr = run(prob, g, OneBit(2.0), hyper, T=7, x0_seed=15)
    np.testing.assert_array_equal(tr.bits_cum, 4 * 3 * np.arange(8))
    tr = run(prob, g, OneBit(2.0), hyper, T=7, x0_seed=15, init_mode="exact_first_round")
    np.testing.assert_array_equal(tr.bits_cum, 4 * 3 * 32 + 4 * 3 * np.arange(8))


DIVERGING = [
    # (problem, graph, compressor, hyper, x0_seed, the iteration whose step fails)
    (lambda: make_quadratic(3, 2, seed=16), lambda: build_graph("path", 3), Identity,
     _hyper(alpha=50.0, beta=30.0, gamma=10.0), 17, 84),
    (lambda: make_nonconvex(8, 3, seed=5), lambda: build_graph("ring", 8),
     lambda: comp.UnbiasedKBit(3, seed=1), _hyper(alpha=3.0, beta=40.0, gamma=10.0), 2, 115),
]


def test_divergence_detected(monkeypatch):
    # a run raises the step's own error, at the iteration where stepping
    # alone fails, whether or not a block of rows is still waiting to be
    # recorded: blocks of 1, 5 and 1000 rows and of the default budget
    default = algorithm.RECORD_BUDGET
    for make, graph, compressor, hyper, x0_seed, failing in DIVERGING:
        prob, g = make(), graph()
        state = init_state(prob, g, hyper, x0_seed=x0_seed)
        with pytest.raises(NonFiniteState) as alone:
            for _ in range(500):
                state = step(state, prob, g, compressor(), hyper)
        assert alone.value.iteration == failing
        for budget in (prob.n * prob.d, 5 * prob.n * prob.d, default, 1000 * prob.n * prob.d):
            monkeypatch.setattr(algorithm, "RECORD_BUDGET", budget)
            with pytest.raises(NonFiniteState) as exc:
                run(prob, g, compressor(), hyper, T=500, x0_seed=x0_seed)
            assert exc.value.iteration == failing
            assert str(exc.value) == f"non-finite state at iteration {failing}"


# (the array, state edits, hyperparameters): from a finite state whose rows
# are equal, every one-bit output is +2 and L Q = 0 exactly, and each case
# makes one array non-finite after the round, or the compressor input.  The
# last case stays finite, but the sums of squares of the compressor input,
# x, v and x_hat overflow, so the finiteness checks fall back to each entry
NON_FINITE = [
    ("x", {"x": 1e3}, dict(alpha=np.finfo(float).max)),
    ("v", {"y": 1e308}, dict(alpha=1.0, beta=1e-10, gamma=10.0)),
    ("x_hat", {"s_k": 1e308}, {}),
    ("compressor input", {"x": 1e10, "s_k": 1e-300}, {}),
    (None, {"x": 2e200, "v": 1e200, "x_hat": 1e200}, dict(alpha=1e-10)),
]


@pytest.mark.parametrize("name,edits,hyper", NON_FINITE,
                         ids=[c[0] or "finite_overflowing_squares" for c in NON_FINITE])
def test_step_refuses_each_non_finite_array(name, edits, hyper):
    prob, g = make_quadratic(5, 3, seed=2), build_graph("ring", 5)
    ones = np.ones((5, 3))
    state = algorithm.AlgorithmState(x=ones, v=0 * ones, x_hat=0 * ones, y=0 * ones, k=7,
                                     s_k=1.0, bits_cum=0)
    for key, value in edits.items():
        setattr(state, key, value if key == "s_k" else value * ones)
    hyper = _hyper(**{"omega": 1.0, **hyper})
    # the round written out: only the named array is non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        x_hat = state.x_hat + hyper.omega * state.s_k * 2.0
        x = state.x - hyper.alpha * (hyper.beta * state.y + hyper.gamma * state.v
                                     + oracle.stacked_gradients(prob, state.x))
        v = state.v + hyper.alpha * hyper.gamma * state.y
        arrays = {"compressor input": (state.x - state.x_hat) / state.s_k,
                  "x": x, "v": v, "x_hat": x_hat}
        squares = [np.vdot(a, a) for a in arrays.values()]
    non_finite = [key for key, a in arrays.items() if not np.isfinite(a).all()]
    assert non_finite == ([name] if name else [])
    # the round's overflow is the check's to report, not a floating-point warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if name is None:
            assert squares == [np.inf] * 4
            new = step(state, prob, g, OneBit(4.0), hyper)
            assert new.k == 8 and all(np.array_equal(getattr(new, key), arrays[key])
                                      for key in ("x", "v", "x_hat"))
            return
        with pytest.raises(NonFiniteState) as exc:
            step(state, prob, g, OneBit(4.0), hyper)
    what = name if name == "compressor input" else "state"
    assert str(exc.value) == f"non-finite {what} at iteration 7"
    assert exc.value.iteration == 7


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("key", ["x", "v", "x_hat", "y"])
def test_step_refuses_a_single_non_finite_entry(key, bad):
    # one entry reaches the compressor input through x or x_hat, and the new
    # x and v through v or y
    prob, g = make_quadratic(5, 3, seed=2), build_graph("ring", 5)
    gen = np.random.default_rng(3)
    arrays = {name: gen.standard_normal((5, 3)) for name in ("x", "v", "x_hat", "y")}
    arrays[key][gen.integers(5), gen.integers(3)] = bad
    state = algorithm.AlgorithmState(**arrays, k=4, s_k=10.0, bits_cum=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteState) as exc:
            step(state, prob, g, OneBit(4.0), _hyper())
    what = "compressor input" if key in ("x", "x_hat") else "state"
    assert str(exc.value) == f"non-finite {what} at iteration 4"
    assert exc.value.iteration == 4


def test_states_share_no_memory():
    # run holds the states of a block's rows by reference, which is safe only
    # while a step leaves its input's arrays alone and returns new ones
    prob, g = make_nonconvex(6, 4, seed=1), build_graph("ring", 6)
    keys = ("x", "v", "x_hat", "y")
    for init_mode in algorithm.INIT_MODES:
        state = init_state(prob, g, _hyper(), init_mode, x0_seed=2)
        before = [getattr(state, key).copy() for key in keys]
        new = step(state, prob, g, comp.UnbiasedKBit(3, seed=1), _hyper())
        assert not any(np.shares_memory(getattr(new, a), getattr(state, b))
                       for a in keys for b in keys)
        assert all(np.array_equal(getattr(state, key), old) for key, old in zip(keys, before))

        a = algorithm.draw_x0(6, 4, init_mode, 5)
        kept = a.copy()
        final = run(prob, g, Identity(), _hyper(), T=3, init_mode=init_mode, x0=a).final_state
        assert np.array_equal(a, kept)
        assert not any(np.shares_memory(getattr(final, key), a) for key in keys)


def test_recursive_schedule_needs_horizon():
    prob = make_quadratic(3, 2, seed=18)
    g = build_graph("path", 3)
    rec = RecursiveSchedule(s0=5.0, eps8=0.3, kappa4=0.1, horizon=10)
    hyper = _hyper(schedule=rec)
    with pytest.raises(ConfigError):
        run(prob, g, Identity(), hyper, T=20, x0_seed=1)


def _path3(**changes):
    # (state, problem, graph) at the start on the path of three agents, with
    # ``changes`` applied to the state
    prob, g = make_quadratic(3, 2, seed=1), build_graph("path", 3)
    return dataclasses.replace(init_state(prob, g, _hyper(), x0_seed=2), **changes), prob, g


def _one_trace():
    _, prob, g = _path3()
    return run(prob, g, comp.UnbiasedKBit(3, seed=1), _hyper(), T=2, x0_seed=2)


# each refusal of the schedule, hyperparameter, state, diagnostics, graph and
# problem layers: the call, its error class and its message
LAYER_REFUSALS = [
    *((lambda eps8=eps8: RecursiveSchedule(s0=1.0, eps8=eps8, kappa4=0.5, horizon=10),
       ConfigError, f"eps8 must be in (0,1), got {eps8}") for eps8 in (0.0, 1.0)),
    (lambda: RecursiveSchedule(s0=1.0, eps8=0.5, kappa4=-0.5, horizon=10), ConfigError,
     "kappa4 must be >= 0, got -0.5"),
    (lambda: RecursiveSchedule(s0=1.0, eps8=0.5, kappa4=0.5, horizon=0), ConfigError,
     "recursive schedule needs a fixed horizon >= 1"),
    *((lambda kw=kw: _hyper(**kw), ConfigError, "beta, gamma, omega must all be positive")
      for kw in ({"beta": 0.0}, {"gamma": -1.0}, {"omega": 0.0})),
    (lambda: _hyper(alpha=-0.1), ConfigError, "alpha must be >= 0, got -0.1"),
    (lambda: init_state(*_path3()[1:], _hyper(), "warm"), ConfigError,
     "unknown init mode 'warm'"),
    (lambda: init_state(*_path3()[1:], _hyper(), x0=np.zeros((2, 2))), ConfigError,
     "x0 must have shape (3, 2), got (2, 2)"),
    (lambda: step(*_path3(s_k=0.0), Identity(), _hyper()), ConfigError,
     "s_k must be positive, got 0.0"),
    (lambda: contraction_global_check([_one_trace()], comp.UnbiasedKBit(3).contract(2), 1.0,
                                      n=3),
     DegenerateSeries, "need at least two seeds for the aggregate check"),
    (lambda: rate_fit([1.0, 2.0, 3.0], [1.0, 2.0]), DegenerateSeries,
     "ts and vs must have equal length"),
    (lambda: rate_fit([0.0, 1.0, 2.0, 3.0], [1.0, 0.5, 0.3, 0.2], burn_in_frac=0.0),
     DegenerateSeries, "power_law needs positive abscissae"),
    *((lambda topology=topology: build_graph(topology, 1), InvalidTopology,
       f"{topology} needs n >= 2, got 1") for topology in ("path", "complete", "erdos_renyi")),
    (lambda: build_graph("erdos_renyi", 4, prob=0.0), InvalidTopology,
     "erdos_renyi edge probability must be in (0,1], got 0.0"),
    (lambda: from_adjacency([[0.0, 1.0], [0.0, 0.0]]), InvalidTopology,
     "adjacency must be symmetric, nonnegative, zero diagonal"),
    (lambda: make_quadratic(3, 2, condition_number=0.5), SingularSystem,
     "need n, d >= 1 and condition_number >= 1"),
    (lambda: make_nonconvex(3, 2, lam=-0.1), SingularSystem, "need n, d, m >= 1 and lam >= 0"),
    # build_graph alone refuses a topology it does not build or too few agents for it
    (lambda: build_graph("ring", 2), InvalidTopology, "ring needs n >= 3, got 2"),
    (lambda: build_graph("torus", 4), InvalidTopology, "unknown topology 'torus'"),
    # at n = 1 the aggregate matrix is A_1^T A_1, whose eigenvalue ratio is
    # 1 / condition_number whatever the seed
    (lambda: make_quadratic(1, 4, condition_number=1e13), SingularSystem,
     "aggregate normal matrix is rank deficient: eigenvalue ratio 1e-13 is not above 1e-12"),
    # ell = 1/4 + 2 lam must be a finite float; NaN passes the lam >= 0 test
    *((lambda lam=lam: make_nonconvex(3, 2, lam=lam), SingularSystem,
       f"need a finite ell = 1/4 + 2 lam, got lam = {lam}") for lam in (1e308, np.nan)),
    # an infinite kappa4 or s0 is refused before it reaches a run
    *((lambda s0=s0, kappa4=kappa4: RecursiveSchedule(s0=s0, eps8=0.5, kappa4=kappa4,
                                                      horizon=10), ConfigError,
       f"need finite kappa4 and s0, got kappa4={kappa4}, s0={s0}")
      for s0, kappa4 in ((1.0, np.inf), (1.0, np.nan), (np.inf, 0.5))),
]


@pytest.mark.parametrize("call,error,message", LAYER_REFUSALS,
                         ids=[f"{i}: {case[-1]}" for i, case in enumerate(LAYER_REFUSALS)])
def test_layer_refusals(call, error, message):
    with pytest.raises(error) as refused:
        call()
    assert str(refused.value) == message
