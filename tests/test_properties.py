"""Property tests: the batched engine against the per-agent oracle, and the
paper's state-machine identities, over random graphs, compressor kinds, init
modes and seeds."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import oracle
from dcopt import algorithm, config
from dcopt.algorithm import (
    INIT_MODES,
    GeometricSchedule,
    HyperParams,
    draw_x0,
    init_state,
    run,
    step,
)
from dcopt.compressors import B1, LOCAL, pnorms
from dcopt.constants import theorem_params
from dcopt.diagnostics import CSV_COLUMNS, TRACE_DTYPE, contraction_local_check
from dcopt.errors import IncompatibleContracts
from dcopt.graph import build_graph
from dcopt.problems import make_nonconvex, make_quadratic

KINDS = ("one_bit", "sat_quant", "top_k", "norm_sign", "unbiased_kbit", "rand_k",
         "scalarization", "uniform_quant", "identity",
         "compose_kbit_of_uniform", "compose_uniform_of_kbit")
T = 5


@st.composite
def cases(draw, kind, init_mode, noises=("0", "0.3")):
    n = draw(st.integers(3, 10))
    d = draw(st.integers(2, 6))
    graph = build_graph(draw(st.sampled_from(("ring", "path", "erdos_renyi"))), n,
                        seed=draw(st.integers(0, 2 ** 16)))
    make = draw(st.sampled_from((make_quadratic, make_nonconvex)))
    problem = make(n, d, seed=draw(st.integers(0, 2 ** 16)))
    noise = draw(st.sampled_from(noises))
    noise_outer = draw(st.sampled_from(("0", "0.2")))
    section = {"kind": kind, "level": "1.5", "step": "0.4", "k": "2", "kbits": "3"}
    # only the noise keys the kind reads; every draw above is unconditional,
    # so the derandomized examples do not depend on the kind
    if kind.startswith("compose_"):
        section.update(noise_inner=noise, noise_outer=noise_outer)
    else:
        section["noise"] = noise
    compressor = config.build_compressor_from({"compressor": section},
                                              draw(st.integers(0, 2 ** 64 - 1)))
    try:
        contract = compressor.contract(d)
    except IncompatibleContracts:       # noise around a local kind
        contract = None
    x0_seed = draw(st.integers(0, 2 ** 64 - 1))
    s0 = 1.0
    if contract is not None and contract.cls == LOCAL:
        x0 = draw_x0(n, d, init_mode, x0_seed)
        s0 = 1.05 * float(pnorms(x0, contract.p).max()) / contract.C
    hyper = HyperParams(alpha=draw(st.sampled_from((0.0, 0.02, 0.05))), beta=1.2,
                        gamma=0.7, omega=draw(st.sampled_from((0.6, 1.0))),
                        schedule=GeometricSchedule(s0, 0.97))
    return problem, graph, compressor, contract, hyper, x0_seed


def _close(a, b, tol=1e-10):
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) <= tol * scale


SETTINGS = settings(max_examples=6, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])
every_kind_and_mode = pytest.mark.parametrize(
    "kind,init_mode", [(k, m) for k in KINDS for m in INIT_MODES])


@every_kind_and_mode
@SETTINGS
@given(data=st.data())
def test_batched_step_matches_oracle_and_keeps_identities(kind, init_mode, data):
    problem, graph, compressor, contract, hyper, x0_seed = data.draw(cases(kind, init_mode))
    n, d = graph.n, problem.d
    state = init_state(problem, graph, hyper, init_mode, x0_seed, contract=contract)
    assert state.bits_cum == (n * d * B1 if init_mode == "exact_first_round" else 0)
    ref = state
    for _ in range(T):
        # the batched round equals the oracle's block drawn agent by agent
        U = (state.x - state.x_hat) / state.s_k
        Q, _ = compressor.apply(U, state.k)
        assert np.array_equal(Q, oracle.compress_round(compressor, U, state.k)[0])
        for j in range(n):
            # compressing one vector is a round of one row
            q, _ = compressor.compress(U[j], state.k)
            assert np.array_equal(q, compressor.apply(U[j][None], state.k)[0][0])
            assert np.array_equal(q, oracle.compress_round(compressor, U[j][None],
                                                           state.k)[0][0])
            if compressor.deterministic:
                assert np.array_equal(q, Q[j])
        new = step(state, problem, graph, compressor, hyper)
        ref, agent_bits = oracle.step(ref, problem, graph, compressor, hyper)
        for name in ("x", "v", "x_hat", "y"):
            assert np.array_equal(getattr(new, name), getattr(ref, name)), name
        assert (new.k, new.s_k) == (ref.k, ref.s_k)
        # exact bit accounting: the round costs each agent's bits on its own input
        assert new.bits_cum == state.bits_cum + sum(agent_bits) == ref.bits_cum
        assert _close(new.y, graph.laplacian @ new.x_hat)
        assert _close(new.v.mean(axis=0), np.zeros(d))
        G = oracle.stacked_gradients(problem, state.x)
        assert _close(new.x.mean(axis=0), state.x.mean(axis=0) - hyper.alpha * G.mean(axis=0))
        state = new


@every_kind_and_mode
@SETTINGS
@given(data=st.data())
def test_batched_run_matches_oracle(kind, init_mode, data):
    problem, graph, compressor, contract, hyper, x0_seed = data.draw(cases(kind, init_mode))
    trace = run(problem, graph, compressor, hyper, T=T, init_mode=init_mode,
                x0_seed=x0_seed, contract=contract)
    ref, final = oracle.run(problem, graph, compressor, hyper, T, init_mode, x0_seed,
                            contract=contract)
    assert oracle.mismatches(trace, ref) == []
    for name in ("x", "v", "x_hat", "y"):
        assert np.array_equal(getattr(trace.final_state, name), getattr(final, name)), name
    assert trace.final_state.bits_cum == final.bits_cum


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), kind=st.sampled_from(KINDS), init_mode=st.sampled_from(INIT_MODES),
       length=st.integers(2, 9), past=st.sampled_from((-1, 0, 1)))
def test_record_does_not_depend_on_block_boundaries(data, kind, init_mode, length, past):
    """Blocks of one row, of ``length`` rows and of the whole run give the
    same record bit for bit.  T = length + past puts the final row at the
    end of the first block (past = -1), alone in the second (past = 0) or
    second in it (past = 1)."""
    problem, graph, compressor, contract, hyper, x0_seed = data.draw(cases(kind, init_mode))
    horizon = length + past
    traces = []
    for rows in (1, length, horizon + 1 + data.draw(st.integers(0, 5))):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(algorithm, "RECORD_BUDGET", rows * graph.n * problem.d)
            traces.append(run(problem, graph, compressor, hyper, T=horizon,
                              init_mode=init_mode, x0_seed=x0_seed, contract=contract))
    first = traces[0]
    for other in traces[1:]:
        for name in TRACE_DTYPE.names:
            assert np.array_equal(other.rows[name], first.rows[name], equal_nan=True), name
        for name in ("x", "v", "x_hat", "y"):
            assert np.array_equal(getattr(other.final_state, name),
                                  getattr(first.final_state, name))
    assert np.isnan(first.surr_post_pmax[-1]) and np.isnan(first.surr_post_l2sq[-1])


@pytest.mark.parametrize("kind,init_mode,omega", [
    (k, m, w) for k in ("one_bit", "sat_quant", "norm_sign", "top_k")
    for m in INIT_MODES for w in (0.3, 0.6, 1.0)])
@SETTINGS
@given(data=st.data())
def test_local_contraction_holds_where_the_region_holds(kind, init_mode, omega, data):
    problem, graph, compressor, contract, hyper, x0_seed = data.draw(
        cases(kind, init_mode, noises=("0",)))
    if kind == "top_k":
        contract = compressor.sound_contract(problem.d)
    hyper = dataclasses.replace(hyper, omega=omega)
    trace = run(problem, graph, compressor, hyper, T=30, init_mode=init_mode,
                x0_seed=x0_seed, contract=contract)
    report = contraction_local_check(trace, contract, omega)
    assert report.violations == 0, report


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(regime=st.sampled_from(("T1_local_nonconvex", "T2_local_exact_first")),
       kind=st.sampled_from(("one_bit", "sat_quant", "norm_sign")),
       topology=st.sampled_from(("ring", "path", "complete", "erdos_renyi")),
       horizon=st.sampled_from((50, 200, 400)), data=st.data())
def test_certified_selection_shrinks_the_scale_inside_the_region(regime, kind, topology,
                                                                 horizon, data):
    # with the stepsize clamped and the recursion admissible (its fixed point
    # at most s0), the induction behind the region guarantee applies as proved
    n, d = data.draw(st.integers(3, 10)), data.draw(st.integers(2, 6))
    graph = build_graph(topology, n, seed=data.draw(st.integers(0, 2 ** 16)))
    make = data.draw(st.sampled_from((make_quadratic, make_nonconvex)))
    problem = make(n, d, seed=data.draw(st.integers(0, 2 ** 16)))
    compressor = config.build_compressor_from(
        {"compressor": {"kind": kind, "level": "1.5", "step": "0.4"}},
        data.draw(st.integers(0, 2 ** 64 - 1)))
    contract = compressor.contract(d)
    sel = theorem_params(regime, problem, graph, contract, T=horizon,
                         x0_seed=data.draw(st.integers(0, 2 ** 64 - 1)), clamp_alpha=True)
    assume(sel.feasibility["recursive_admissible"][0])
    trace = run(problem, graph, compressor, sel.hyper, T=horizon, init_mode=sel.init_mode,
                x0=sel.x0, contract=contract)
    # s_k falls to its fixed point, where rounding may lift it by an ulp
    s = trace.s_k
    assert np.all(s[1:] <= s[:-1] * (1.0 + 4.0 * np.finfo(float).eps))
    for name in (*CSV_COLUMNS, "surr_pre_pmax"):
        assert np.all(np.isfinite(trace.rows[name])), name
    # the final row has no exchange after it
    for name in ("surr_post_pmax", "surr_post_l2sq"):
        assert np.all(np.isfinite(trace.rows[name][:-1])), name
    assert trace.region_ok.all()
    report = contraction_local_check(trace, contract, sel.hyper.omega)
    assert report.passed, report
