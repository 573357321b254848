"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report.  Expensive artifacts (the certified region run, the two horizon
sweeps) are shared through module-scoped fixtures.
"""

import math
import time

import numpy as np
import oracle
import pytest

import dcopt
from dcopt import compressors as comp
from dcopt.diagnostics import (
    contraction_global_check,
    contraction_local_check,
    lyapunov_descent_check,
    lyapunov_sandwich_check,
    rate_fit,
)


def _report(num, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {num}: {status} — {detail}")
    assert passed, f"criterion {num}: {detail}"


# -- criterion 1: deterministic compressor contracts -------------------------

def test_criterion_01_local_contracts():
    t0 = time.time()
    results = {}
    for c in (comp.OneBit(1.0), comp.SaturatingQuantizer(2.0, 1.0), comp.NormSign()):
        rep = comp.verify_local_assumption(c, c.contract(6), samples=10_000, seed=1)
        results[c.kind] = rep
    tk = comp.TopK(2)
    results["top_k(corrected delta)"] = comp.verify_local_assumption(
        tk, tk.sound_contract(6), samples=10_000, seed=1)
    elapsed = time.time() - t0
    ok = all(r.passed and r.max_ratio <= 1 + 1e-12 for r in results.values())
    _report("1", ok and elapsed < 5.0,
            f"one_bit/sat_quant/norm_sign at their advertised (p,r,C,delta) and top_k at "
            f"delta=1-sqrt(1-k/d): max_ratio <= 1+1e-12, {elapsed:.1f}s")


@pytest.mark.xfail(strict=True,
                   reason="top-k cannot satisfy the unsquared local bound with "
                          "delta = k/d: any equal-magnitude boundary point has "
                          "error ratio 1/sqrt(1-k/d) > 1; the squared bound and "
                          "the corrected delta = 1-sqrt(1-k/d) both hold")
def test_criterion_01_top_k_at_delta_k_over_d():
    tk = comp.TopK(2)
    rep = comp.verify_local_assumption(tk, tk.contract(6), samples=10_000, seed=1)
    print(f"criterion 1 (top_k at delta=k/d): "
          f"{'PASS' if rep.passed else 'FAIL'} — max_ratio={rep.max_ratio:.4f} "
          f"(documented defect, expected FAIL)")
    assert rep.passed


# -- criterion 2: stochastic compressor contracts ----------------------------

def test_criterion_02_global_contracts():
    t0 = time.time()
    d = 8
    specs = [
        comp.UnbiasedKBit(3, seed=5),
        comp.RandK(3, seed=5),
        comp.Scalarization(seed=5),
        comp.UniformQuantizer(0.5, seed=5),
        comp.Noisy(comp.UnbiasedKBit(3, seed=5), 2.0),
        comp.Noisy(comp.RandK(3, seed=5), 2.0),
        comp.Noisy(comp.Scalarization(seed=5), 2.0),
        comp.Noisy(comp.UniformQuantizer(0.5, seed=5), 2.0),
        comp.compose_kbit_of_uniform(3, 0.5, 1.0, 1.0, seed=5),
        comp.compose_uniform_of_kbit(3, 0.5, 1.0, 1.0, seed=5),
    ]
    failures = []
    for c in specs:
        rep = comp.verify_global_assumption(c, c.contract(d), samples=16,
                                            trials_per_sample=10_000, seed=3, d=d)
        if not rep.passed:
            failures.append((repr(c), rep.max_ratio))
    elapsed = time.time() - t0
    _report("2", not failures and elapsed < 60.0,
            f"{len(specs)} global specs at 1e4 trials/point with 3-SE margin, "
            f"{elapsed:.1f}s{'; failures: ' + str(failures) if failures else ''}")


# -- criterion 3: state-machine identities over a smoke matrix ---------------

SMOKE_GRAPHS = [("path", 3), ("ring", 6), ("complete", 5), ("erdos_renyi", 8)]


def _smoke_compressors(seed):
    return [
        comp.OneBit(2.0, seed=seed),
        comp.SaturatingQuantizer(4.0, 0.5, seed=seed),
        comp.TopK(2, seed=seed),
        comp.NormSign(seed=seed),
        comp.UnbiasedKBit(3, seed=seed),
        comp.RandK(2, seed=seed),
        comp.Scalarization(seed=seed),
        comp.UniformQuantizer(0.5, seed=seed),
        comp.Noisy(comp.RandK(2, seed=seed), 0.5),
        comp.compose_kbit_of_uniform(3, 0.5, 0.5, 0.5, seed=seed),
    ]


def test_criterion_03_state_machine_identities():
    worst = 0.0
    configs = 0
    for idx, cpr in enumerate(_smoke_compressors(seed=100)):
        for jdx, family in enumerate(("quadratic", "nonconvex")):
            topo, n = SMOKE_GRAPHS[(idx + jdx) % len(SMOKE_GRAPHS)]
            g = dcopt.build_graph(topo, n, prob=0.5, seed=6)
            if family == "quadratic":
                prob = dcopt.make_quadratic(n, 4, seed=idx, condition_number=5.0)
            else:
                prob = dcopt.make_nonconvex(n, 4, seed=idx)
            hyper = dcopt.HyperParams(alpha=0.05, beta=0.75, gamma=0.5, omega=1.0,
                                      schedule=dcopt.GeometricSchedule(3.0, 0.995))
            st = dcopt.init_state(prob, g, hyper, "standard", x0_seed=idx)
            for _ in range(50):
                xbar = st.x.mean(axis=0)
                gbar = prob.stacked_gradients(st.x).mean(axis=0)
                st = dcopt.step(st, prob, g, cpr, hyper)
                worst = max(worst,
                            np.abs(st.v.mean(axis=0)).max(),
                            np.abs(st.y - g.laplacian @ st.x_hat).max(),
                            np.abs(st.x.mean(axis=0) - (xbar - hyper.alpha * gbar)).max())
            configs += 1
    _report("3", configs == 20 and worst <= 1e-10,
            f"{configs} configs x 50 iterations; worst identity residual {worst:.2e}")


# -- criteria 4 & 5: region guarantee and contraction ------------------------

@pytest.fixture(scope="module")
def region_run():
    prob = dcopt.make_nonconvex(10, 6, seed=21)
    g = dcopt.build_graph("ring", 10)
    cpr = comp.OneBit(4.0, seed=77)
    ct = cpr.contract(6)
    sel = dcopt.theorem_params("T1_local_nonconvex", prob, g, ct, T=2000,
                               x0_seed=5, clamp_alpha=True)
    trace = dcopt.run(prob, g, cpr, sel.hyper, T=2000, init_mode=sel.init_mode,
                      x0=sel.x0, contract=ct)
    return prob, g, ct, sel, trace


def test_criterion_04_region_guarantee(region_run):
    _, _, ct, sel, trace = region_run
    violations = int((~trace.region_ok).sum())
    ok_flags = sel.feasibility["alpha_within_kappa_tilde_0_prime"][0] \
        and sel.feasibility["recursive_admissible"][0]
    _report("4", violations == 0 and ok_flags,
            f"ring-10 one-bit T=2000 with certified stepsize "
            f"(alpha={sel.hyper.alpha:.2e}, display {sel.extras['alpha_display']:.2e} "
            f"flagged infeasible at this horizon): {violations} region violations")


def test_criterion_05_contraction(region_run):
    prob, g, ct, sel, trace = region_run
    local = contraction_local_check(trace, ct, sel.hyper.omega)

    ct_g = comp.UnbiasedKBit(3, seed=0).contract(6)
    sel_g = dcopt.theorem_params("T5_global_nonconvex", prob, g, ct_g,
                                 x0_seed=5, epsilon=0.995)
    traces = []
    for s in range(50):
        cpr = comp.UnbiasedKBit(3, seed=1000 + s)
        traces.append(dcopt.run(prob, g, cpr, sel_g.hyper, T=150,
                                init_mode=sel_g.init_mode, x0=sel_g.x0,
                                contract=ct_g))
    glob = contraction_global_check(traces, ct_g, sel_g.hyper.omega, n=10)
    _report("5", local.passed and glob.passed,
            f"deterministic per-step bound: {local.violations} violations over "
            f"{local.checked} steps; mean-square bound over 50 seeds: "
            f"{glob.violations} violations (3-SE margin)")


# -- criterion 6: linear convergence under gradient domination ---------------

def test_criterion_06_linear_convergence():
    t0 = time.time()
    prob = dcopt.make_quadratic(10, 6, seed=33, condition_number=5.0)
    g = dcopt.build_graph("ring", 10)
    alpha, tau_1, gamma, rate = 0.45, 1.5, 0.4, 0.96
    x0 = dcopt.init_state(prob, g, dcopt.HyperParams(
        alpha=alpha, beta=tau_1 * gamma, gamma=gamma, omega=1.0,
        schedule=dcopt.ConstantSchedule(1.0)), "standard", x0_seed=7).x

    outcomes = {}
    cases = {
        "sat_quant": (comp.SaturatingQuantizer(30.0, 0.5, seed=3),
                      1.1 * np.abs(x0).max() / 30.0),
        "unbiased_kbit+noise": (comp.Noisy(comp.UnbiasedKBit(4, seed=3), 0.5), 1.0),
    }
    for name, (cpr, s0) in cases.items():
        hyper = dcopt.HyperParams(alpha=alpha, beta=tau_1 * gamma, gamma=gamma,
                                  omega=1.0,
                                  schedule=dcopt.GeometricSchedule(s0, rate),
                                  tau_1=tau_1)
        tr = dcopt.run(prob, g, cpr, hyper, T=500, x0=x0,
                       contract=cpr.contract(6))
        series = tr.f_bar - prob.f_star + tr.consensus
        ratio, r2 = rate_fit(tr.k[20:501], series[20:501], "geometric",
                             burn_in_frac=0.0)
        outcomes[name] = (ratio, r2, series[500] / series[0])

    elapsed = time.time() - t0
    ok = all(ratio < 1.0 and r2 >= 0.98 and final_rel <= 1e-8
             for ratio, r2, final_rel in outcomes.values())
    detail = "; ".join(f"{k}: ratio={v[0]:.4f}, R2={v[1]:.4f}, final/initial={v[2]:.1e}"
                       for k, v in outcomes.items())
    _report("6", ok and elapsed < 30.0, f"{detail}; {elapsed:.1f}s")


# -- criteria 7 & 8: sum-rate sweeps ------------------------------------------

SWEEP_HORIZONS = [1000, 4000, 16000]


@pytest.fixture(scope="module")
def sweep_setup():
    prob = dcopt.make_nonconvex(10, 5, seed=41)
    g = dcopt.build_graph("complete", 10)
    ct = comp.OneBit(1.0).contract(5)
    return prob, g, ct


def _run_sweep(prob, g, ct, regime):
    cpr = comp.OneBit(1.0, seed=13)
    metrics = []
    for T in SWEEP_HORIZONS:
        sel = dcopt.theorem_params(regime, prob, g, ct, T=T, x0_seed=11)
        tr = dcopt.run(prob, g, cpr, sel.hyper, T=T, init_mode=sel.init_mode,
                       x0=sel.x0, contract=ct)
        metrics.append(float(np.mean(tr.grad_sq[:-1] + tr.consensus[:-1])))
    exponent, r2 = rate_fit(SWEEP_HORIZONS, metrics, "power_law", burn_in_frac=0.0)
    return metrics, exponent, r2


@pytest.fixture(scope="module")
def t1_sweep(sweep_setup):
    t0 = time.time()
    out = _run_sweep(*sweep_setup, "T1_local_nonconvex")
    return out + (time.time() - t0,)


@pytest.fixture(scope="module")
def t2_sweep(sweep_setup):
    return _run_sweep(*sweep_setup, "T2_local_exact_first")


def test_criterion_07_nonconvex_sum_rate(t1_sweep):
    metrics, exponent, r2, elapsed = t1_sweep
    nonincreasing = all(b <= a * (1 + 1e-9) for a, b in zip(metrics, metrics[1:]))
    _report("7", nonincreasing and exponent <= -0.3 and elapsed < 300.0,
            f"T1 sweep metrics {['%.3e' % m for m in metrics]}, exponent "
            f"{exponent:.3f} (<= -0.3), R2={r2:.3f}, {elapsed:.0f}s")


def test_criterion_08_exact_first_round_improvement(t1_sweep, t2_sweep):
    _, e1, _, _ = t1_sweep
    metrics2, e2, r2 = t2_sweep
    margin_ok = e2 <= e1 - 0.05
    if margin_ok:
        _report("8", True, f"T2 exponent {e2:.3f} <= T1 exponent {e1:.3f} - 0.05")
    else:
        # documented waiver: rates are upper bounds, not exact laws
        waiver = e1 <= -0.3 and e2 <= -0.4
        _report("8", waiver,
                f"margin failed (T1 {e1:.3f}, T2 {e2:.3f}) but both satisfy their "
                f"upper bounds — recorded waiver" if waiver else
                f"margin failed and T2 ({e2:.3f}) misses its upper-bound check")


# -- criterion 9: constant formulas -------------------------------------------

def test_criterion_09_constant_formulas():
    g = dcopt.build_graph("path", 3)
    ct = comp.OneBit(1.0).contract(4)
    probe = dcopt.compute_constants(g, 1.0, gamma=8.0, tau_1=4.2, omega=1.0,
                                    alpha=1e-6, contract=ct, d=4)
    # independent hand evaluation of the two displays
    kappa_1_hand = 4.0 / 1.0
    kappa_2_hand = max(2.0 + 2.0, 5.0, (16.0 * (4.0 + 1.0) ** 2) ** (1.0 / 3.0),
                       2.0 * math.sqrt(2.0))
    ok = abs(probe.kappa_1 - kappa_1_hand) <= 1e-12 \
        and abs(probe.kappa_2 - kappa_2_hand) <= 1e-12 \
        and abs(probe.kappa_2 - 7.368062997280773) <= 1e-10
    _report("9", ok, f"kappa_1={probe.kappa_1}, kappa_2={probe.kappa_2:.12f} "
                     f"match hand-evaluated displays to 1e-12")


# -- criterion 10: Lyapunov checks in a certified gradient-dominated run ------

def test_criterion_10_lyapunov_checks():
    prob = dcopt.make_quadratic(10, 4, seed=51, condition_number=4.0)
    g = dcopt.build_graph("ring", 10)
    cpr = comp.SaturatingQuantizer(8.0, 0.25, seed=17)
    ct = cpr.contract(4)
    sel = dcopt.theorem_params("T3_local_PL", prob, g, ct, x0_seed=19, strict=True)
    tr = dcopt.run(prob, g, cpr, sel.hyper, T=400, init_mode=sel.init_mode,
                   x0=sel.x0, contract=ct)
    t = sel.table
    sandwich = lyapunov_sandwich_check(tr, t.eps_1, t.eps_2, sel.hyper.gamma,
                                       sel.hyper.beta)
    descent = lyapunov_descent_check(tr, sel.hyper.alpha, t.eps_6, t.eps_5,
                                     t.psi_2, ct.C, ct.d_tilde(4), 10)
    _report("10", sandwich.passed and descent.passed,
            f"sandwich: {sandwich.violations} violations over {sandwich.checked} "
            f"iterations; descent: {descent.violations} violations")


# -- criterion 11: bit accounting ---------------------------------------------

def test_criterion_11_bit_accounting():
    n, d, T = 4, 3, 5
    prob = dcopt.make_quadratic(n, d, seed=14)
    g = dcopt.build_graph("ring", n)
    hyper = dcopt.HyperParams(alpha=0.05, beta=1.0, gamma=0.5, omega=1.0,
                              schedule=dcopt.ConstantSchedule(5.0))
    tr = dcopt.run(prob, g, dcopt.OneBit(2.0, seed=2), hyper, T=T, x0_seed=15,
                   init_mode="exact_first_round")
    expected_total = n * d * 32 + T * n * d   # initial charge + d bits/agent/round
    ok = int(tr.bits_cum[-1]) == expected_total \
        and np.array_equal(tr.bits_cum, n * d * 32 + n * d * np.arange(T + 1))

    # variable-bit kind: replay the exact inputs and apply the printed formula
    cpr = dcopt.UniformQuantizer(0.5, seed=2)
    st = dcopt.init_state(prob, g, hyper, "standard", x0_seed=15)
    expected = 0
    for _ in range(3):
        U = (st.x - st.x_hat) / st.s_k
        for i in range(n):
            levels = 2 * math.floor(np.abs(U[i]).max() / 0.5) + 1
            expected += d * max(1, math.ceil(math.log2(levels)))
        st = dcopt.step(st, prob, g, cpr, hyper)
    ok = ok and st.bits_cum == expected
    _report("11", ok, f"one-bit trace total {int(tr.bits_cum[-1])} == {expected_total} "
                      f"(with n*d*32 initial charge); uniform-quant replay matches")


# -- criterion 12: determinism ------------------------------------------------

def test_criterion_12_determinism(tmp_path):
    import dcopt.cli as cli
    cfg = f"""
[problem]
family = nonconvex
d = 4
seed = 8

[graph]
topology = erdos_renyi
n = 6
prob = 0.5
seed = 3

[compressor]
kind = unbiased_kbit
kbits = 3
noise = 0.3

[algorithm]
mode = empirical
T = 40
seed = 77
alpha = 0.05
gamma = 0.5
tau_1 = 1.5
omega = 1.0
schedule = geometric
rate = 0.99

[output]
directory = {tmp_path / 'run'}
"""
    p = tmp_path / "det.ini"
    p.write_text(cfg)
    assert cli.cmd_run(str(p)) == 0
    first = (tmp_path / "run" / "trace.csv").read_bytes()
    assert cli.cmd_run(str(p), force=True) == 0
    second = (tmp_path / "run" / "trace.csv").read_bytes()

    # the batched engine must equal the per-agent reference loop bit for bit
    from dcopt.config import build_run_plan, load_config
    plan = build_run_plan(load_config(p))
    args, kwargs = (plan.problem, plan.graph, plan.compressor, plan.hyper), plan.run_kwargs
    batched = dcopt.run(*args, **kwargs)
    ref, _ = oracle.run(*args, kwargs["T"], kwargs["init_mode"],
                        x0=kwargs["x0"], contract=kwargs["contract"])
    csv_equal = first == second
    arrays_equal = not oracle.mismatches(
        batched, ref, ("f_bar", "grad_sq", "consensus", "e1", "e2", "e3", "e4", "e5",
                       "s_k", "bits_cum", "surr_post_pmax"))
    _report("12", csv_equal and arrays_equal,
            "same config+seed gives byte-identical CSV; batched run equals "
            "the per-agent reference bit for bit (e1, e3 to 1e-12 of their scale)")
