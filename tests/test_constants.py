import math

import numpy as np
import pytest

from dcopt import build_graph, compute_constants, make_nonconvex, make_quadratic, theorem_params
from dcopt.compressors import LOCAL, AssumptionContract, NormContext, OneBit, UnbiasedKBit
from dcopt.constants import _kappa5_root, positivity_flags
from dcopt.errors import InfeasibleParams

LOCAL_CT = AssumptionContract(LOCAL, np.inf, 1.0, 1.0, 0.5)


def _table(graph, ell=1.0, gamma=None, tau_1=None, alpha=1e-4, omega=1.0, **kw):
    probe = compute_constants(graph, ell, 1.0, 1.0, omega, 1e-12, LOCAL_CT,
                              NormContext(np.inf, 4))
    gamma = gamma if gamma is not None else 1.05 * probe.kappa_2
    tau_1 = tau_1 if tau_1 is not None else 1.05 * probe.kappa_1
    return compute_constants(graph, ell, gamma, tau_1, omega, alpha, LOCAL_CT,
                             NormContext(np.inf, 4), **kw), gamma, tau_1


def test_kappa1_kappa2_path3():
    g = build_graph("path", 3)
    t, _, _ = _table(g, ell=1.0)
    assert t.kappa_1 == pytest.approx(4.0, abs=1e-12)
    # independent hand evaluation: max{2+2, 5, (16*25)^(1/3), 2 sqrt(2)}
    assert t.kappa_2 == pytest.approx(400.0 ** (1.0 / 3.0), abs=1e-12)
    assert t.kappa_2 == pytest.approx(7.368062997280773, abs=1e-10)


def test_eps5_eps8_values():
    g = build_graph("path", 3)
    t, _, _ = _table(g)   # omega = 1, r = 1, delta = 1/2
    assert t.eps_5 == pytest.approx(0.375, abs=1e-15)
    assert t.eps_8 == pytest.approx(0.328125, abs=1e-15)


def test_positivity_under_stated_margins():
    for topo, n in (("path", 3), ("ring", 6), ("complete", 5)):
        g = build_graph(topo, n)
        t, gamma, tau_1 = _table(g, ell=0.7)
        flags = positivity_flags(t, gamma, tau_1, 1e-6)
        assert all(ok for ok, _, _ in flags.values()), flags


def test_kappa_monotone_in_rho2():
    # same formulas, increasing rho2 never increases kappa_1 or kappa_2
    graphs = [build_graph("path", 6), build_graph("ring", 6), build_graph("complete", 6)]
    graphs.sort(key=lambda g: g.rho2)
    vals = [_table(g, ell=1.0)[0] for g in graphs]
    for a, b in zip(vals, vals[1:]):
        assert b.kappa_1 <= a.kappa_1 + 1e-12
        assert b.kappa_2 <= a.kappa_2 + 1e-12


def test_kappa5_root_against_scan():
    g = build_graph("complete", 4)
    t, gamma, tau_1 = _table(g, ell=0.5)
    root = _kappa5_root(t.phi_1, t.phi_2, t.phi_3, t.phi_4)
    f = lambda a: a * min(t.phi_1 - a * t.phi_2, t.phi_3 - a * t.phi_4)
    if math.isfinite(root):
        assert f(root) == pytest.approx(1.0, abs=1e-6)
        grid = np.linspace(1e-9, root * 0.999, 4000)
        assert np.all([f(a) < 1.0 for a in grid])
    else:
        grid = np.linspace(1e-9, 10.0, 20000)
        assert np.all([f(a) < 1.0 for a in grid])


def test_theorem1_alpha_display():
    prob = make_nonconvex(10, 4, seed=3)
    g = build_graph("complete", 10)
    sel = theorem_params("T1_local_nonconvex", prob, g, OneBit(1.0).contract(4),
                         T=10_000, x0_seed=1)
    d_tilde = 4 ** 0.5
    assert sel.extras["alpha_display"] == pytest.approx(
        1.0 / (10 ** 0.25 * d_tilde * 100.0))
    assert sel.hyper.beta == pytest.approx(sel.hyper.tau_1 * sel.hyper.gamma)
    assert sel.hyper.schedule.mode == "recursive"
    assert "T_above_kappa_tilde_3" in sel.feasibility


def test_theorem1_clamped_alpha_certifies_recursion():
    prob = make_nonconvex(6, 4, seed=5)
    g = build_graph("ring", 6)
    sel = theorem_params("T1_local_nonconvex", prob, g, OneBit(2.0).contract(4),
                         T=500, x0_seed=2, clamp_alpha=True)
    ok, val, bound = sel.feasibility["alpha_within_kappa_tilde_0_prime"]
    assert ok and val < bound
    ok, val, bound = sel.feasibility["recursive_admissible"]
    assert ok and val <= bound
    # scaling stays below its initial value for the whole horizon
    sched = sel.hyper.schedule
    assert all(sched.value(k) <= sched.s0 * (1 + 1e-12) for k in range(0, 501, 50))


def test_recursive_admissibility_at_large_horizon():
    # T above kappa_tilde_3 makes the display stepsize itself admissible
    prob = make_nonconvex(6, 4, seed=5)
    g = build_graph("ring", 6)
    probe = theorem_params("T1_local_nonconvex", prob, g, OneBit(2.0).contract(4),
                           T=1000, x0_seed=2)
    kt3 = probe.table.kappa_tilde_3
    big_T = int(kt3 * 1.2) + 1
    sel = theorem_params("T1_local_nonconvex", prob, g, OneBit(2.0).contract(4),
                         T=big_T, x0_seed=2)
    assert sel.feasibility["T_above_kappa_tilde_3"][0]
    assert sel.feasibility["alpha_within_kappa_tilde_0_prime"][0]
    assert sel.feasibility["recursive_admissible"][0]


def test_theorem3_selection_feasible():
    prob = make_quadratic(5, 3, seed=7, condition_number=5.0)
    g = build_graph("ring", 5)
    sel = theorem_params("T3_local_PL", prob, g, OneBit(2.0).contract(3), x0_seed=3)
    assert all(ok for ok, _, _ in sel.feasibility.values()), sel.feasibility
    eps = sel.extras["epsilon"]
    assert max(sel.table.kappa_9, sel.table.kappa_10) < eps < 1.0
    assert sel.hyper.schedule.mode == "geometric"


def test_theorem5_selection():
    prob = make_nonconvex(5, 4, seed=9)
    g = build_graph("ring", 5)
    cpr = UnbiasedKBit(3, seed=1)
    sel = theorem_params("T5_global_nonconvex", prob, g, cpr.contract(4), x0_seed=4)
    assert sel.hyper.alpha < sel.table.kappa_hat_0_prime
    assert sel.hyper.schedule.s0 >= max(np.linalg.norm(sel.x0[i]) for i in range(5))


def test_theorem6_linear_factor():
    prob = make_quadratic(5, 3, seed=11, condition_number=4.0)
    g = build_graph("complete", 5)
    cpr = UnbiasedKBit(3, seed=1)
    sel = theorem_params("T6_global_PL", prob, g, cpr.contract(3), x0_seed=5,
                         epsilon=0.98)
    assert sel.extras["eps_hat"] is not None and sel.extras["eps_hat"] < 1.0


def test_regime_validation():
    prob = make_nonconvex(4, 3, seed=13)
    g = build_graph("ring", 4)
    local = OneBit(1.0).contract(3)
    glob = UnbiasedKBit(3).contract(3)
    with pytest.raises(InfeasibleParams):
        theorem_params("T1_local_nonconvex", prob, g, glob, T=100)
    with pytest.raises(InfeasibleParams):
        theorem_params("T5_global_nonconvex", prob, g, local)
    with pytest.raises(InfeasibleParams):
        theorem_params("T3_local_PL", prob, g, local)   # no pl_nu
    with pytest.raises(InfeasibleParams):
        theorem_params("T1_local_nonconvex", prob, g, local)   # no T
    with pytest.raises(InfeasibleParams):
        theorem_params("T9_unknown", prob, g, local)
    with pytest.raises(InfeasibleParams):
        theorem_params("T1_local_nonconvex", prob, g, local, T=200, strict=True)
