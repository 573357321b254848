"""Graph Laplacians and the matrices the analysis runs on.

Builds each topology, prints the spectral constants, and checks the
identities F L = E and rho_2(L) E <= L <= rho(L) E numerically.
"""

import numpy as np

from dcopt import build_graph

for topology, n in [("path", 5), ("ring", 8), ("complete", 6), ("erdos_renyi", 10)]:
    g = build_graph(topology, n, prob=0.4, seed=7)
    E = np.eye(n) - 1.0 / n      # the centering projector
    edges = int(g.adjacency.sum() // 2)
    print(f"{topology}-{n}: {edges} edges, rho_2(L)={g.rho2:.4f}, rho(L)={g.rho:.4f}")
    print(f"  ||FL - E||_max = {np.abs(g.F @ g.laplacian - E).max():.2e}")

    rng = np.random.default_rng(1)
    worst_lo, worst_hi = np.inf, np.inf
    for _ in range(200):
        x = rng.standard_normal(n)
        qE, qL = x @ E @ x, x @ g.laplacian @ x
        worst_lo = min(worst_lo, qL - g.rho2 * qE)
        worst_hi = min(worst_hi, g.rho * qE - qL)
    print(f"  quadratic-form sandwich slack: lower {worst_lo:.2e}, upper {worst_hi:.2e}")
    print()

print("a denser graph has a larger spectral gap, which loosens every")
print("agreement-related constant downstream (e.g. kappa_1 = 4 / rho_2):")
for topology, n in [("path", 8), ("ring", 8), ("complete", 8)]:
    g = build_graph(topology, n)
    print(f"  {topology}-8: kappa_1 = {4.0 / g.rho2:.3f}")
