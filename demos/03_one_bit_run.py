"""One full run: ten agents minimize a heterogeneous nonconvex cost over a
ring while exchanging a single bit per coordinate per round.

The surrogate-tracking loop compresses the scaled difference
(x - xhat)/s_k, so the 1-bit outputs carry less and less absolute error as
the scaling s_k shrinks.  The trace shows stationarity and consensus
falling while the cumulative bit count grows d bits per agent per round.
"""

import numpy as np

from dcopt import (
    GeometricSchedule,
    HyperParams,
    OneBit,
    build_graph,
    make_nonconvex,
    run,
)
from dcopt.algorithm import draw_x0, s0_floor

n, d, T = 10, 6, 800
problem = make_nonconvex(n, d, seed=4)
graph = build_graph("ring", n)
compressor = OneBit(4.0, seed=11)
contract = compressor.contract(d)

# s0 must cover the round-0 input: the surrogate starts at zero, so the
# compressor sees x0 / s0, which has to fit inside the level-C region.
# omega < 1 softens the surrogate jumps (each one is +-omega s_k C/2 per
# coordinate), keeping later inputs inside the region as s_k shrinks.
x0 = draw_x0(n, d, "standard", 3)
s0 = s0_floor(x0, contract, margin=1.5)
hyper = HyperParams(alpha=0.2, beta=0.9, gamma=0.6, omega=0.3,
                    schedule=GeometricSchedule(s0, 0.998))
trace = run(problem, graph, compressor, hyper, T=T, x0=x0, contract=contract)

print(f"{'k':>5s} {'f(xbar)':>10s} {'|grad f|^2':>11s} {'consensus':>10s} "
      f"{'s_k':>8s} {'kbits':>7s}")
for k in (0, 10, 50, 100, 200, 400, 800):
    print(f"{k:5d} {trace.f_bar[k]:10.5f} {trace.grad_sq[k]:11.2e} "
          f"{trace.consensus[k]:10.2e} {trace.s_k[k]:8.4f} "
          f"{trace.bits_cum[k] / 1000:7.1f}")

uncompressed = 32 * d * n * T
print(f"\nregion violations: {int((~trace.region_ok).sum())} of {T + 1} rounds")
print(f"bits sent: {int(trace.bits_cum[-1])} "
      f"({trace.bits_cum[-1] / uncompressed:.1%} of 32-bit exchange)")
print(f"dual-mean invariant |mean v| = "
      f"{np.abs(trace.final_state.v.mean(axis=0)).max():.2e}")
