"""Tour of the compressor catalogue.

Compresses one sample vector with every kind, printing the output, the
per-round bit cost, and the error, then verifies a deterministic and a
stochastic contract.
"""

import numpy as np

from dcopt import compressors as comp

x = np.array([0.9, -0.35, 0.02, 1.6, -2.2, 0.0])
d = len(x)
print(f"input ({d} coords, 32-bit floats would cost {32 * d} bits):")
print(" ", np.round(x, 3), "\n")

catalogue = [
    ("1-bit sign", comp.OneBit(2.5)),
    ("saturating quantizer", comp.SaturatingQuantizer(2.0, 0.5)),
    ("top-2", comp.TopK(2)),
    ("norm-sign", comp.NormSign()),
    ("unbiased 3-bit dither", comp.UnbiasedKBit(3, seed=1)),
    ("rand-2", comp.RandK(2, seed=1)),
    ("scalarization", comp.Scalarization(seed=1)),
    ("uniform quantizer", comp.UniformQuantizer(0.5)),
    ("noisy rand-2", comp.Noisy(comp.RandK(2, seed=1), 0.1)),
    ("3-bit of uniform", comp.compose_kbit_of_uniform(3, 0.5, seed=1)),
]

for name, c in catalogue:
    (q,), bits = c.apply(x[None], iteration=0)
    err = np.linalg.norm(q - x)
    print(f"{name:24s} bits={bits:4d}  l2 err={err:6.3f}  q={np.round(q, 3)}")

print("\nverifying the 1-bit local contract (p=inf, r=1, C=level, delta=1/2):")
ob = comp.OneBit(2.5)
report = comp.verify_local_assumption(ob, ob.contract(d), samples=5000, seed=0, d=d)
print(f"  max error ratio {report.max_ratio:.6f} over {report.samples} points "
      f"-> {'pass' if report.passed else 'fail'}")

print("\nverifying the noisy rand-2 mean-square contract (noise-wrapper rule):")
nc = comp.Noisy(comp.RandK(2, seed=1), 0.1)
contract = nc.contract(d)
print(f"  derived contract: delta={contract.delta:.3f}, C={contract.C:.4f}")
report = comp.verify_global_assumption(nc, contract, trials_per_sample=5000, seed=0, d=d)
print(f"  worst mean/(bound+3se) = {report.max_ratio:.4f} "
      f"-> {'pass' if report.passed else 'fail'}")
