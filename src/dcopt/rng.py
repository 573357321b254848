"""Counter-based random substreams.

Every random draw in the library flows from a single 64-bit seed through a
named Philox substream keyed by (seed, purpose) with the counter set from
(tag, iteration).  A stream's draws depend only on its coordinates, never on
execution order.  A compression round is one block draw: the round's
generator comes from its (tag, iteration) coordinates and fills every row in
turn, so compressing one vector is a round of one row.  A round's input
rows broadcast against its draw shape: a verification point is one input
row against ``trials`` rows of draws.  Scalarization's shared direction
has its own stream keyed by the iteration alone.
"""

import numpy as np

# purpose ids for the named substreams
GRAPH = 1
X0 = 2
COMPRESSOR = 3
SCALARIZATION = 5
PROBLEM = 6
VERIFY = 7


def substream(seed: int, purpose: int, tag: int = 0, iteration: int = 0) -> np.random.Generator:
    """Return a fresh generator for the given stream coordinates."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, purpose], dtype=np.uint64)
    counter = np.array([0, tag, 0, iteration], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def sphere_point(rng: np.random.Generator, d: int) -> np.ndarray:
    """Uniform draw from the unit sphere."""
    g = rng.standard_normal(d)
    return g / np.linalg.norm(g)
