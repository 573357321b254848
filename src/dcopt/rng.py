"""Counter-based random substreams.

Every random draw in the library flows from a single 64-bit seed through a
named Philox substream keyed by (seed, purpose) with the counter set from
(tag, iteration).  A stream's draws depend only on its coordinates, never on
execution order.  A compression round draws from one generator, built from
its (tag, iteration) coordinates, which fills every row in turn, so
compressing one vector is a round of one row; scalarization's shared
direction is the round's first draw, and every row projects on it.  A
verification point's trials are one-agent rounds drawn as one stack, its one
input broadcast against them.  Every unit direction (a scalarization round's,
a noise draw's, a verification point's) comes from ``sphere_point``.
"""

import numpy as np

# purpose ids for the named substreams
GRAPH = 1
X0 = 2
COMPRESSOR = 3
PROBLEM = 6
VERIFY = 7


def substream(seed: int, purpose: int, tag: int = 0, iteration: int = 0) -> np.random.Generator:
    """Return a fresh generator for the given stream coordinates."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, purpose], dtype=np.uint64)
    counter = np.array([0, tag, 0, iteration], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def sphere_point(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform draws from the unit sphere, one along the last axis of ``shape``
    (an int for one point).  ``sqrt(vecdot)`` rounds like the 1-d norm."""
    g = rng.standard_normal(shape)
    g /= np.sqrt(np.vecdot(g, g))[..., None]
    return g
