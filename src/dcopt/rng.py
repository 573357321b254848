"""Counter-based random substreams.

Every random draw in the library flows from a single 64-bit seed through a
named Philox substream keyed by (seed, purpose) with the counter set from
(tag, agent, iteration).  A fresh generator is built per call, so draws are
independent of execution order: a batched round and a loop over agents, or
sharded verification sweeps, produce identical results.
"""

import numpy as np

# purpose ids for the named substreams
GRAPH = 1
X0 = 2
COMPRESSOR = 3
NOISE = 4
SCALARIZATION = 5
PROBLEM = 6
VERIFY = 7


def substream(seed: int, purpose: int, tag: int = 0, agent: int = 0,
              iteration: int = 0) -> np.random.Generator:
    """Return a fresh generator for the given stream coordinates."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, purpose], dtype=np.uint64)
    counter = np.array([0, tag, agent, iteration], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def ball_point(rng: np.random.Generator, d: int, radius: float) -> np.ndarray:
    """Uniform draw from the closed Euclidean ball of the given radius."""
    g = rng.standard_normal(d)
    nrm = np.linalg.norm(g)
    if nrm == 0.0:
        return np.zeros(d)
    return g / nrm * radius * rng.uniform() ** (1.0 / d)


def sphere_point(rng: np.random.Generator, d: int) -> np.ndarray:
    """Uniform draw from the unit sphere."""
    g = rng.standard_normal(d)
    return g / np.linalg.norm(g)
