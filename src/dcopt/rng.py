"""Random substreams, one per (seed, purpose, tag, iteration).

Every random draw in the library flows from a single 64-bit seed through a
named substream, built fresh from its four coordinates by ``substream``, the
one place that builds a generator.  A stream's draws depend only on its
coordinates, never on execution order.  Two generators serve:

- the set-up purposes (``GRAPH``, ``X0``, ``PROBLEM``) are Philox, keyed by
  (seed, purpose) with the counter set from (tag, iteration).  They draw
  once per run, and keeping them keeps every graph, problem instance and
  initial point of a seed as it was; a faster generator there would shorten
  a large run's set-up but change every instance;
- the per-round purposes (``COMPRESSOR``, ``VERIFY``) are SFC64, seeded by
  ``SeedSequence([seed, purpose, tag, iteration])``.  They draw every round
  of a run and every trial of a verification, and SFC64 fills a block of
  uniforms in about half of Philox's time and of normals in about three
  quarters.  ``SeedSequence`` hashes the coordinates' 32-bit words in
  order with no length marker, so ``substream`` refuses a tag or an
  iteration outside [0, 2**32), where distinct coordinates could alias.

A compression round draws from one generator, built from its
(tag, iteration) coordinates, which fills every row in turn, so compressing
one vector is a round of one row; scalarization's shared direction is the
round's first draw, and every row projects on it.  A verification point's
trials are one-agent rounds drawn as one stack, its one input broadcast
against them.  Every unit direction (a scalarization round's, a noise
draw's, a Euclidean verification point's, local or global) comes from
``sphere_point``.  Every [0, 1) block is ``gen.random(shape)``, the doubles
of ``gen.uniform`` in fewer passes.  A kernel works in place only on arrays it allocates.
"""

import numpy as np

from .errors import OutOfRange

# purpose ids for the named substreams
GRAPH = 1
X0 = 2
COMPRESSOR = 3
PROBLEM = 6
VERIFY = 7

_MASK = 0xFFFFFFFFFFFFFFFF


def substream(seed: int, purpose: int, tag: int = 0, iteration: int = 0) -> np.random.Generator:
    """Return a fresh generator for the given stream coordinates."""
    if purpose in (COMPRESSOR, VERIFY):
        if not (0 <= tag < 2 ** 32 and 0 <= iteration < 2 ** 32):
            raise OutOfRange(f"stream tag and iteration must be in [0, 2**32), "
                             f"got {tag}, {iteration}")
        entropy = [seed & _MASK, purpose, tag, iteration]
        return np.random.Generator(np.random.SFC64(np.random.SeedSequence(entropy)))
    key = np.array([seed & _MASK, purpose], dtype=np.uint64)
    counter = np.array([0, tag, 0, iteration], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def sphere_point(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform draws from the unit sphere, one along the last axis of ``shape``
    (an int for one point).  ``sqrt(vecdot)`` rounds like the 1-d norm."""
    g = rng.standard_normal(shape)
    g /= np.sqrt(np.vecdot(g, g))[..., None]
    return g
