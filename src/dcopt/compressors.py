"""Communication compressors and their assumption contracts.

Two contract classes are supported.  A *local* contract bounds the
p-norm error on the ball ||x||_p <= C:

    ||C(x)/r - x||_p <= C (1 - delta).

A *global* contract bounds the mean-square error everywhere:

    E ||C(x)/r - x||^2 <= (1 - delta) ||x||^2 + C.

Deterministic kinds (1-bit, saturating quantizer, top-k, norm-sign) carry
local contracts.  Stochastic kinds (unbiased k-bit dither, rand-k,
scalarization, uniform quantizer) carry global contracts, derived from a
noise-free base characterization: a *relative* base satisfies
E||C(x)/r - x||^2 <= (1-delta_r)||x||^2 and an *absolute* base satisfies
E||C(x)/r - x||^2 <= C_a.  Bounded additive noise and composition map
base characterizations to global contracts via the two lemma rules below.
Every kind, noise wrapper and composition here states the output scale
r = 1; only the lemma rules take another r.

All bit counts use b1 = 32 bits per exactly-transmitted scalar.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng as _rng
from .errors import (
    DimensionMismatch,
    IncompatibleContracts,
    OutOfRange,
    WrongClass,
)

B1 = 32

LOCAL = "local"
GLOBAL = "global"


@dataclass(frozen=True)
class AssumptionContract:
    """Contract constants (class, p, r, C, delta) for one compressor."""

    cls: str            # LOCAL or GLOBAL
    p: float            # norm index (np.inf allowed); 2 for global contracts
    r: float
    C: float
    delta: float

    def __post_init__(self):
        if self.cls not in (LOCAL, GLOBAL):
            raise OutOfRange(f"contract class must be local/global, got {self.cls!r}")
        # p is a norm index: below 1 it is no norm, and d_hat divides by it
        if not 1 <= self.p <= math.inf:
            raise OutOfRange(f"contract norm index p must be in [1, inf], got {self.p}")
        if not 0 < self.r < math.inf or not 0 < self.delta <= 1 or not 0 <= self.C < math.inf:
            raise OutOfRange(f"contract constants out of range: r={self.r}, "
                             f"C={self.C}, delta={self.delta}")
        # a local region of radius zero admits no compressor input at all
        if self.cls == LOCAL and self.C == 0:
            raise OutOfRange("local contracts need a positive region radius C")

    def d_hat(self, d: int) -> float:
        """The least d_hat with ||x||_p <= d_hat ||x|| on R^d."""
        return d ** (1.0 / self.p - 0.5) if self.p <= 2 else 1.0

    def d_tilde(self, d: int) -> float:
        """The least d_tilde with ||x|| <= d_tilde ||x||_p on R^d."""
        return 1.0 if self.p <= 2 else d ** (0.5 - 1.0 / self.p)


def pnorms(X: np.ndarray, p: float) -> np.ndarray:
    """p-norms along the last axis: one per row of an n x d block."""
    with np.errstate(over="ignore"):
        return np.linalg.norm(X, ord=p, axis=-1)


# ---------------------------------------------------------------------------
# lemma rules: noise wrapping and composition of global contracts
# ---------------------------------------------------------------------------

def lemma1_relative_params(delta_r: float, r_r: float, C_xi: float) -> AssumptionContract:
    """Global contract of a relative-error compressor with additive noise
    bounded by C_xi: r = r_r, C = (2-delta_r) C_xi^2 / (delta_r r_r^2),
    delta = delta_r / 2."""
    if not 0 < delta_r <= 1:
        raise OutOfRange(f"delta_r must be in (0,1], got {delta_r}")
    if r_r <= 0 or C_xi < 0:
        raise OutOfRange(f"need r_r > 0 and C_xi >= 0, got {r_r}, {C_xi}")
    C = (2.0 - delta_r) * (C_xi * C_xi) / (delta_r * (r_r * r_r))
    return AssumptionContract(GLOBAL, 2.0, r_r, C, delta_r / 2.0)


def lemma1_absolute_params(C_a: float, r_a: float, C_xi: float) -> AssumptionContract:
    """Global contract of an absolute-error compressor with additive noise:
    r = r_a, C = 2 C_a + 2 C_xi^2 / r_a^2, delta = 1."""
    if C_a < 0 or r_a <= 0 or C_xi < 0:
        raise OutOfRange(f"need C_a >= 0, r_a > 0, C_xi >= 0, got {C_a}, {r_a}, {C_xi}")
    C = 2.0 * C_a + 2.0 * (C_xi * C_xi) / (r_a * r_a)
    return AssumptionContract(GLOBAL, 2.0, r_a, C, 1.0)


def lemma2_compose_params(rel: AssumptionContract, abs_: AssumptionContract,
                          order: str) -> AssumptionContract:
    """Global contract of the composition of a noisy relative and a noisy
    absolute compressor.

    ``rel`` must come from :func:`lemma1_relative_params` (so delta = delta_r/2)
    and ``abs_`` from :func:`lemma1_absolute_params` (delta = 1).  ``order`` is
    ``rel_of_abs`` for rel(abs(x)/r_a) and ``abs_of_rel`` for abs(rel(x)).
    """
    if rel.cls != GLOBAL or abs_.cls != GLOBAL:
        raise IncompatibleContracts("composition inputs must be global contracts")
    if abs_.delta != 1.0:
        raise IncompatibleContracts("second argument must be an absolute-error contract")
    if not rel.delta <= 0.5:
        raise IncompatibleContracts("first argument must be a relative-error contract "
                                    "(delta = delta_r/2 <= 1/2)")
    delta_r = 2.0 * rel.delta
    C_rt, C_at, r_r, r_a = rel.C, abs_.C, rel.r, abs_.r
    head = (4.0 - delta_r) * C_rt / (4.0 - 2.0 * delta_r)
    if order == "rel_of_abs":
        C = head + (4.0 - delta_r) * (12.0 - delta_r) * C_at / (4.0 * delta_r)
        return AssumptionContract(GLOBAL, 2.0, r_r, C, delta_r / 8.0)
    if order == "abs_of_rel":
        C = head + (4.0 - delta_r) * C_at / (delta_r * (r_r * r_r))
        return AssumptionContract(GLOBAL, 2.0, r_r * r_a, C, delta_r / 4.0)
    raise OutOfRange(f"order must be rel_of_abs or abs_of_rel, got {order!r}")


# ---------------------------------------------------------------------------
# compressor kinds
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Compressor:
    """Base interface.  Subclasses are pure given (U, iteration, seed).

    ``apply`` compresses one round whose row j is agent j's input;
    stochastic kinds draw the whole round as one block.  A kind's positional
    fields are its parameters, in order, as in the config.
    """

    kind = "base"
    deterministic = True
    role = None      # "relative" / "absolute" for global kinds
    seed: int = field(default=0, kw_only=True, repr=False)
    tag: int = field(default=0, kw_only=True, repr=False)

    def apply(self, U: np.ndarray, iteration: int = 0):
        """Return (Q, bits) for one round, the n x d block U: Q row-wise, bits
        the round's total.  One vector x is the round ``x[None]``; any other
        shape is refused, since ``bits`` charges a round's rows.

        Stochastic kinds build one generator per round, from the iteration's
        substream, and take every draw of the round from it.
        """
        if U.ndim != 2:
            raise DimensionMismatch(f"a round is an n x d block, got shape {U.shape}")
        gen = None
        if not self.deterministic:
            gen = _rng.substream(self.seed, _rng.COMPRESSOR, self.tag, iteration)
        Q, charged = self._apply(U, gen, U.shape)
        return Q, self.bits(charged)

    def bits(self, X: np.ndarray) -> int:
        """Total bits to transmit every row of the 2-d block X."""
        raise NotImplementedError

    def contract(self, d: int) -> AssumptionContract:
        """The noise-free global contract of a relative kind (delta from
        ``relative_delta``) or an absolute kind (C from ``absolute_error``);
        local kinds define their own."""
        if self.role == "relative":
            return AssumptionContract(GLOBAL, 2.0, 1.0, 0.0, self.relative_delta(d))
        if self.role == "absolute":
            return AssumptionContract(GLOBAL, 2.0, 1.0, self.absolute_error(d), 1.0)
        raise NotImplementedError

    # -- internals ----------------------------------------------------------
    def _kernel(self, X: np.ndarray, zeta: np.ndarray | None) -> np.ndarray:
        """Compress every row of X along its last axis; ``zeta`` holds one
        uniform draw per entry for stochastic kinds and is None for
        deterministic ones."""
        raise NotImplementedError

    def _apply(self, X: np.ndarray, gen: np.random.Generator | None, shape: tuple):
        """Compress rounds: the (n, d) slices of an (..., n, d) stack along its
        leading axes.  ``shape`` is the draw shape of those rounds, taken from
        ``gen`` as blocks, and X broadcasts against it, so one input row meets
        every round of draws and a deterministic kind returns X's rows.

        Returns the output and the block the ``bits`` formula is charged on
        (X itself, except for a composition).
        """
        zeta = None if self.deterministic else gen.random(shape)
        return self._kernel(X, zeta), X

    def sample_errors(self, x, trials: int, seed: int, tag: int = 0) -> np.ndarray:
        """Monte-Carlo draws of ||C(x) - x||^2: ``trials`` one-agent rounds of
        the one input x (a deterministic kind's one error, broadcast), drawn
        from the ``VERIFY`` stream at (tag, ``_TRIALS``)."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise DimensionMismatch(f"expected a 1-d vector, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise DimensionMismatch("compressor input must be finite")
        gen = _rng.substream(seed, _rng.VERIFY, tag, _TRIALS)
        Q, _ = self._apply(x[None, None], gen, (trials, 1, x.size))
        diff = Q[:, 0] - x
        diff *= diff
        return np.broadcast_to(np.sum(diff, axis=1), (trials,))


class Identity(Compressor):
    """Pass-through baseline; charges full 32-bit precision per coordinate."""

    kind = "identity"
    role = "relative"

    def bits(self, X):
        return X.size * B1

    def relative_delta(self, d):
        return 1.0

    def _kernel(self, X, zeta):
        return X.copy()


@dataclass(eq=False)
class OneBit(Compressor):
    """Sign compressor transmitting one bit per coordinate; output +-level/2."""

    kind = "one_bit"
    level: float

    def __post_init__(self):
        if not 0 < self.level < math.inf:
            raise OutOfRange(f"quantization level must be positive and finite, got {self.level}")

    def bits(self, X):
        return X.size

    def contract(self, d):
        # p = inf, r = 1, C = level, delta in (0, 1/2]; the largest valid delta
        return AssumptionContract(LOCAL, np.inf, 1.0, self.level, 0.5)

    def _kernel(self, X, zeta):
        return ((X >= 0) * 2.0 - 1.0) * (self.level / 2.0)


@dataclass(eq=False)
class SaturatingQuantizer(Compressor):
    """Midtread uniform quantizer with hard saturation at +-level."""

    kind = "sat_quant"
    level: float
    step: float

    def __post_init__(self):
        level, step = self.level, self.step
        # the output indices floor(+-level / step) must be finite
        if level <= 0 or not 0 < step < 2 * level or not math.isfinite(level / step):
            raise OutOfRange(f"need level > 0, step in (0, 2*level) and level/step finite, "
                             f"got {level}, {step}")
        self._lo = math.floor(-level / step)
        self._hi = math.floor(level / step)

    def bits(self, X):
        levels = math.floor(self.level / self.step) + math.ceil(self.level / self.step) + 1
        return X.size * math.ceil(math.log2(levels))

    def contract(self, d):
        # on [-level, level] the rounding error is at most step/2, except
        # above the top output step * _hi, which can sit up to one step
        # below level: there the error reaches level - step * _hi
        error = max(self.step / 2.0, self.level - self.step * self._hi)
        return AssumptionContract(LOCAL, np.inf, 1.0, self.level, 1.0 - error / self.level)

    def _kernel(self, X, zeta):
        idx = np.clip(np.floor(X / self.step + 0.5), self._lo, self._hi)
        return self.step * idx


@dataclass(eq=False)
class _KeepK(Compressor):
    """Pass k coordinates of each row through and zero the rest; the
    subclass's ``_order`` ranks the coordinates."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise OutOfRange(f"k must be >= 1, got {self.k}")

    def bits(self, X):
        self._check_k(X.shape[1])
        return len(X) * self.k * B1

    def _check_k(self, d):
        if self.k > d:
            raise DimensionMismatch(f"k={self.k} exceeds dimension {d}")

    def _kernel(self, X, zeta):
        self._check_k(X.shape[-1])
        keep = self._order(X, zeta)[..., :self.k]
        # keep has the draws' shape, which X broadcasts against
        Q = np.zeros(keep.shape[:-1] + X.shape[-1:], dtype=X.dtype)
        np.put_along_axis(Q, keep, np.take_along_axis(X, keep, axis=-1), axis=-1)
        return Q


class TopK(_KeepK):
    """Keep the k largest-magnitude coordinates (ties broken by lowest index)."""

    kind = "top_k"

    def contract(self, d):
        # advertised contract: p = 2, r = 1, C = 1 (any C > 0 holds), delta = k/d
        self._check_k(d)
        return AssumptionContract(LOCAL, 2.0, 1.0, 1.0, self.k / d)

    def sound_contract(self, d):
        """Largest delta for which the unsquared p=2 error bound actually
        holds for all x in the ball: delta = 1 - sqrt(1 - k/d)."""
        self._check_k(d)
        return AssumptionContract(LOCAL, 2.0, 1.0, 1.0, 1.0 - math.sqrt(1.0 - self.k / d))

    def _order(self, X, zeta):
        return np.argsort(-np.abs(X), axis=-1, kind="stable")


class NormSign(Compressor):
    """Transmit the max-norm plus one sign bit per coordinate."""

    kind = "norm_sign"

    def bits(self, X):
        return X.size + len(X) * B1

    def contract(self, d):
        return AssumptionContract(LOCAL, np.inf, 1.0, 1.0, 0.5)

    def _kernel(self, X, zeta):
        # a zero row gives (0 / 2) * 1 = +0.0 everywhere
        m = np.max(np.abs(X), axis=-1, keepdims=True)
        return (m / 2.0) * ((X >= 0) * 2.0 - 1.0)


@dataclass(eq=False)
class UnbiasedKBit(Compressor):
    """Dithered k-bit quantizer, unbiased via a uniform [0,1) dither."""

    kind = "unbiased_kbit"
    deterministic = False
    role = "relative"
    max_kbits = 511   # the largest k with 4^k a finite float; relative_delta divides by it
    kbits: int

    def __post_init__(self):
        if self.kbits < 1:
            raise OutOfRange(f"kbits must be >= 1, got {self.kbits}")
        if self.kbits > self.max_kbits:
            raise OutOfRange(f"kbits must be <= {self.max_kbits}, got {self.kbits}")

    def bits(self, X):
        return (self.kbits + 1) * X.size + len(X) * B1

    def relative_delta(self, d):
        # E||C(x)-x||^2 <= (||x||_inf / 2^{k-1})^2 * d/4 <= (d / 4^k) ||x||^2
        delta = 1.0 - d / 4.0 ** self.kbits
        if delta <= 0:
            raise OutOfRange(f"unbiased {self.kbits}-bit quantizer has no relative "
                             f"contract for d={d} (needs 4^k > d)")
        return delta

    def _kernel(self, X, zeta):
        # a zero row gives floor(0 + zeta) = 0, so +0.0 everywhere; the sign's
        # product is exact, so each value is one rounding of safe/scale * floor
        m = np.max(np.abs(X), axis=-1, keepdims=True)
        safe = np.where(m == 0.0, 1.0, m)
        scale = 2.0 ** (self.kbits - 1)
        Q = np.abs(X) * scale
        Q /= safe
        Q = Q + zeta        # the draws' shape, which X broadcasts against
        np.floor(Q, out=Q)
        Q *= (X >= 0) * 2.0 - 1.0
        Q *= safe / scale
        return Q


class RandK(_KeepK):
    """Pass k uniformly chosen distinct coordinates through, zero the rest."""

    kind = "rand_k"
    deterministic = False
    role = "relative"

    def relative_delta(self, d):
        # unscaled pass-through: E||C(x)-x||^2 = (1 - k/d) ||x||^2 exactly
        self._check_k(d)
        return self.k / d

    def _order(self, X, zeta):
        return np.argsort(zeta, axis=-1, kind="stable")


class Scalarization(Compressor):
    """Project onto a shared random unit direction and transmit one scalar.

    A round's direction is its generator's first draw, so every agent
    reproduces it without transmission; a stack of rounds draws one
    direction per round.
    """

    kind = "scalarization"
    deterministic = False
    role = "relative"

    def bits(self, X):
        return len(X) * B1

    def relative_delta(self, d):
        # E[psi psi^T] = I/d gives E||psi psi^T x - x||^2 = (1 - 1/d) ||x||^2
        return 1.0 / d

    def _apply(self, X, gen, shape):
        psi = _rng.sphere_point(gen, (*shape[:-2], 1, shape[-1]))
        # vecdot matches the per-row psi @ x bit for bit; X @ psi does not
        return psi * np.vecdot(X, psi)[..., None], X


@dataclass(eq=False)
class UniformQuantizer(Compressor):
    """Midtread uniform quantizer without saturation."""

    kind = "uniform_quant"
    role = "absolute"
    step: float

    def __post_init__(self):
        if not 0 < self.step < math.inf:
            raise OutOfRange(f"step must be positive and finite, got {self.step}")

    def bits(self, X):
        # row j sends indices floor(x / step + 1/2) in [-q_j, q_j], where q_j is
        # their largest magnitude: ceil(log2(2 q_j + 1)) = 1 + bitlength(q_j) bits
        # per coordinate; frexp's exponent is the bit length of the float q_j
        q = np.max(np.abs(np.floor(X / self.step + 0.5)), axis=1, initial=0.0)
        return X.size + X.shape[1] * int(np.frexp(q)[1].sum())

    def absolute_error(self, d):
        # per-coordinate rounding error <= step/2; a bound below the least
        # normal float would certify a lossy kind as (nearly) exact
        C = d * (self.step * self.step) / 4.0
        if C < np.finfo(float).tiny:
            raise OutOfRange(f"uniform quantizer bound d step^2 / 4 = {C} is below the least "
                             f"normal float at step={self.step}, d={d}")
        return C

    def _kernel(self, X, zeta):
        return self.step * np.floor(X / self.step + 0.5)


class Noisy(Compressor):
    """Wrap a compressor with additive noise drawn uniformly from the
    Euclidean ball of radius noise_bound (so ||xi|| <= noise_bound a.s.).

    A round's base draws and noise come from the wrapper's one generator:
    one direction from ``rng.sphere_point`` and one radius per row.
    """

    kind = "noisy"

    def __init__(self, base: Compressor, noise_bound: float):
        if not 0 <= noise_bound < math.inf:
            raise OutOfRange(f"noise bound must be >= 0 and finite, got {noise_bound}")
        super().__init__(seed=base.seed, tag=base.tag)
        self.base = base
        self.noise_bound = noise_bound
        self.deterministic = False
        self.role = base.role
        self.kind = f"noisy_{base.kind}"

    def bits(self, X):
        return self.base.bits(X)

    def contract(self, d):
        return lemma1_contract(self, d)

    def _apply(self, X, gen, shape):
        Q, charged = self.base._apply(X, gen, shape)
        G = _rng.sphere_point(gen, shape)
        radii = self.noise_bound * gen.random((*shape[:-1], 1)) ** (1.0 / shape[-1])
        G *= radii
        G += Q
        return G, charged

    def __repr__(self):
        return f"Noisy({self.base!r}, noise={self.noise_bound})"


class Compose(Compressor):
    """Composition of one relative-type and one absolute-type compressor.

    The outer stage compresses the inner stage's output as it is:
    rel(abs(x)) in the order ``rel_of_abs``, abs(rel(x)) in ``abs_of_rel``.
    Bits are charged as the outer stage's formula on the inner output.
    Both stages draw from one generator, keyed by the inner stage's seed
    and tag.
    """

    kind = "compose"
    deterministic = False

    def __init__(self, inner: Compressor, outer: Compressor):
        roles = (inner.role, outer.role)
        self.order = {("absolute", "relative"): "rel_of_abs",
                      ("relative", "absolute"): "abs_of_rel"}.get(roles)
        if self.order is None:
            raise IncompatibleContracts(
                f"composition needs one relative and one absolute stage, got {roles}")
        super().__init__(seed=inner.seed, tag=inner.tag)
        self.inner = inner
        self.outer = outer
        self.kind = f"compose_{outer.kind}_of_{inner.kind}"

    def contract(self, d):
        rel, abs_ = ((self.outer, self.inner) if self.order == "rel_of_abs"
                     else (self.inner, self.outer))
        return lemma2_compose_params(lemma1_contract(rel, d), lemma1_contract(abs_, d),
                                     self.order)

    def bits(self, X):
        # X is the outer stage's input, which _apply charges
        return self.outer.bits(X)

    def _apply(self, X, gen, shape):
        # both stages draw from the one generator, inner first, so two noise
        # wrappers never inject the same realization
        mid, _ = self.inner._apply(X, gen, shape)
        return self.outer._apply(mid, gen, shape)

    def __repr__(self):
        return f"Compose({self.inner!r} -> {self.outer!r})"


def lemma1_contract(c: Compressor, d: int) -> AssumptionContract:
    """Lemma 1's global contract of a relative or absolute kind under additive
    noise: a Noisy wrapper's noise bound, or 0 for a plain compressor."""
    base, bound = (c.base, c.noise_bound) if isinstance(c, Noisy) else (c, 0.0)
    if base.role == "relative":
        return lemma1_relative_params(base.relative_delta(d), 1.0, bound)
    if base.role == "absolute":
        return lemma1_absolute_params(base.absolute_error(d), 1.0, bound)
    raise IncompatibleContracts(f"{base.kind} has no global base characterization")


def with_noise(c: Compressor, noise_bound: float) -> Compressor:
    """``c`` wrapped in bounded additive noise, or ``c`` itself for a zero
    bound; ``Noisy`` refuses a negative one."""
    return c if noise_bound == 0 else Noisy(c, noise_bound)


def compose_kbit_of_uniform(kbits: int, step: float, noise_inner: float = 0.0,
                            noise_outer: float = 0.0, seed: int = 0) -> Compose:
    """Dithered k-bit quantizer applied to a uniformly quantized input."""
    return Compose(with_noise(UniformQuantizer(step, seed=seed, tag=1), noise_inner),
                   with_noise(UnbiasedKBit(kbits, seed=seed, tag=2), noise_outer))


def compose_uniform_of_kbit(kbits: int, step: float, noise_inner: float = 0.0,
                            noise_outer: float = 0.0, seed: int = 0) -> Compose:
    """Uniform quantizer applied to a dithered k-bit quantized input."""
    return Compose(with_noise(UnbiasedKBit(kbits, seed=seed, tag=1), noise_inner),
                   with_noise(UniformQuantizer(step, seed=seed, tag=2), noise_outer))


# ---------------------------------------------------------------------------
# contract verification
# ---------------------------------------------------------------------------

# The VERIFY stream's iteration coordinate: global point i's trials are
# (tag i, _TRIALS), and the local and the global verifier draw their points
# from (tag 0, _POINTS) and (tag 1, _POINTS), so no two draws share a stream.
_TRIALS, _POINTS = 0, 1


@dataclass
class VerificationReport:
    kind: str
    cls: str
    max_ratio: float
    passed: bool
    samples: int
    worst: dict


def _pball_samples(gen: np.random.Generator, p: float, d: int, C: float,
                   count: int) -> np.ndarray:
    """``count`` uniform draws from the p-ball of radius C, p = inf or 2: for
    p = 2 a unit direction times the radius C U^(1/d)."""
    if p == np.inf:
        return gen.uniform(-C, C, size=(count, d))
    return _rng.sphere_point(gen, (count, d)) * (C * gen.random((count, 1)) ** (1.0 / d))


def _boundary_cases(gen: np.random.Generator, p: float, d: int, C: float) -> list:
    cases = [np.zeros(d)]
    for j in range(min(d, 8)):
        e = np.zeros(d)
        e[j] = C
        cases.append(e.copy())
        cases.append(-e)
    ones = np.ones(d)
    alt = np.array([(-1.0) ** j for j in range(d)])
    for sigma in (ones, alt):
        x = C * sigma / pnorms(sigma[None, :], p)[0]
        cases.extend([x, -x, 0.5 * x])
    if p == np.inf:
        for _ in range(8):
            sigma = (gen.random(d) >= 0.5) * 2.0 - 1.0
            cases.append(C * sigma)
    return cases


def _report(compressor: Compressor, cls: str, ratios: np.ndarray, worst) -> VerificationReport:
    """A verifier's report on its points' ratios of error to bound, naming the worst
    point ``worst(i)``.  A point passes only when its ratio is at most 1 + 1e-12: contracts
    that hold with equality and zero variance (e.g. rand-k) land on it up to rounding."""
    # argmax finds the first NaN ratio, and max keeps it: a NaN point fails
    i = int(np.argmax(ratios))
    max_ratio = max(float(ratios[i]), 0.0)
    return VerificationReport(kind=compressor.kind, cls=cls, max_ratio=max_ratio,
                              passed=bool(max_ratio <= 1.0 + 1e-12), samples=len(ratios),
                              worst=worst(i) if max_ratio != 0 else {})


def verify_local_assumption(compressor: Compressor, contract: AssumptionContract,
                            samples: int = 10_000, seed: int = 0,
                            d: int = 6) -> VerificationReport:
    """Check the local contract on uniform random points of the p-ball of
    radius C, p = 2 or inf, plus deterministic boundary and corner cases."""
    if contract.cls != LOCAL:
        raise WrongClass("verify_local_assumption needs a local contract")
    if samples < 1:
        raise OutOfRange("samples must be >= 1")
    p, C, r, delta = contract.p, contract.C, contract.r, contract.delta
    if p not in (2.0, np.inf):
        raise OutOfRange(f"local verification samples the 2- or inf-ball, got p={p}")
    # the points are drawn from [-C, C], whose width must be a finite float
    if not math.isfinite(2.0 * C):
        raise OutOfRange(f"cannot sample the region of radius C={C}: 2 C is not finite")
    gen = _rng.substream(seed, _rng.VERIFY, 0, _POINTS)
    P = np.vstack([_pball_samples(gen, p, d, C, samples), *_boundary_cases(gen, p, d, C)])
    bound = C * (1.0 - delta)

    Q, _ = compressor.apply(P)
    errs = pnorms(Q / r - P, p)
    ratios = errs / bound if bound > 0 else np.where(errs <= 1e-15 * max(C, 1.0), 0.0, np.inf)
    return _report(compressor, LOCAL, ratios, lambda i: {
        "x": P[i].tolist(), "error": float(errs[i]), "bound": bound})


def verify_global_assumption(compressor: Compressor, contract: AssumptionContract,
                             samples: int = 16, trials_per_sample: int = 10_000,
                             seed: int = 0, d: int = 8) -> VerificationReport:
    """Monte-Carlo check of the global mean-square contract on points with
    radii spanning [0, 1e3]; pass needs mean <= bound + 3 standard errors
    at every point, with that sum a finite float."""
    if contract.cls != GLOBAL:
        raise WrongClass("verify_global_assumption needs a global contract")
    if samples < 1 or trials_per_sample < 2:
        raise OutOfRange("need samples >= 1 and trials_per_sample >= 2")
    gen = _rng.substream(seed, _rng.VERIFY, 1, _POINTS)
    radii = np.concatenate([[0.0], np.logspace(-1, 3, samples - 1)])
    points = []
    for i, rad in enumerate(radii):
        if rad == 0.0:
            points.append(np.zeros(d))
        elif i % 2 == 0:
            points.append(rad * _rng.sphere_point(gen, d))
        else:
            points.append(rad * np.ones(d) / math.sqrt(d))

    ratios, worst = [], []
    for i, x in enumerate(points):
        # an overflowing draw reaches the verdict as a non-finite mean or se
        with np.errstate(over="ignore", invalid="ignore"):
            errs = compressor.sample_errors(x, trials_per_sample, seed, tag=i)
            mean = float(np.mean(errs))
            se = float(np.std(errs, ddof=1) / math.sqrt(trials_per_sample))
        bound = (1.0 - contract.delta) * float(x @ x) + contract.C
        denom = bound + 3.0 * se
        ratios.append(np.nan if not math.isfinite(denom) else mean / denom if denom > 0
                      else 0.0 if mean == 0.0 else np.inf)
        worst.append({"radius": float(np.linalg.norm(x)), "mean": mean, "bound": bound, "se": se})
    return _report(compressor, GLOBAL, np.array(ratios), worst.__getitem__)
