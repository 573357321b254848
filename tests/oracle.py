"""Per-agent reference implementation of one round and of a recorded run.

It loops over agents the way the simulator first did: each agent's
compression written out on its own input, and each agent's cost and gradient
from its own slice of the problem data.  A stochastic round draws its random
numbers as blocks from the round's one stream, in the library's order, and
agent i then uses row i of each block; scalarization draws one direction per
round, which every agent of the round gets.  A stack of rounds, such as a
verification point's one-agent trials, draws each block over its leading
axes.  Every agent scales its raw directions to unit length by the 1-d norm.
Its [0, 1) blocks come from ``gen.uniform``, where the library calls
``gen.random``, and ``kernel`` writes the one-bit, norm-sign and k-bit
kernels out with ``np.where`` signs and out-of-place products, so those
draws and that arithmetic are checked against a second expression.
Sums over agents and norms use the library's NumPy reductions on each
agent's row, and a ring mixes each agent's row from its two neighbours in
the library's order.  The batched engine in ``dcopt`` must match it bit
for bit.  The record takes each agent's squared distance, of its surrogate
gap or of its deviation from the mean, as the ``np.vecdot`` of its row, and
sums them over agents for e5, surr_post_l2sq and consensus, as the engine
does.  It keeps the dense definitions e1 = x^T E x / 2, e2 from the dense
F w, and e3 = x^T E F w; the engine evaluates e1 and e3 with one product
F w instead, each as a sum over agents of row dots, and a ring applies F
by FFT, so those three columns agree to rounding only.
"""

import numpy as np

from dcopt import rng as _rng
from dcopt.algorithm import AlgorithmState, init_state
from dcopt.compressors import (LOCAL, Compose, NormSign, Noisy, OneBit, Scalarization,
                               UnbiasedKBit)
from dcopt.diagnostics import TRACE_DTYPE


# columns the engine evaluates by another formula, with the scale of their
# rounding error: ||X||_F^2 for e1, 0.5 (beta + gamma) / gamma ||W||_F ||F W||_F
# for e2 and ||X||_F ||F W||_F for e3
ROUNDED = {"e1": "e1_scale", "e2": "e2_scale", "e3": "e3_scale"}


def mismatches(trace, ref, names=TRACE_DTYPE.names):
    """Names of the trace columns that differ from the oracle's: bit for bit,
    or beyond 1e-12 of their error scale for the rounded ones."""
    bad = []
    for name in names:
        got = getattr(trace, name)
        if name in ROUNDED:
            ok = np.all(np.abs(got - ref[name]) <= 1e-12 * ref[ROUNDED[name]])
        else:
            ok = np.array_equal(got, ref[name], equal_nan=True)
        if not ok:
            bad.append(name)
    return bad


def pnorm(x, p):
    if p == np.inf:
        return float(np.max(np.abs(x))) if x.size else 0.0
    with np.errstate(over="ignore"):
        if p == 2:
            return float(np.sqrt(np.sum(x * x)))
        # the power ufunc, as in np.linalg.norm; a scalar ** rounds differently
        return float(np.power(np.sum(np.abs(x) ** p), 1.0 / p))


def distances(D, p):
    """(sum over agents of each agent's squared distance, the largest p-norm
    over agents) of one state's n x d block D, one agent's row at a time: a
    squared distance is the row's ``np.vecdot`` with itself, and its root is
    the p = 2 norm."""
    sq = np.array([np.vecdot(row, row) for row in D])
    norms = np.sqrt(sq) if p == 2 else [pnorm(row, p) for row in D]
    return float(np.sum(sq)), max(float(norm) for norm in norms)


def draw_round(c, shape, gen):
    """The random blocks of the rounds of ``shape``, (..., n, d), drawn in the
    library's order; scalarization's block holds one raw direction per round,
    which every agent of the round gets."""
    if isinstance(c, Noisy):
        return draw_round(c.base, shape, gen) + [gen.standard_normal(size=shape),
                                                 gen.uniform(size=(*shape[:-1], 1))]
    if isinstance(c, Compose):
        return draw_round(c.inner, shape, gen) + draw_round(c.outer, shape, gen)
    if isinstance(c, Scalarization):
        return [np.broadcast_to(gen.standard_normal(size=(*shape[:-2], 1, shape[-1])), shape)]
    if c.deterministic:
        return []
    return [gen.uniform(size=shape)]


def kernel(c, x, zeta):
    """One agent's compressed row.  One-bit, norm-sign and k-bit are written
    out with the np.where sign and one out-of-place product, apart from the
    library's in-place kernels; every other kind runs its own kernel on a
    round of one row."""
    sign = np.where(x >= 0, 1.0, -1.0)
    if isinstance(c, OneBit):
        return sign * (c.level / 2.0)
    if isinstance(c, NormSign):
        return (np.max(np.abs(x)) / 2.0) * sign
    if isinstance(c, UnbiasedKBit):
        m = np.max(np.abs(x))
        safe = 1.0 if m == 0.0 else m
        scale = 2.0 ** (c.kbits - 1)
        return (safe / scale) * sign * np.floor(scale * np.abs(x) / safe + zeta)
    return c._kernel(x[None, :], None if zeta is None else zeta[None, :])[0]


def compress(c, x, row):
    """(q, bits) for one agent's input x; ``row`` yields that agent's row of
    each block its round drew, in draw order."""
    if isinstance(c, Noisy):
        q, bits = compress(c.base, x, row)
        g, u = next(row), next(row)
        return q + g / np.linalg.norm(g) * (c.noise_bound * u ** (1.0 / q.size)), bits
    if isinstance(c, Compose):
        mid, _ = compress(c.inner, x, row)
        return compress(c.outer, mid, row)
    if isinstance(c, Scalarization):
        g = next(row)
        psi = g / np.linalg.norm(g)
        return psi * float(psi @ x), c.bits(x[None])
    return kernel(c, x, None if c.deterministic else next(row)), c.bits(x[None])


def compress_each(c, U, gen):
    """{(round..., agent): (q, bits)} for a stack U of rounds, one agent at a
    time, with the rounds' blocks drawn from ``gen``."""
    blocks = draw_round(c, U.shape, gen)
    return {i: compress(c, U[i], iter([b[i] for b in blocks])) for i in np.ndindex(U.shape[:-1])}


def compress_round(c, U, k):
    """(Q, bits per agent) for round k; row j of U is agent j's input."""
    gen = None if c.deterministic else _rng.substream(c.seed, _rng.COMPRESSOR, c.tag, k)
    out = compress_each(c, U, gen).values()
    return np.stack([q for q, _ in out]), [bits for _, bits in out]


def sample_errors(c, x, trials, seed, tag=0):
    """||C(x) - x||^2 per trial, each trial a one-agent round of x."""
    gen = _rng.substream(seed, _rng.VERIFY, tag)
    out = compress_each(c, np.broadcast_to(x, (trials, 1, x.size)), gen).values()
    return np.array([np.sum((q - x) * (q - x)) for q, _ in out])


def cost(problem, i, x):
    A = problem.data["A"]
    if problem.family == "quadratic":
        r = A[i] @ x - problem.data["b"][i]
        return 0.5 * float(r @ r)
    y, lam = problem.data["y"], problem.meta["lam"]
    z = -y[i] * (A[i] @ x)
    logistic = float(np.mean(np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))))
    return logistic + lam * float(np.sum(x * x / (1.0 + x * x)))


def gradient(problem, i, x):
    A = problem.data["A"]
    if problem.family == "quadratic":
        return A[i].T @ (A[i] @ x - problem.data["b"][i])
    y, lam, m = problem.data["y"], problem.meta["lam"], problem.meta["m"]
    z = -y[i] * (A[i] @ x)
    sig = 1.0 / (1.0 + np.exp(-z))
    g = -(A[i].T @ (y[i] * sig)) / m
    return g + lam * 2.0 * x / (1.0 + x * x) ** 2


def f(problem, x):
    return float(np.sum([cost(problem, i, x) for i in range(problem.n)])) / problem.n


def grad_f(problem, x):
    return np.sum([gradient(problem, i, x) for i in range(problem.n)], axis=0) / problem.n


def stacked_gradients(problem, X):
    return np.stack([gradient(problem, i, X[i]) for i in range(problem.n)])


def mix(graph, Q):
    """L Q: a ring one agent's row at a time, as (2 q_i - q_{i-1}) - q_{i+1};
    any other graph by its dense Laplacian."""
    if graph.topology == "ring":
        n = graph.n
        return np.stack([(2.0 * Q[i] - Q[i - 1]) - Q[(i + 1) % n] for i in range(n)])
    return graph.laplacian @ Q


def step(state, problem, graph, compressor, hyper):
    """One iteration with a per-agent compression loop; returns (state, bits per agent)."""
    s, k = state.s_k, state.k
    U = (state.x - state.x_hat) / s
    Q, bits = compress_round(compressor, U, k)
    D = hyper.omega * s * Q
    x_hat = state.x_hat + D
    y = state.y + mix(graph, D)
    G = stacked_gradients(problem, state.x)
    x = state.x - hyper.alpha * (hyper.beta * y + hyper.gamma * state.v + G)
    v = state.v + hyper.alpha * hyper.gamma * y
    new = AlgorithmState(x=x, v=v, x_hat=x_hat, y=y, k=k + 1,
                         s_k=hyper.schedule.value(k + 1), bits_cum=state.bits_cum + sum(bits))
    return new, bits


def run(problem, graph, compressor, hyper, T, init_mode="standard", x0_seed=0, x0=None,
        contract=None):
    """T iterations with the per-iteration record written out per agent."""
    state = init_state(problem, graph, hyper, init_mode, x0_seed, x0, contract)
    n = graph.n
    local = contract is not None and contract.cls == LOCAL
    p = contract.p if local else 2.0
    f_ref = problem.f_star if problem.f_star is not None else problem.f_low
    E, F = np.eye(n) - 1.0 / n, graph.F
    EF = E @ F
    tr = {name: np.zeros(T + 1, TRACE_DTYPE[name]) for name in TRACE_DTYPE.names}
    tr.update({name: np.zeros(T + 1) for name in ROUNDED.values()})

    def record(row, st):
        xbar = st.x.mean(axis=0)
        dev = st.x - xbar
        G0 = np.stack([gradient(problem, i, xbar) for i in range(n)])
        gbar = G0.mean(axis=0)
        W = st.v + G0 / hyper.gamma
        e5, pre = distances(st.x - st.x_hat, p)
        f_bar = f(problem, xbar)
        tr["k"][row] = st.k
        tr["f_bar"][row] = f_bar
        tr["grad_sq"][row] = float(gbar @ gbar)
        tr["consensus"][row] = distances(dev, 2)[0] / n
        FW = F @ W
        tr["e1"][row] = 0.5 * float(np.sum(st.x * (E @ st.x)))
        e2_factor = 0.5 * (hyper.beta + hyper.gamma) / hyper.gamma
        tr["e2"][row] = e2_factor * float(np.sum(W * FW))
        tr["e3"][row] = float(np.sum(st.x * (EF @ W)))
        x_sq = float(np.sum(st.x * st.x))
        tr["e1_scale"][row] = x_sq
        fw_sq = float(np.sum(FW * FW))
        tr["e2_scale"][row] = e2_factor * np.sqrt(float(np.sum(W * W)) * fw_sq)
        tr["e3_scale"][row] = np.sqrt(x_sq * fw_sq)
        tr["e4"][row] = n * (f_bar - f_ref)
        tr["e5"][row] = e5
        tr["s_k"][row] = st.s_k
        tr["surr_pre_pmax"][row] = pre
        tr["bits_cum"][row] = st.bits_cum
        tr["region_ok"][row] = not local or pre <= contract.C * st.s_k * (1.0 + 1e-12) < np.inf

    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(T):
            record(it, state)
            new, _ = step(state, problem, graph, compressor, hyper)
            tr["surr_post_l2sq"][it], tr["surr_post_pmax"][it] = distances(state.x - new.x_hat, p)
            state = new
        record(T, state)
    tr["surr_post_pmax"][T] = np.nan
    tr["surr_post_l2sq"][T] = np.nan
    return tr, state
