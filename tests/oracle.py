"""Per-agent reference implementation of one round and of a recorded run.

It loops over agents the way the simulator first did: one compression per
agent from that agent's own substreams, and each agent's cost and gradient
from its own slice of the problem data.  The batched engine in ``dcopt``
must match it bit for bit.
"""

import numpy as np

from dcopt import rng as _rng
from dcopt.algorithm import AlgorithmState, init_state
from dcopt.compressors import LOCAL, Compose, Noisy, Scalarization

COLUMNS = ("f_bar", "grad_sq", "consensus", "e1", "e2", "e3", "e4", "e5", "s_k",
           "bits_cum", "region_ok", "surr_pre_pmax", "surr_post_pmax",
           "surr_pre_l2sq", "surr_post_l2sq")


def pnorm(x, p):
    if p == np.inf:
        return float(np.max(np.abs(x))) if x.size else 0.0
    with np.errstate(over="ignore"):
        return float(np.sum(np.abs(x) ** p) ** (1.0 / p))


def compress(c, x, k, i):
    """(q, bits) for agent i's input x in round k."""
    if isinstance(c, Noisy):
        q, bits = compress(c.base, x, k, i)
        gen = _rng.substream(c.seed, _rng.NOISE, c.tag, i, k)
        return q + _rng.ball_point(gen, q.size, c.noise_bound), bits
    if isinstance(c, Compose):
        mid, _ = compress(c.inner, x, k, i)
        if c.order == "rel_of_abs":
            mid = mid / c.inner.r
        return compress(c.outer, mid, k, i)
    if isinstance(c, Scalarization):
        psi = c.direction(x.size, k)
        return psi * float(psi @ x), c.bits(x)
    gen = _rng.substream(c.seed, _rng.COMPRESSOR, c.tag, i, k)
    return c._apply(x[None, :], gen)[0], c.bits(x)


def cost(problem, i, x):
    A = problem.data["A"]
    if problem.family == "quadratic":
        r = A[i] @ x - problem.data["b"][i]
        return 0.5 * float(r @ r)
    y, lam = problem.data["y"], problem.meta["lam"]
    z = -y[i] * (A[i] @ x)
    logistic = float(np.mean(np.logaddexp(0.0, z)))
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
    return sum(cost(problem, i, x) for i in range(problem.n)) / problem.n


def stacked_gradients(problem, X):
    return np.stack([gradient(problem, i, X[i]) for i in range(problem.n)])


def step(state, problem, graph, compressor, hyper):
    """One iteration with a per-agent compression loop; returns (state, bits per agent)."""
    s, k = state.s_k, state.k
    U = (state.x - state.x_hat) / s
    Q = np.empty_like(U)
    bits = []
    for i in range(U.shape[0]):
        Q[i], b = compress(compressor, U[i], k, i)
        bits.append(b)
    x_hat = state.x_hat + hyper.omega * s * Q
    y = state.y + hyper.omega * s * (graph.laplacian @ Q)
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
    E, F = graph.E, graph.F
    EF = E @ F
    tr = {name: np.zeros(T + 1) for name in COLUMNS}
    tr["bits_cum"] = np.zeros(T + 1, dtype=np.int64)
    tr["region_ok"] = np.ones(T + 1, dtype=bool)

    def record(row, st):
        xbar = st.x.mean(axis=0)
        dev = st.x - xbar
        G0 = np.stack([gradient(problem, i, xbar) for i in range(n)])
        gbar = G0.mean(axis=0)
        W = st.v + G0 / hyper.gamma
        diff = st.x - st.x_hat
        pre = max(pnorm(diff[i], p) for i in range(n))
        f_bar = f(problem, xbar)
        tr["f_bar"][row] = f_bar
        tr["grad_sq"][row] = float(gbar @ gbar)
        tr["consensus"][row] = float(np.sum(dev * dev)) / n
        tr["e1"][row] = 0.5 * float(np.sum(st.x * (E @ st.x)))
        tr["e2"][row] = 0.5 * (hyper.beta + hyper.gamma) / hyper.gamma \
            * float(np.sum(W * (F @ W)))
        tr["e3"][row] = float(np.sum(st.x * (EF @ W)))
        tr["e4"][row] = n * (f_bar - f_ref)
        tr["e5"][row] = float(np.sum(diff * diff))
        tr["s_k"][row] = st.s_k
        tr["surr_pre_pmax"][row] = pre
        tr["surr_pre_l2sq"][row] = tr["e5"][row]
        tr["bits_cum"][row] = st.bits_cum
        if local:
            tr["region_ok"][row] = pre <= contract.C * st.s_k * (1.0 + 1e-12)

    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(T):
            record(it, state)
            new, _ = step(state, problem, graph, compressor, hyper)
            post = state.x - new.x_hat
            tr["surr_post_pmax"][it] = max(pnorm(post[i], p) for i in range(n))
            tr["surr_post_l2sq"][it] = float(np.sum(post * post))
            state = new
        record(T, state)
    tr["surr_post_pmax"][T] = np.nan
    tr["surr_post_l2sq"][T] = np.nan
    return tr, state
