"""Print one sha256 per output of a fixed set of ``dcopt`` commands.

Usage: python mutants/digests.py

Each command runs in a subprocess with this checkout's ``src`` first on
``PYTHONPATH`` and ``DCOPT_OUTPUT_ROOT`` set to one fresh temporary
directory.  A command reads a config of ``demos/configs`` or one of
``GENERATED``, which the script writes into a second temporary directory,
outside the output root.  The script prints one line per command, the digest
of its stdout with its exit code, then one line per file written under the
output root.  The output root is replaced by ``$DCOPT_OUTPUT_ROOT`` in
stdout before it is hashed.  The last line is one digest over
``theorem_params`` on a grid of regimes, compressor kinds, graphs, problem
families, sizes, horizons and options, run in this process on this
checkout's ``src``: each selection's hyperparameters, schedule, init mode,
x0 bytes, constant table, feasibility and extras, and each refusal's type
and message, with the counts of selections and of refusals.  The line before
it is the grammar fuzzer's: the configs ``tests/test_grammar_fuzz.py`` draws
from ``FUZZ_SEED``, run through its commands in this process, and each
command's histogram of exit codes.  The line before that digests, per
topology, each graph's ``rho`` and ``rho2``, its dense ``laplacian`` and
``F``, and its ``mix`` and ``apply_F`` of one fixed block, at each of
``GRAPH_SIZES`` agents.  The line before that digests, per stream purpose,
the first uniforms and normals its substream draws at each of
``STREAM_KEYS``.  The line before that digests the ``trace_rows`` rows of
each ``RECORD_BLOCKS`` block of fixed states.  The line before that
digests, per compressor kind of ``config.KINDS``, bare and with channel
noise, ``apply`` on one ``ROUND_SHAPE`` round and ``sample_errors`` at two
points.  Two checkouts print the same lines exactly when their outputs are
byte-identical: run it in each and diff the two listings.  The digests
depend on the NumPy and BLAS builds, so this is no tier-1 test.  They do
not depend on the BLAS thread count: every record total sums one dot per
agent's row, and no row here reaches the 10,000 entries at which OpenBLAS
splits a dot.
"""

import collections
import dataclasses
import hashlib
import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "demos" / "configs"
FUZZ_SEED = 0
GRAPH_SIZES = (3, 10, 100)
# (seed, tag, iteration) of the streams line: the origin, a small key, the largest seed
STREAM_KEYS = ((0, 0, 0), (11, 2, 5), (2 ** 64 - 1, 1, 2 ** 32 - 1))
# the (n, d) of the compressors line's round, the size of the benchmark's largest run
ROUND_SHAPE = (400, 200)
# the record line's (topology, (B, n, d)) blocks: one row of the benchmark's largest
# run, and a block of the size that ``run`` records on a complete graph of 10 agents
RECORD_BLOCKS = (("ring", (1, 400, 200)), ("complete", (81, 10, 5)))

COMMANDS = (
    ("run", "one_bit_ring.ini"),
    # one trace row per record block, and dither and channel noise every round
    ("run", "kbit_ring.ini"),
    ("sweep", "t1_sweep.ini", "--horizons", "100", "200", "400"),
    ("params", "one_bit_ring.ini"),
    ("params", "t1_sweep.ini"),
    ("params", "kbit_noisy_verify.ini"),
    ("verify", "kbit_noisy_verify.ini"),
    # a composition with inner noise in each order; rel_of_abs also runs
    ("run", "compose_kbit_of_uniform.ini"),
    ("verify", "compose_kbit_of_uniform.ini", "--trials", "2000"),
    ("verify", "compose_uniform_of_kbit.ini", "--trials", "2000"),
    # a variable-bit kind: bits_cum counts the indices its kernel sends
    ("run", "uniform_quant.ini"),
    # one generator per round: the shared direction, then the channel noise
    ("run", "scalarization.ini"),
    ("verify", "scalarization.ini", "--trials", "2000"),
    # noise-free global kinds: a projection's change shows apart from the noise's
    ("verify", "scalarization_noise_free.ini", "--trials", "2000"),
    ("verify", "rand_k.ini", "--trials", "2000"),
    # the two dense topologies that no demo config builds
    ("run", "path.ini"),
    ("run", "erdos_renyi.ini"),
    # the complete graph's closed-form F in the record, with channel noise
    ("run", "complete.ini"),
    # each theoretical mode that no demo config selects, from the CLI
    *((command, f"{mode}.ini") for mode in ("T2", "T3", "T5", "T6")
      for command in ("params", "run")),
)

RING = """
[problem]
family = nonconvex
d = 6
seed = 3

[graph]
topology = ring
n = 8

[compressor]
kind = {kind}
{params}
[algorithm]
T = 30
seed = 11
alpha = 0.05
gamma = 1.0
tau_1 = 2.0

[output]
directory = out/{kind}
"""

COMPOSE = "kbits = 4\nstep = 0.5\nnoise_inner = 0.3\nnoise_outer = 0.2\n"
GENERATED = {f"{kind}.ini": RING.format(kind=kind, params=params) for kind, params in (
    ("compose_kbit_of_uniform", COMPOSE), ("compose_uniform_of_kbit", COMPOSE),
    ("uniform_quant", "step = 0.5\n"), ("scalarization", "noise = 0.3\n"),
    ("rand_k", "k = 2\n"))}
GENERATED["scalarization_noise_free.ini"] = RING.format(kind="scalarization", params="").replace(
    "out/scalarization", "out/scalarization_noise_free")
GENERATED.update({f"{name}.ini": RING.format(kind="unbiased_kbit", params="kbits = 3\n").replace(
    "topology = ring", graph).replace("out/unbiased_kbit", f"out/{name}")
    for name, graph in (("path", "topology = path"),
                        ("erdos_renyi", "topology = erdos_renyi\nprob = 0.5"))})
GENERATED["complete.ini"] = RING.format(
    kind="unbiased_kbit", params="kbits = 3\nnoise = 0.3\n").replace(
    "topology = ring\nn = 8", "topology = complete\nn = 6").replace(
    "out/unbiased_kbit", "out/complete")

THEORY = """
[problem]
family = {family}
d = 6
seed = 3

[graph]
topology = ring
n = 8

[compressor]
kind = {kind}
{params}
[algorithm]
mode = {mode}
T = 40
seed = 11

[output]
directory = out/{name}
"""

GENERATED.update({f"{name}.ini": THEORY.format(name=name, mode=mode, family=family, kind=kind,
                                                params=params)
                  for name, mode, family, kind, params in (
    ("T2", "T2_local_exact_first", "nonconvex", "one_bit", "level = 1.0\n"),
    ("T3", "T3_local_PL", "quadratic", "one_bit", "level = 1.0\n"),
    ("T5", "T5_global_nonconvex", "nonconvex", "unbiased_kbit", "kbits = 3\nnoise = 0.3\n"),
    ("T6", "T6_global_PL", "quadratic", "unbiased_kbit", "kbits = 3\n"))})


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def param_grid() -> str:
    """The digest line of ``theorem_params`` over the grid.  Every tau_0,
    epsilon and T in it is valid, so that only the selections and the
    refusals of regime, contract class, nu, T and the P-L family show."""
    sys.path.insert(0, str(REPO / "src"))
    from dcopt import build_graph, compressors as comp, make_nonconvex, make_quadratic
    from dcopt.constants import REGIMES, theorem_params
    from dcopt.errors import DcoptError

    def kinds(d):
        return (comp.OneBit(1.0), comp.SaturatingQuantizer(2.0, 0.5), comp.NormSign(),
                comp.TopK(1), comp.TopK(d),
                comp.UnbiasedKBit(3), comp.RandK(2), comp.Scalarization(),
                comp.UniformQuantizer(0.5), comp.Identity(),
                comp.with_noise(comp.UnbiasedKBit(8), 0.5),
                comp.compose_kbit_of_uniform(3, 0.5), comp.compose_uniform_of_kbit(3, 0.5))

    graphs = [build_graph("ring", 5), build_graph("path", 5), build_graph("complete", 5),
              build_graph("erdos_renyi", 6, prob=0.5, seed=1)]
    # (clamp_alpha, x0_seed, tau_0, epsilon): each value of each option, and
    # both tau_0 with either clamp
    options = ((False, 0, 0.5, 0.9), (False, 1, 1.0, 0.99),
               (True, 0, 1.0, 0.9), (True, 1, 0.5, 0.99))
    digest, selections, refusals = hashlib.sha256(), 0, 0
    for graph, d, family in itertools.product(graphs, (3, 6), ("quadratic", "nonconvex")):
        problem = (make_quadratic(graph.n, d, seed=d) if family == "quadratic"
                   else make_nonconvex(graph.n, d, seed=d, m=5))
        for regime, compressor, T, (clamp, seed, tau_0, epsilon) in itertools.product(
                REGIMES, kinds(d), (None, 50, 5000), options):
            try:
                sel = theorem_params(regime, problem, graph, compressor.contract(d), T=T,
                                     x0_seed=seed, tau_0=tau_0, epsilon=epsilon,
                                     clamp_alpha=clamp)
            except DcoptError as exc:
                refusals += 1
                digest.update(f"{type(exc).__name__}: {exc}\n".encode())
                continue
            selections += 1
            digest.update(repr((sel.hyper, sel.init_mode, dict(sel.table),
                                sel.feasibility, sel.extras)).encode())
            digest.update(sel.x0.tobytes())
    return (f"{digest.hexdigest()}  theorem_params grid "
            f"({selections} selections, {refusals} refusals)")


def record_rows() -> str:
    """The record line: one digest of the ``trace_rows`` rows of each
    ``RECORD_BLOCKS`` block, (B, n, d) states drawn once, under no contract,
    one-bit's local contract (p = inf) and top-k's sound one (p = 2); each
    block ends at the final row, which has no state after its exchange."""
    sys.path.insert(0, str(REPO / "src"))
    import types

    import numpy as np

    from dcopt import build_graph, compressors as comp, make_nonconvex
    from dcopt.diagnostics import TRACE_DTYPE, trace_rows

    hyper = types.SimpleNamespace(gamma=0.6, beta=1.5)
    digest = hashlib.sha256()
    for topology, (B, n, d) in RECORD_BLOCKS:
        graph, problem = build_graph(topology, n), make_nonconvex(n, d, seed=1)
        gen = np.random.default_rng(n)
        X, V, Xhat, Xhat_next = (gen.standard_normal((B, n, d)) for _ in range(4))
        for contract in (None, comp.OneBit(1.0).contract(d), comp.TopK(1).sound_contract(d)):
            rows = np.zeros(B, TRACE_DTYPE)
            rows["k"], rows["s_k"] = np.arange(B), 2.0
            trace_rows(rows, X, V, Xhat, Xhat_next[:B - 1], problem, graph, hyper, contract)
            digest.update(rows.tobytes())
    return f"{digest.hexdigest()}  record {RECORD_BLOCKS}"


def graph_views() -> str:
    """The graph line: per topology, one digest over ``GRAPH_SIZES`` of each
    graph's spectral bounds, dense views and products with a fixed block."""
    sys.path.insert(0, str(REPO / "src"))
    import numpy as np

    from dcopt.graph import TOPOLOGIES, build_graph

    parts = []
    for topology in TOPOLOGIES:
        digest = hashlib.sha256()
        for n in GRAPH_SIZES:
            g = build_graph(topology, n, prob=0.5, seed=1)
            block = np.random.default_rng(n).standard_normal((n, 4))
            for array in (np.array([g.rho, g.rho2]), g.laplacian, g.F, g.mix(block),
                          g.apply_F(block)):
                digest.update(np.ascontiguousarray(array).tobytes())
        parts.append(f"{topology} {digest.hexdigest()[:16]}")
    return f"graph views at n in {GRAPH_SIZES}: " + ", ".join(parts)


def stream_draws() -> str:
    """The streams line: per purpose, one digest over ``STREAM_KEYS`` of the
    first uniforms and normals of each substream."""
    sys.path.insert(0, str(REPO / "src"))
    from dcopt import rng

    parts = []
    for name in ("GRAPH", "X0", "PROBLEM", "COMPRESSOR", "VERIFY"):
        digest = hashlib.sha256()
        for seed, tag, iteration in STREAM_KEYS:
            gen = rng.substream(seed, getattr(rng, name), tag, iteration)
            digest.update(gen.random(8).tobytes())
            digest.update(gen.standard_normal(8).tobytes())
        parts.append(f"{name} {digest.hexdigest()[:16]}")
    return f"streams at (seed, tag, iteration) in {STREAM_KEYS}: " + ", ".join(parts)


def compression_rounds() -> str:
    """The compressors line: one digest over every kind, bare and noisy, of
    its ``apply`` output and bits on one ``ROUND_SHAPE`` round, and of its
    ``sample_errors`` at two points, the second with signed zeros and the
    least subnormals."""
    sys.path.insert(0, str(REPO / "src"))
    import numpy as np

    from dcopt import compressors as comp
    from dcopt.config import KINDS

    U = np.random.default_rng(5).standard_normal(ROUND_SHAPE)
    points = (np.linspace(-2.0, 3.0, 8), np.array([0.0, -0.0, 5e-324, -5e-324, 1.0, -2.0]))
    values = {"level": 1.5, "step": 0.4, "k": 2, "kbits": 8}
    digest, count = hashlib.sha256(), 0
    for kind, make in KINDS.items():
        for noise in (0.0, 0.3):
            if isinstance(make, type):
                c = make(*(values[f.name] for f in dataclasses.fields(make) if not f.kw_only),
                         seed=12, tag=1)
            else:
                c = make(8, 0.4, seed=12)
            c = comp.with_noise(c, noise)
            Q, bits = c.apply(U, 3)
            digest.update(Q.tobytes() + repr(bits).encode())
            for tag, x in enumerate(points):
                digest.update(c.sample_errors(x, 500, 7, tag).tobytes())
            count += 1
    return f"{digest.hexdigest()}  compressors ({count} kinds at {ROUND_SHAPE})"


def fuzz_histogram() -> str:
    """The fuzzer's line: per command, how many configs exited with each code.
    A code carries " warned" when the command raised a warning, and an
    exception that escapes a command counts under its type's name."""
    sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]
    from hypothesis import HealthCheck, given, seed, settings

    import test_grammar_fuzz as fuzz

    counts = {command: collections.Counter() for command in fuzz.COMMANDS}

    @seed(FUZZ_SEED)
    @settings(max_examples=fuzz.EXAMPLES, database=None, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(fuzz.configs())
    def tally(drawn):
        with (tempfile.TemporaryDirectory(prefix="dcopt-fuzz-") as root,
              mock.patch.dict(os.environ, {"DCOPT_OUTPUT_ROOT": root})):
            path = fuzz.write_config(*drawn, Path(root))
            for command, histogram in counts.items():
                try:
                    code, _, caught = fuzz.run_command(command, path)
                    histogram[f"{code}{' warned' if caught else ''}"] += 1
                except Exception as exc:                       # noqa: BLE001
                    histogram[type(exc).__name__] += 1

    tally()
    return f"fuzz seed {FUZZ_SEED}, {fuzz.EXAMPLES} configs: " + "; ".join(
        f"{command} {dict(sorted(histogram.items()))}" for command, histogram in counts.items())


def main() -> int:
    with (tempfile.TemporaryDirectory(prefix="dcopt-digests-") as tmp,
          tempfile.TemporaryDirectory(prefix="dcopt-configs-") as generated):
        root = Path(tmp)
        for name, text in GENERATED.items():
            (Path(generated) / name).write_text(text)
        env = dict(os.environ, DCOPT_OUTPUT_ROOT=str(root),
                   PYTHONPATH=os.pathsep.join(
                       p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p))
        for command, config, *rest in COMMANDS:
            folder = Path(generated) if config in GENERATED else CONFIGS
            proc = subprocess.run(
                [sys.executable, "-m", "dcopt.cli", command, str(folder / config), *rest],
                cwd=root, env=env, capture_output=True)
            stdout = proc.stdout.replace(str(root).encode(), b"$DCOPT_OUTPUT_ROOT")
            print(f"{sha256(stdout)}  stdout of {' '.join((command, config, *rest))} "
                  f"(exit {proc.returncode})")
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            print(f"{sha256(path.read_bytes())}  {path.relative_to(root)}")
    print(compression_rounds())
    print(record_rows())
    print(stream_draws())
    print(graph_views())
    print(fuzz_histogram())
    print(param_grid())
    return 0


if __name__ == "__main__":
    sys.exit(main())
