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
and message, with the counts of selections and of refusals.  Two checkouts
print the same lines exactly when their outputs are byte-identical: run it
in each and diff the two listings.  The digests depend on the NumPy and BLAS
builds, so this is no tier-1 test.
"""

import hashlib
import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "demos" / "configs"

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
)

COMPOSE = """
[problem]
family = nonconvex
d = 6
seed = 3

[graph]
topology = ring
n = 8

[compressor]
kind = {kind}
kbits = 4
step = 0.5
noise_inner = 0.3
noise_outer = 0.2

[algorithm]
T = 30
seed = 11
alpha = 0.05
gamma = 1.0
tau_1 = 2.0

[output]
directory = out/{kind}
"""

GENERATED = {f"{kind}.ini": COMPOSE.format(kind=kind)
             for kind in ("compose_kbit_of_uniform", "compose_uniform_of_kbit")}


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
            digest.update(repr((sel.hyper, sel.init_mode, sel.table.as_dict(),
                                sel.feasibility, sel.extras)).encode())
            digest.update(sel.x0.tobytes())
    return (f"{digest.hexdigest()}  theorem_params grid "
            f"({selections} selections, {refusals} refusals)")


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
    print(param_grid())
    return 0


if __name__ == "__main__":
    sys.exit(main())
