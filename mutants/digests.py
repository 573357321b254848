"""Print one sha256 per output of a fixed set of ``dcopt`` commands.

Usage: python mutants/digests.py

Each command runs in a subprocess with this checkout's ``src`` first on
``PYTHONPATH`` and ``DCOPT_OUTPUT_ROOT`` set to one fresh temporary
directory.  The script prints one line per command, the digest of its
stdout with its exit code, then one line per file written under the output
root.  The output root is replaced by ``$DCOPT_OUTPUT_ROOT`` in stdout
before it is hashed, so two checkouts print the same lines exactly when
their outputs are byte-identical: run it in each and diff the two listings.
The digests depend on the NumPy and BLAS builds, so this is no tier-1 test.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "demos" / "configs"

COMMANDS = (
    ("run", "one_bit_ring.ini"),
    ("sweep", "t1_sweep.ini", "--horizons", "100", "200", "400"),
    ("params", "one_bit_ring.ini"),
    ("params", "t1_sweep.ini"),
    ("params", "kbit_noisy_verify.ini"),
    ("verify", "kbit_noisy_verify.ini"),
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="dcopt-digests-") as tmp:
        root = Path(tmp)
        env = dict(os.environ, DCOPT_OUTPUT_ROOT=str(root),
                   PYTHONPATH=os.pathsep.join(
                       p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p))
        for command, config, *rest in COMMANDS:
            proc = subprocess.run(
                [sys.executable, "-m", "dcopt.cli", command, str(CONFIGS / config), *rest],
                cwd=root, env=env, capture_output=True)
            stdout = proc.stdout.replace(str(root).encode(), b"$DCOPT_OUTPUT_ROOT")
            print(f"{sha256(stdout)}  stdout of {' '.join((command, config, *rest))} "
                  f"(exit {proc.returncode})")
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            print(f"{sha256(path.read_bytes())}  {path.relative_to(root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
