"""The grammar fuzzer: configs drawn from ``config.GRAMMAR``, each key at a
boundary or an ordinary value, run through ``params``, ``run`` and ``verify``
in process.  Every config exits with a documented code, raises no exception
and no warning, and a command that exits 0 reports finite numbers.

``mutants/digests.py`` draws configs from the same strategy at a fixed seed
and prints the exit codes' histogram per command.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dcopt import cli, config

# a config starts at these values; it names each key whose type is a tuple
# of members when the key is required, else at a coin's toss, and then up to
# three keys whose type is a cast draw from POOL.  A key that sizes an array
# draws only the pool's values up to its cap, or an integer up to it.
BASE = {"problem": {"d": 6}, "graph": {"n": 5},
        "algorithm": {"t": 5, "alpha": 0.05, "gamma": 1.0, "tau_1": 2.0}}
POOL = (0, -1, 5e-324, 1e-300, 1e150, 1e200, 1e308, math.nan, math.inf, 0.5, 3)
CAPS = {"n": 10, "d": 6, "t": 5, "m": 20}
CASTS = [(name, key) for name, grammar in config.GRAMMAR.items()
         for key, (typ, _) in grammar.items() if not isinstance(typ, tuple)]
COMMANDS = {"params": [], "run": [], "verify": ["--samples", "50", "--trials", "20"]}
EXAMPLES = 500
EXITS = {cli.EXIT_OK, cli.EXIT_VERIFY_FAILED, *(code for _, code, _ in cli.EXIT_CODES)}


def _values(key: str):
    if key in CAPS:
        return (st.integers(1, CAPS[key])
                | st.sampled_from([v for v in POOL if not v > CAPS[key]]))
    return st.sampled_from(POOL)


@st.composite
def configs(draw) -> tuple:
    """A config's form ("json" or "ini") and its sections."""
    cfg = {name: dict(BASE.get(name, {})) for name in config.GRAMMAR}
    for name, grammar in config.GRAMMAR.items():
        for key, (typ, default) in grammar.items():
            if isinstance(typ, tuple) and (default is config.REQUIRED or draw(st.booleans())):
                cfg[name][key] = draw(st.sampled_from(typ))
    for name, key in draw(st.lists(st.sampled_from(CASTS), max_size=3, unique=True)):
        cfg[name][key] = draw(_values(key))
    return draw(st.sampled_from(("json", "ini"))), {name: sec for name, sec in cfg.items() if sec}


def write_config(form: str, cfg: dict, folder: Path) -> Path:
    path = folder / f"fuzz.{form}"
    if form == "json":
        path.write_text(json.dumps(cfg))
    else:
        path.write_text("".join(f"[{name}]\n" + "".join(f"{key} = {value}\n"
                                                         for key, value in sec.items())
                                for name, sec in cfg.items()))
    return path


def run_command(command: str, path: Path) -> tuple:
    """The command's exit code, stdout and warnings on the config at ``path``,
    run in process."""
    out = io.StringIO()
    with (warnings.catch_warnings(record=True) as caught,
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO())):
        warnings.simplefilter("always")
        code = cli.main([command, str(path), *COMMANDS[command]])
    return code, out.getvalue(), [str(w.message) for w in caught]


def _run_all(form: str, cfg: dict, root: str) -> dict:
    """Each command's result on the config, with every output under ``root``."""
    with mock.patch.dict(os.environ, {"DCOPT_OUTPUT_ROOT": root}):
        path = write_config(form, cfg, Path(root))
        return {command: run_command(command, path) for command in COMMANDS}


def _finite(value) -> bool:
    # json_safe writes a non-finite float as a string
    return isinstance(value, (int, float)) and math.isfinite(value)


def _ring(compressor: dict, **algorithm) -> dict:
    """BASE on the nonconvex family and the ring."""
    return {"problem": {**BASE["problem"], "family": "nonconvex"},
            "graph": {**BASE["graph"], "topology": "ring"}, "compressor": compressor,
            "algorithm": {**BASE["algorithm"], **algorithm}}


# the inputs that once overflowed, warned or passed a verdict on NaN, with
# each command's exit code
REPROS = [
    (_ring({"kind": "unbiased_kbit", "noise": 1e150}), {"verify": cli.EXIT_VERIFY_FAILED}),
    (_ring({"kind": "one_bit"}, s0=1e200), {"run": cli.EXIT_OK}),
    *((_ring(compressor), dict.fromkeys(COMMANDS, cli.EXIT_CONFIG)) for compressor in (
        {"kind": "unbiased_kbit", "noise": 1e155}, {"kind": "rand_k", "noise": 1e200},
        {"kind": "compose_kbit_of_uniform", "noise_inner": 1e200},
        {"kind": "uniform_quant", "step": 1e200}, {"kind": "uniform_quant", "step": 5e-324})),
    (_ring({"kind": "one_bit", "level": 1e308}), {"verify": cli.EXIT_CONFIG}),
    # an output near the float limit is scaled by s before it is mixed
    *((_ring({"kind": "one_bit", "level": 1e308}, s0=s0), {"run": cli.EXIT_OK})
      for s0 in (1e-12, 1e-200, 1e-300)),
]


def _examples(test):
    for cfg, _ in REPROS:
        test = example(("json", cfg))(test)
    return test


@settings(max_examples=EXAMPLES, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@_examples
@given(configs())
def test_every_config_exits_as_documented_without_a_warning(tmp_path, drawn):
    with tempfile.TemporaryDirectory(dir=tmp_path) as root:
        results = _run_all(*drawn, root)
        for command, (code, out, caught) in results.items():
            assert code in EXITS and caught == [], (command, code, caught)
        code, out, _ = results["run"]
        if code == cli.EXIT_OK:
            summary, = Path(root).rglob("summary.json")
            final = json.loads(summary.read_text())["final"]
            assert _finite(final["f_bar"]) and _finite(final["grad_sq"]), final
        code, out, _ = results["verify"]
        if code == cli.EXIT_OK:
            assert _finite(json.loads(out)["max_ratio"]), out


@pytest.mark.parametrize("cfg,codes", REPROS)
def test_the_repro_inputs_exit_as_listed(tmp_path, cfg, codes):
    results = _run_all("json", cfg, str(tmp_path))
    assert {command: results[command][0] for command in codes} == codes
    if codes.get("verify") == cli.EXIT_VERIFY_FAILED:
        # a point whose bound is no finite float has a NaN ratio
        assert json.loads(results["verify"][1])["max_ratio"] == "nan"
