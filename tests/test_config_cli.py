import json
from pathlib import Path

import numpy as np
import pytest

from dcopt import cli, config, theorem_params
from dcopt.algorithm import ConstantSchedule, GeometricSchedule, RecursiveSchedule
from dcopt.config import build_run_plan, load_config
from dcopt.errors import ConfigError

BASE_CONFIG = """
[problem]
family = quadratic
d = 3
seed = 4
condition_number = 5.0

[graph]
topology = ring
n = 4
seed = 0

[compressor]
kind = one_bit
level = 2.0

[algorithm]
mode = empirical
T = 20
seed = 9
alpha = 0.05
gamma = 1.0
tau_1 = 2.0
omega = 1.0
schedule = geometric
rate = 0.99

[output]
directory = {out}
csv = true
svg = false
"""


def _write(tmp_path, text, name="run.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_load_ini_and_json(tmp_path):
    ini = _write(tmp_path, BASE_CONFIG.format(out=tmp_path / "o1"))
    cfg = load_config(ini)
    assert cfg["problem"]["family"] == "quadratic"
    as_json = json.dumps({k: dict(v) for k, v in cfg.items()})
    jp = tmp_path / "run.json"
    jp.write_text(as_json)
    cfg2 = load_config(jp)
    assert cfg2["graph"]["topology"] == "ring"


def test_load_rejects_garbage(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.ini")
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_build_run_plan_validation(tmp_path):
    cfg = load_config(_write(tmp_path, BASE_CONFIG.format(out=tmp_path)))
    cfg["algorithm"].pop("t")
    with pytest.raises(ConfigError):
        build_run_plan(cfg)
    cfg["algorithm"]["t"] = "20"
    cfg["compressor"]["kind"] = "warp_drive"
    with pytest.raises(ConfigError):
        build_run_plan(cfg)


def test_cmd_run_writes_outputs(tmp_path, capsys):
    out = tmp_path / "out1"
    path = _write(tmp_path, BASE_CONFIG.format(out=out))
    assert cli.cmd_run(path) == cli.EXIT_OK
    csv_text = (out / "trace.csv").read_text()
    lines = csv_text.strip().split("\n")
    assert len(lines) == 1 + 21      # header + T+1 rows
    assert json.loads((out / "summary.json").read_text())["iterations"] == 20
    # write-once: rerun refuses without force
    assert cli.cmd_run(path) == cli.EXIT_CONFIG
    assert cli.cmd_run(path, force=True) == cli.EXIT_OK


SCHEDULES = {"constant": ConstantSchedule, "geometric": GeometricSchedule,
             "recursive": RecursiveSchedule}


@pytest.mark.parametrize("edit", [
    ("schedule = geometric", "schedule = geometric"),
    ("schedule = geometric", "schedule = constant\ns0 = 3.5"),
    ("mode = empirical", "mode = T1_local_nonconvex"),
])
def test_summary_reproduces_schedule(tmp_path, edit):
    out = tmp_path / "out"
    path = _write(tmp_path, BASE_CONFIG.format(out=out).replace(*edit))
    assert cli.cmd_run(path) == cli.EXIT_OK
    saved = json.loads((out / "summary.json").read_text())["config"]["schedule"]
    rebuilt = SCHEDULES[saved.pop("mode")](**saved)
    assert rebuilt == build_run_plan(load_config(path))[3].schedule


def test_cmd_run_deterministic_csv(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    p1 = _write(tmp_path, BASE_CONFIG.format(out=out1), "r1.ini")
    p2 = _write(tmp_path, BASE_CONFIG.format(out=out2), "r2.ini")
    assert cli.cmd_run(p1) == cli.EXIT_OK
    assert cli.cmd_run(p2) == cli.EXIT_OK
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()


def test_cmd_run_infeasible_gamma(tmp_path, capsys):
    text = BASE_CONFIG.format(out=tmp_path / "o2").replace(
        "mode = empirical", "mode = T3_local_PL\ngamma_margin = 0.5")
    path = _write(tmp_path, text, "infeasible.ini")
    assert cli.cmd_run(path) == cli.EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert "gamma below kappa_2" in err


def test_cmd_run_divergence_exit(tmp_path, capsys):
    text = BASE_CONFIG.format(out=tmp_path / "o3").replace(
        "alpha = 0.05", "alpha = 80.0").replace("tau_1 = 2.0", "tau_1 = 40.0").replace(
        "T = 20", "T = 300")
    path = _write(tmp_path, text, "diverge.ini")
    assert cli.cmd_run(path) == cli.EXIT_DIVERGED
    assert "divergence" in capsys.readouterr().err


def test_cmd_verify_pass_and_fail(tmp_path, capsys):
    path = _write(tmp_path, BASE_CONFIG.format(out=tmp_path / "o4"))
    assert cli.cmd_verify(path, samples=2000, trials=500) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] and report["kind"] == "one_bit"
    # top-k with its stated point contract has a boundary counterexample
    text = BASE_CONFIG.format(out=tmp_path / "o5").replace(
        "kind = one_bit", "kind = top_k").replace("level = 2.0", "k = 1")
    path = _write(tmp_path, text, "topk.ini")
    assert cli.cmd_verify(path, samples=2000, trials=500) == cli.EXIT_VERIFY_FAILED


def test_cmd_verify_global(tmp_path, capsys):
    text = BASE_CONFIG.format(out=tmp_path / "o6").replace(
        "kind = one_bit", "kind = unbiased_kbit\nkbits = 3\nnoise = 1.0").replace(
        "level = 2.0", "")
    path = _write(tmp_path, text, "global.ini")
    assert cli.cmd_verify(path, trials=2000) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["contract"]["class"] == "global"


def test_cmd_sweep(tmp_path, capsys):
    text = BASE_CONFIG.format(out=tmp_path / "o7")
    path = _write(tmp_path, text, "sweep.ini")
    assert cli.cmd_sweep(path, [20, 40, 80]) == cli.EXIT_OK
    data = json.loads((tmp_path / "o7" / "sweep.json").read_text())
    assert len(data["rows"]) == 3
    assert "exponent" in data["fit"]
    assert cli.cmd_sweep(path, [20, 40]) == cli.EXIT_CONFIG


def test_cmd_sweep_divergence_names_the_horizon(tmp_path, capsys):
    text = BASE_CONFIG.format(out=tmp_path / "o11").replace(
        "alpha = 0.05", "alpha = 80.0").replace("tau_1 = 2.0", "tau_1 = 40.0")
    path = _write(tmp_path, text, "diverge.ini")
    assert cli.cmd_sweep(path, [300, 310, 320]) == cli.EXIT_DIVERGED
    assert capsys.readouterr().err.startswith("error: divergence: T=300: ")


DEMO_CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"


@pytest.mark.parametrize("argv", [
    ["verify", str(DEMO_CONFIGS / "one_bit_ring.ini"), "--samples", "0"],
    ["verify", str(DEMO_CONFIGS / "kbit_noisy_verify.ini"), "--trials", "1"],
])
def test_verify_rejects_bad_sample_counts(capsys, argv):
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: config: ")


def test_cmd_params(tmp_path, capsys):
    path = _write(tmp_path, BASE_CONFIG.format(out=tmp_path / "o8"))
    assert cli.cmd_params(path) == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["constants"]["kappa_1"] == pytest.approx(4.0 / 2.0)  # ring-4 rho2 = 2
    assert payload["hyper"]["alpha"] == 0.05


@pytest.mark.parametrize("edits", [
    [("mode = empirical", "mode = T1_local_nonconvex")],
    [("mode = empirical", "mode = T2_local_exact_first\ntau_0 = 0.5")],
    [("mode = empirical", "mode = T3_local_PL")],
    [("mode = empirical", "mode = T5_global_nonconvex"),
     ("kind = one_bit", "kind = unbiased_kbit\nkbits = 3\nnoise = 1.0")],
])
def test_cmd_params_prints_the_selection(tmp_path, capsys, edits):
    text = BASE_CONFIG.format(out=tmp_path / "o10")
    for edit in edits:
        text = text.replace(*edit)
    path = _write(tmp_path, text)
    assert cli.cmd_params(path) == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)

    cfg = load_config(path)
    graph = config.build_graph_from(cfg)
    problem = config.build_problem_from(cfg, graph.n)
    compressor = config.build_compressor_from(cfg, 9)
    sel = theorem_params(cfg["algorithm"]["mode"], problem, graph, compressor.contract(problem.d),
                         T=20, x0_seed=9, **config.regime_options(cfg))
    constants = payload["constants"]
    np.testing.assert_equal(constants, sel.table.as_dict())
    # a bound named after a table entry is that entry
    matched = 0
    for name, flag in payload["feasibility"].items():
        keys = [k for k in constants if name.endswith("_" + k)]
        if keys:
            assert flag["bound"] == constants[max(keys, key=len)], name
            matched += 1
    assert matched >= 3
    saved = payload["hyper"]["schedule"]
    assert SCHEDULES[saved.pop("mode")](**saved) == sel.hyper.schedule


def test_main_entrypoint(tmp_path):
    out = tmp_path / "o9"
    path = _write(tmp_path, BASE_CONFIG.format(out=out))
    assert cli.main(["run", path]) == cli.EXIT_OK
    assert cli.main(["verify-compressors", path, "--samples", "500"]) == cli.EXIT_OK


def test_output_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("DCOPT_OUTPUT_ROOT", str(tmp_path / "root"))
    text = BASE_CONFIG.format(out="rel-dir")
    path = _write(tmp_path, text, "env.ini")
    assert cli.cmd_run(path) == cli.EXIT_OK
    assert (tmp_path / "root" / "rel-dir" / "trace.csv").exists()
