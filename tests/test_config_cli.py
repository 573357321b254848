import dataclasses
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from dcopt import (algorithm, cli, compute_constants, config, constants, diagnostics,
                   theorem_params)
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


def test_json_section_must_be_an_object(tmp_path, capsys):
    bad = _write(tmp_path, json.dumps({"problem": 5, "graph": {"n": 4}}), "bad.json")
    with pytest.raises(ConfigError, match="'problem'"):
        load_config(bad)
    assert cli.main(["params", bad]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: config: ")


def _as_json(tmp_path, text, edit):
    cfg = {s: dict(v) for s, v in load_config(_write(tmp_path, text)).items()}
    cfg["algorithm"]["T"] = int(cfg["algorithm"].pop("t"))
    for section, values in edit.items():
        cfg.setdefault(section, {}).update(values)
    return _write(tmp_path, json.dumps(cfg), "run.json")


@pytest.mark.parametrize("edit", [{"graph": {"n": 6.7}}, {"algorithm": {"T": True}},
                                  {"algorithm": {"alpha": True}}])
def test_json_numbers_are_not_truncated(tmp_path, capsys, edit):
    text = BASE_CONFIG.format(out=tmp_path / "o13")
    assert build_run_plan(load_config(_as_json(tmp_path, text, {"graph": {"n": 4.0}}))).graph.n == 4
    path = _as_json(tmp_path, text, edit)
    with pytest.raises(ConfigError, match="bad value"):
        build_run_plan(load_config(path))
    assert cli.main(["run", path]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: config: ")


@pytest.mark.parametrize("old,new,name", [("rate = 0.99", "rtae = 0.5", "rtae"),
                                          ("[output]", "[outptu]", "outptu"),
                                          ("n = 4", "n = 4\ntopolgy = path", "topolgy")])
def test_unknown_keys_are_refused(tmp_path, capsys, old, new, name):
    text = BASE_CONFIG.format(out=tmp_path / "o14")
    path = _write(tmp_path, text.replace(old, new))
    with pytest.raises(ConfigError, match=f"unknown .* '{name}'"):
        load_config(path)
    assert cli.main(["run", path]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: config: ")
    assert not (tmp_path / "o14").exists()
    # the same keys, spelled right, load from INI and from JSON (with T upper-case)
    assert load_config(_write(tmp_path, text))["algorithm"]["t"] == "20"
    assert load_config(_as_json(tmp_path, text, {}))["algorithm"]["T"] == 20


# each refused config: replacements in BASE_CONFIG's INI text, an edit of its
# JSON form, or a whole JSON document; and the start of the message
REFUSALS = [
    ("ini", [("d = 3", "d = 3\nd = 4")], "invalid config"),
    ("ini", [("n = 4\n", "")], "missing required key 'n'"),
    ("ini", [("csv = true", "csv = maybe")], "bad value for 'csv'"),
    ("ini", [("seed = 9", f"seed = {2 ** 64}")], "bad value for 'seed'"),
    ("ini", [("family = quadratic", "family = cubic")], "bad value for 'family'"),
    ("ini", [("omega = 1.0", "omega = 1.5")], "omega must be in (0, 1/r]"),
    # a theoretical mode holds omega to the same rule, with the same exit code
    ("ini", [("mode = empirical", "mode = T5_global_nonconvex"),
             ("kind = one_bit\nlevel = 2.0", "kind = unbiased_kbit"),
             ("omega = 1.0", "omega = 1.5")],
     "omega must be in (0, 1/r]"),
    ("ini", [("alpha = 0.05\n", "")], "missing required key 'alpha'"),
    ("ini", [("schedule = geometric", "schedule = recursive")], "bad value for 'schedule'"),
    ("ini", [("mode = empirical", "mode = T4_local")], "bad value for 'mode'"),
    # tau_0 is refused by name before any table is evaluated
    ("ini", [("mode = empirical", "mode = T2_local_exact_first\ntau_0 = 0")],
     "tau_0 must be positive, got 0.0"),
    ("ini", [("alpha = 0.05", "alpha = nan")], "bad value for 'alpha'"),
    ("ini", [("gamma = 1.0", "gamma = inf")], "bad value for 'gamma'"),
    ("ini", [("level = 2.0", "level = nan")], "bad value for 'level'"),
    ("ini", [("rate = 0.99", "rate = 0.99\ns0_margin = nan")], "bad value for 's0_margin'"),
    # s0 and s0_margin are positive under either contract class
    ("ini", [("rate = 0.99", "rate = 0.99\ns0_margin = 0")], "bad value for 's0_margin'"),
    ("ini", [("rate = 0.99", "rate = 0.99\ns0 = -1.0")], "bad value for 's0'"),
    ("ini", [("rate = 0.99", "rate = 0.99\ns0 = 0")], "bad value for 's0'"),
    ("ini", [("kind = one_bit\nlevel = 2.0", "kind = unbiased_kbit"),
             ("rate = 0.99", "rate = 0.99\ns0 = -1.0")], "bad value for 's0'"),
    ("ini", [("level = 2.0", "level = 2.0\nnoise = -0.5")], "noise bound must be >= 0"),
    # each kind reads only its own parameter and noise keys
    ("ini", [("kind = one_bit\nlevel = 2.0", "kind = compose_kbit_of_uniform\nnoise = 0.5")],
     "kind 'compose_kbit_of_uniform' does not read 'noise'"),
    ("ini", [("kind = one_bit\nlevel = 2.0", "kind = compose_uniform_of_kbit\nnoise = 0")],
     "kind 'compose_uniform_of_kbit' does not read 'noise'"),
    ("ini", [("level = 2.0", "level = 2.0\nnoise_inner = 0.5")],
     "kind 'one_bit' does not read 'noise_inner'"),
    ("json", {"compressor": {"kind": "sat_quant", "noise_outer": "0.2"}},
     "kind 'sat_quant' does not read 'noise_outer'"),
    ("ini", [("kind = one_bit", "kind = top_k")], "kind 'top_k' does not read 'level'"),
    # a key the mode never reads is still read as its type
    ("ini", [("mode = empirical", "mode = T1_local_nonconvex"), ("alpha = 0.05", "alpha = abc")],
     "bad value for 'alpha'"),
    # a theoretical mode reads the key as its type, and refuses any init mode but its own
    ("ini", [("mode = empirical", "mode = T1_local_nonconvex"),
             ("seed = 9", "seed = 9\ninit_mode = bogus")], "bad value for 'init_mode'"),
    ("ini", [("mode = empirical", "mode = T1_local_nonconvex"),
             ("seed = 9", "seed = 9\ninit_mode = exact_first_round")],
     "T1_local_nonconvex runs init_mode 'standard', not 'exact_first_round'"),
    ("ini", [("mode = empirical", "mode = T2_local_exact_first"),
             ("seed = 9", "seed = 9\ninit_mode = standard")],
     "T2_local_exact_first runs init_mode 'exact_first_round', not 'standard'"),
    ("json", {"output": {"directory": 5}}, "bad value for 'directory'"),
    ("json", {"graph": {"topology": ["ring"]}}, "bad value for 'topology'"),
    ("json", {"algorithm": {"gamma": float("nan")}}, "bad value for 'gamma'"),
    ("document", [BASE_CONFIG], "JSON config must be a single object"),
    # JSON keeps the case of T, so a section may name it twice
    ("json", {"algorithm": {"t": 7}}, "section 'algorithm' names both 'T' and 't'"),
    # compressor parameters whose arithmetic would overflow a float
    ("ini", [("kind = one_bit\nlevel = 2.0", "kind = unbiased_kbit\nkbits = 600")],
     "kbits must be <= 511, got 600"),
    ("ini", [("kind = one_bit\nlevel = 2.0", "kind = sat_quant\nlevel = 1e308\nstep = 1e-300")],
     "need level > 0, step in (0, 2*level) and level/step finite"),
    # the grammar reads the topologies build_graph builds
    ("ini", [("topology = ring", "topology = torus")],
     "bad value for 'topology': 'torus' (one of ring, path, complete, erdos_renyi)"),
    # a finite lam whose constants overflow a float (gamma ** 5 in phi_5)
    ("ini", [("mode = empirical", "mode = T1_local_nonconvex"),
             ("family = quadratic", "family = nonconvex\nlam = 1e40")],
     "compute_constants cannot be evaluated in floats at ell=2e+40"),
    # a lam whose ell = 1/4 + 2 lam overflows is refused as the problem is built, before
    # any cost is evaluated (a RuntimeWarning is an error under pytest)
    ("ini", [("mode = empirical", "mode = T1_local_nonconvex"),
             ("family = quadratic", "family = nonconvex\nlam = 1e308")],
     "need a finite ell = 1/4 + 2 lam, got lam = 1e+308"),
    # a finite lam whose kappa_tilde_4 overflows to inf refuses the recursive schedule
    ("ini", [("mode = empirical", "mode = T2_local_exact_first"),
             ("family = quadratic", "family = nonconvex\nlam = 1e25")],
     "need finite kappa4 and s0, got kappa4=inf"),
    # a finite parameter whose contract constant overflows a float
    ("ini", [("kind = one_bit\nlevel = 2.0", "kind = unbiased_kbit\nnoise = 1e155")],
     "contract constants out of range: r=1.0, C=inf, delta=0.4765625"),
    ("ini", [("kind = one_bit\nlevel = 2.0", "kind = rand_k\nnoise = 1e200")],
     "contract constants out of range: r=1.0, C=inf, delta=0.16666666666666666"),
    *(("ini", [("kind = one_bit\nlevel = 2.0", params)],
       "contract constants out of range: r=1.0, C=inf, delta=1.0")
      for params in ("kind = compose_kbit_of_uniform\nnoise_inner = 1e200",
                     "kind = uniform_quant\nstep = 1e200")),
    # T3's initial scale divides by C^2
    ("ini", [("mode = empirical", "mode = T3_local_PL"), ("level = 2.0", "level = 1e200")],
     "T3_local_PL: s0 cannot be evaluated in floats at C=1e+200"),
]


@pytest.mark.parametrize("form,edit,message", REFUSALS)
def test_config_refusals_exit_2_and_write_nothing(tmp_path, capsys, monkeypatch,
                                                  form, edit, message):
    monkeypatch.setenv("DCOPT_OUTPUT_ROOT", str(tmp_path / "root"))
    text = BASE_CONFIG.format(out="out")
    if form == "ini":
        for old, new in edit:
            assert old in text
            text = text.replace(old, new)
        path = _write(tmp_path, text)
    elif form == "json":
        path = _as_json(tmp_path, text, edit)
    else:
        path = _write(tmp_path, json.dumps(edit), "run.json")
    for argv in (["run", path], ["sweep", path, "--horizons", "20", "40", "80"],
                 ["params", path]):
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: config: {message}")
    assert not (tmp_path / "root").exists()


@pytest.mark.parametrize("mode,own", [("T1_local_nonconvex", "standard"),
                                      ("T2_local_exact_first", "exact_first_round")])
def test_a_theoretical_mode_runs_its_own_init_mode_named_or_not(tmp_path, mode, own):
    text = BASE_CONFIG.format(out=tmp_path).replace("mode = empirical", f"mode = {mode}")
    for named in ("", f"\ninit_mode = {own}"):
        cfg = load_config(_write(tmp_path, text.replace("seed = 9", "seed = 9" + named)))
        assert build_run_plan(cfg).run_kwargs["init_mode"] == own


def test_a_theoretical_mode_echoes_the_empirical_keys_it_ignores(tmp_path):
    out = tmp_path / "out"
    text = BASE_CONFIG.format(out=out).replace("mode = empirical", "mode = T1_local_nonconvex")
    for line in ("gamma = 1.0\n", "tau_1 = 2.0\n", "rate = 0.99\n"):
        text = text.replace(line, "")
    path = _write(tmp_path, text.replace("alpha = 0.05", "alpha = 123.0")
                  .replace("schedule = geometric", "schedule = constant"))
    assert cli.cmd_run(path) == cli.EXIT_OK
    echo = json.loads((out / "summary.json").read_text())["config"]
    assert echo["ignored"] == ["alpha", "schedule"]
    assert echo["alpha"] == build_run_plan(load_config(path)).hyper.alpha != 123.0
    # a theoretical mode given none of them, and the empirical mode, echo no list
    for plain in (text.replace("alpha = 0.05\n", "").replace("schedule = geometric\n", ""),
                  BASE_CONFIG.format(out=out)):
        assert "ignored" not in build_run_plan(load_config(_write(tmp_path, plain))).echo
    # the empirical mode echoes the theoretical keys its config names
    path = _write(tmp_path, BASE_CONFIG.format(out=out).replace(
        "rate = 0.99", "rate = 0.99\nclamp_alpha = true\nstrict = true\ntau_0 = 0.5"))
    assert cli.cmd_run(path, force=True) == cli.EXIT_OK
    echo = json.loads((out / "summary.json").read_text())["config"]
    assert echo["ignored"] == ["clamp_alpha", "strict", "tau_0"]


def test_each_kind_builds_from_its_params_and_shows_them_in_its_repr():
    values = {"level": "1.5", "step": "0.4", "k": "2", "kbits": "3"}
    for kind, make in config.KINDS.items():
        if not isinstance(make, type):
            config.build_compressor_from(
                {"compressor": {"kind": kind, "kbits": "3", "step": "0.4"}}, 0)
            continue
        names = [f.name for f in dataclasses.fields(make) if not f.kw_only]
        compressor = config.build_compressor_from(
            {"compressor": {"kind": kind, **{name: values[name] for name in names}}}, 0)
        args = ", ".join(f"{name}={values[name]}" for name in names)
        assert repr(compressor) == f"{make.__name__}({args})"


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


def test_run_checks_only_the_files_it_writes(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "trace.csv").write_text("stale\n")
    path = _write(tmp_path, BASE_CONFIG.format(out=out).replace("csv = true", "csv = false"))
    assert cli.cmd_run(path) == cli.EXIT_OK
    assert (out / "trace.csv").read_text() == "stale\n"
    assert (out / "summary.json").exists()


def test_a_json_false_csv_writes_no_trace(tmp_path):
    out = tmp_path / "out"
    path = _as_json(tmp_path, BASE_CONFIG.format(out=out), {"output": {"csv": False}})
    assert cli.cmd_run(path) == cli.EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == ["summary.json"]


@pytest.mark.parametrize("plot", ["metrics_vs_iterations.svg", "metrics_vs_bits.svg"])
def test_run_refuses_to_overwrite_a_plot(tmp_path, capsys, plot):
    out = tmp_path / "out"
    out.mkdir()
    (out / plot).write_text("<svg/>")
    path = _write(tmp_path, BASE_CONFIG.format(out=out).replace("svg = false", "svg = true"))
    assert cli.cmd_run(path) == cli.EXIT_CONFIG
    assert plot in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == [plot]


def test_run_writes_both_plots(tmp_path, capsys, monkeypatch):
    # a stub matplotlib with only the calls the plots make, so that any other
    # call, or any error in the plot body, prints the "note:" line it is caught as
    curves = []

    class Axes:
        def semilogy(self, xs, ys, label, lw):
            assert len(xs) == len(ys) and np.all(ys > 0)
            curves.append(label)

        def set_xlabel(self, label):
            pass

        def legend(self, loc, fontsize):
            pass

        def grid(self, alpha):
            pass

    class Figure:
        def tight_layout(self):
            pass

        def savefig(self, path, metadata):
            Path(path).write_text("<svg/>")

    pyplot = types.ModuleType("matplotlib.pyplot")
    pyplot.subplots = lambda figsize: (Figure(), Axes())
    pyplot.close = lambda fig: None
    matplotlib = types.ModuleType("matplotlib")
    matplotlib.use = lambda backend: None
    matplotlib.pyplot = pyplot
    monkeypatch.setitem(sys.modules, "matplotlib", matplotlib)
    monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)

    out = tmp_path / "out"
    path = _write(tmp_path, BASE_CONFIG.format(out=out).replace("svg = false", "svg = true"))
    assert cli.cmd_run(path) == cli.EXIT_OK
    assert all((out / fname).read_text() == "<svg/>" for _, _, fname in cli.PLOTS)
    assert not any(line.startswith("note:") for line in capsys.readouterr().err.splitlines())
    assert curves.count("f_bar") == len(cli.PLOTS)


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
    assert rebuilt == build_run_plan(load_config(path)).hyper.schedule


def test_cmd_run_deterministic_csv(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    p1 = _write(tmp_path, BASE_CONFIG.format(out=out1), "r1.ini")
    p2 = _write(tmp_path, BASE_CONFIG.format(out=out2), "r2.ini")
    assert cli.cmd_run(p1) == cli.EXIT_OK
    assert cli.cmd_run(p2) == cli.EXIT_OK
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()


def test_cmd_run_infeasible_gamma(tmp_path, capsys):
    text = BASE_CONFIG.format(out=tmp_path / "o2").replace(
        "mode = empirical", "mode = T5_global_nonconvex")
    path = _write(tmp_path, text, "infeasible.ini")
    assert cli.cmd_run(path) == cli.EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert "needs a global compressor contract" in err


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
    capsys.readouterr()
    # at k = d its contract has delta = 1, so the bound is 0 and top-k is exact
    path = _write(tmp_path, text.replace("k = 1", "k = 3"), "topk3.ini")
    assert cli.main(["verify", path, "--samples", "2000"]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["contract"]["delta"] == 1.0
    assert report["max_ratio"] == 0.0 and report["worst"] == {}


def test_cmd_verify_global(tmp_path, capsys):
    text = BASE_CONFIG.format(out=tmp_path / "o6").replace(
        "kind = one_bit", "kind = unbiased_kbit\nkbits = 3\nnoise = 1.0").replace(
        "level = 2.0", "")
    path = _write(tmp_path, text, "global.ini")
    assert cli.cmd_verify(path, trials=2000) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["contract"]["class"] == "global"


@pytest.mark.parametrize("params", ["kind = unbiased_kbit\nkbits = 600",
                                    "kind = sat_quant\nlevel = 1e308\nstep = 1e-300",
                                    "kind = unbiased_kbit\nnoise = 1e155",
                                    "kind = one_bit\nlevel = 1e308"])
def test_verify_refuses_a_compressor_that_overflows(tmp_path, capsys, params):
    text = BASE_CONFIG.format(out=tmp_path / "o15").replace("kind = one_bit\nlevel = 2.0", params)
    assert cli.main(["verify", _write(tmp_path, text)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: config: ")
    assert not (tmp_path / "o15").exists()


def test_verify_refuses_an_unknown_topology_as_the_config_loads(tmp_path, capsys):
    # verify builds no graph, so only the grammar can refuse the name
    text = BASE_CONFIG.format(out=tmp_path / "o16").replace("topology = ring", "topology = torus")
    assert cli.main(["verify", _write(tmp_path, text)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == ("error: config: bad value for 'topology': 'torus' "
                                       "(one of ring, path, complete, erdos_renyi)\n")
    assert not (tmp_path / "o16").exists()


@pytest.mark.parametrize("kind,code", [("one_bit", cli.EXIT_OK),
                                       ("top_k", cli.EXIT_VERIFY_FAILED)])
def test_verify_compressors_is_verify(tmp_path, capsys, kind, code):
    text = BASE_CONFIG.format(out=tmp_path / "o12")
    if kind == "top_k":
        # top-k reads k, not level
        text = text.replace("kind = one_bit\nlevel = 2.0", "kind = top_k")
    path = _write(tmp_path, text)
    outputs = []
    for command in ("verify", "verify-compressors"):
        assert cli.main([command, path, "--samples", "300"]) == code
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and json.loads(outputs[0])["kind"] == kind


def test_verify_reports_what_it_ran(tmp_path, capsys):
    # --samples sets a local contract's random points (boundary cases come on
    # top); --trials sets the draws at each of a global contract's 16 points
    local = _write(tmp_path, BASE_CONFIG.format(out=tmp_path / "o8"))
    text = BASE_CONFIG.format(out=tmp_path / "o9").replace(
        "kind = one_bit", "kind = unbiased_kbit\nkbits = 3\nnoise = 1.0").replace(
        "level = 2.0", "")
    global_ = _write(tmp_path, text, "global.ini")
    assert cli.main(["verify", local, "--samples", "300", "--trials", "50"]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["samples"] > 300 and report["trials_per_sample"] is None
    assert set(report["worst"]) == {"x", "error", "bound"}
    assert cli.main(["verify", global_, "--samples", "300", "--trials", "50"]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert (report["samples"], report["trials_per_sample"]) == (16, 50)
    assert set(report["worst"]) == {"radius", "mean", "bound", "se"}


def test_cmd_sweep(tmp_path, capsys):
    text = BASE_CONFIG.format(out=tmp_path / "o7")
    path = _write(tmp_path, text, "sweep.ini")
    assert cli.cmd_sweep(path, [20, 40, 80]) == cli.EXIT_OK
    data = json.loads((tmp_path / "o7" / "sweep.json").read_text())
    assert len(data["rows"]) == 3
    assert "exponent" in data["fit"]
    assert cli.cmd_sweep(path, [20, 40]) == cli.EXIT_CONFIG
    # a repeated horizon runs once, and fewer than 3 distinct ones fit no rate
    assert cli.cmd_sweep(path, [80, 20, 40, 20], force=True) == cli.EXIT_OK
    data = json.loads((tmp_path / "o7" / "sweep.json").read_text())
    assert [row["T"] for row in data["rows"]] == [20, 40, 80]
    (tmp_path / "o7" / "sweep.json").unlink()
    for horizons in ([20, 20, 20], [20, 40, 20, 40]):
        assert cli.cmd_sweep(path, horizons, force=True) == cli.EXIT_CONFIG
        assert not (tmp_path / "o7" / "sweep.json").exists()


def test_cmd_sweep_divergence_names_the_horizon(tmp_path, capsys):
    text = BASE_CONFIG.format(out=tmp_path / "o11").replace(
        "alpha = 0.05", "alpha = 80.0").replace("tau_1 = 2.0", "tau_1 = 40.0")
    path = _write(tmp_path, text, "diverge.ini")
    assert cli.cmd_sweep(path, [300, 310, 320]) == cli.EXIT_DIVERGED
    assert capsys.readouterr().err.startswith("error: divergence: T=300: ")


def _count_calls(monkeypatch, module, name):
    """Patch ``module.name`` to record each call in the returned list."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


def test_cmd_sweep_refuses_to_overwrite_before_it_runs(tmp_path, monkeypatch, capsys):
    out = tmp_path / "o14"
    out.mkdir()
    (out / "sweep.json").write_text("{}")
    path = _write(tmp_path, BASE_CONFIG.format(out=out), "sweep.ini")
    runs = _count_calls(monkeypatch, algorithm, "run")
    assert cli.cmd_sweep(path, [20, 40, 80]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: config: refusing to overwrite")
    assert runs == []
    assert (out / "sweep.json").read_text() == "{}"


def test_cmd_sweep_builds_once(tmp_path, monkeypatch, capsys):
    path = _write(tmp_path, BASE_CONFIG.format(out=tmp_path / "o15"), "sweep.ini")
    builds = [_count_calls(monkeypatch, config, name) for name in
              ("build_graph_from", "build_problem_from", "build_compressor_from")]
    assert cli.cmd_sweep(path, [20, 40, 80]) == cli.EXIT_OK
    assert [len(calls) for calls in builds] == [1, 1, 1]


GLOBAL_KIND = ("kind = one_bit\nlevel = 2.0", "kind = unbiased_kbit\nkbits = 3")
# one config per selection rule
RESELECT_EDITS = {
    "empirical": [],
    "T1": [("mode = empirical", "mode = T1_local_nonconvex")],
    "T1_clamped": [("mode = empirical", "mode = T1_local_nonconvex\nclamp_alpha = true")],
    "T2": [("mode = empirical", "mode = T2_local_exact_first")],
    "T3": [("mode = empirical", "mode = T3_local_PL")],
    "T5": [("mode = empirical", "mode = T5_global_nonconvex"), GLOBAL_KIND],
    "T6": [("mode = empirical", "mode = T6_global_PL"), GLOBAL_KIND],
}


@pytest.mark.parametrize("edits", RESELECT_EDITS.values(), ids=RESELECT_EDITS)
def test_plan_at_reselects_a_built_plan_at_another_horizon(tmp_path, edits):
    text = BASE_CONFIG.format(out=tmp_path / "o16")
    for edit in edits:
        text = text.replace(*edit)
    cfg = load_config(_write(tmp_path, text))
    built = build_run_plan(cfg)
    for T in (7, 300):
        want = build_run_plan(load_config(_write(tmp_path, text.replace("T = 20", f"T = {T}"),
                                                 f"T{T}.ini")))
        got = config.plan_at(cfg, built.problem, built.graph, built.compressor, T)
        assert got.run_kwargs["T"] == T
        assert got.hyper == want.hyper  # the schedule with it
        assert np.array_equal(got.run_kwargs.pop("x0"), want.run_kwargs.pop("x0"))
        assert got.run_kwargs == want.run_kwargs
        assert got.feasibility == want.feasibility
        assert got.extras == want.extras
        assert got.echo == want.echo


# every kind with the keys it reads, plain and noisy, and top_k with k = d;
# identity, uniform_quant and top_k with k = d meet omega r (2 delta - delta^2) = 1
# at the default omega
MATRIX_KINDS = {"one_bit": "level = 2.0", "sat_quant": "level = 2.0\nstep = 0.5",
                "top_k": "k = 1", "rand_k": "k = 1", "unbiased_kbit": "kbits = 3",
                "uniform_quant": "step = 0.5", "compose_kbit_of_uniform": "kbits = 3\nstep = 0.5",
                "compose_uniform_of_kbit": "kbits = 3\nstep = 0.5"}
MATRIX_VARIANTS = [
    *((kind, MATRIX_KINDS.get(kind, "") + extra) for kind in config.KINDS
      for extra in (("", "\nnoise_inner = 0.5", "\nnoise_outer = 0.5")
                    if kind.startswith("compose_") else ("", "\nnoise = 0.5"))),
    ("top_k", "k = 3"), ("top_k", "k = 3\nnoise = 0.5")]
MATRIX_CONFIG = """
[problem]
family = {family}
d = 3
seed = 4

[graph]
topology = ring
n = 4

[compressor]
kind = {kind}
{keys}

[algorithm]
mode = {mode}
T = 5
seed = 9
alpha = 0.05
gamma = 1.0
tau_1 = 2.0

[output]
directory = out
svg = false
"""


@pytest.mark.parametrize("kind,keys", MATRIX_VARIANTS,
                         ids=[kind + "-" + keys.replace("\n", ",")
                              for kind, keys in MATRIX_VARIANTS])
def test_every_kind_mode_and_family_exits_with_a_documented_code(tmp_path, monkeypatch,
                                                                 capsys, kind, keys):
    monkeypatch.setenv("DCOPT_OUTPUT_ROOT", str(tmp_path))
    codes = {cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_INFEASIBLE, cli.EXIT_DIVERGED,
             cli.EXIT_VERIFY_FAILED}
    bad = []
    for mode in ("empirical", *constants.REGIMES):
        for family in ("quadratic", "nonconvex"):
            path = _write(tmp_path, MATRIX_CONFIG.format(family=family, kind=kind,
                                                         keys=keys, mode=mode))
            for argv in (["run", path, "--force"], ["params", path]):
                try:
                    code = cli.main(argv)
                except Exception as exc:                       # noqa: BLE001
                    code = repr(exc)
                err = capsys.readouterr().err
                if code not in codes or (code != cli.EXIT_OK and not any(
                        line.startswith("error: ") for line in err.splitlines())):
                    bad.append((argv[0], mode, family, code, err))
    assert not bad, bad


DEMO_CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"


def _not_standard_json(name):
    raise AssertionError(f"{name} is not standard JSON")


@pytest.mark.parametrize("name", sorted(p.name for p in DEMO_CONFIGS.glob("*.ini")))
def test_demo_config_plans_and_its_params_and_verify_exit_0(name, capsys):
    path = str(DEMO_CONFIGS / name)
    build_run_plan(load_config(path))
    assert cli.main(["params", path]) == cli.EXIT_OK
    json.loads(capsys.readouterr().out, parse_constant=_not_standard_json)
    assert cli.main(["verify", path]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out, parse_constant=_not_standard_json)["pass"]


def test_demo_run_writes_under_the_output_root(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DCOPT_OUTPUT_ROOT", str(tmp_path))
    assert cli.main(["run", str(DEMO_CONFIGS / "one_bit_ring.ini")]) == cli.EXIT_OK
    out = tmp_path / "out" / "one-bit-ring"
    assert {"trace.csv", "summary.json"} <= {p.name for p in out.iterdir()}
    assert json.loads((out / "summary.json").read_text())["iterations"] == 800


@pytest.mark.parametrize("argv", [
    ["verify", str(DEMO_CONFIGS / "one_bit_ring.ini"), "--samples", "0"],
    ["verify", str(DEMO_CONFIGS / "kbit_noisy_verify.ini"), "--trials", "1"],
    # an option the contract's verifier does not read is checked all the same
    ["verify", str(DEMO_CONFIGS / "one_bit_ring.ini"), "--trials", "1"],
    ["verify", str(DEMO_CONFIGS / "kbit_noisy_verify.ini"), "--samples", "0"],
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


@pytest.mark.parametrize("mode", ["T1_local_nonconvex", "T2_local_exact_first"])
def test_cmd_params_takes_l1_0_from_the_selection(tmp_path, capsys, monkeypatch, mode):
    calls = []
    real = constants._initial_lyapunov
    monkeypatch.setattr(constants, "_initial_lyapunov",
                        lambda *args: calls.append(args) or real(*args))
    path = _write(tmp_path, BASE_CONFIG.format(out="o").replace("mode = empirical",
                                                                 f"mode = {mode}"))
    assert cli.main(["params", path]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["constants"]["kappa_tilde_4"] is not None
    assert len(calls) == 1


@pytest.mark.parametrize("edits", [
    [("mode = empirical", "mode = T1_local_nonconvex")],
    [("mode = empirical", "mode = T2_local_exact_first\ntau_0 = 0.5")],
    [("mode = empirical", "mode = T3_local_PL")],
    [("mode = empirical", "mode = T5_global_nonconvex"),
     ("kind = one_bit\nlevel = 2.0", "kind = unbiased_kbit\nkbits = 3\nnoise = 1.0")],
    [("mode = empirical", "mode = T6_global_PL"),
     ("kind = one_bit\nlevel = 2.0", "kind = unbiased_kbit\nkbits = 3")],
    [],
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
    constants = payload["constants"]
    if cfg["algorithm"]["mode"] == "empirical":
        # the table at the config's own point, where no horizon family is evaluated
        table = compute_constants(graph, problem.ell, 1.0, 2.0, 1.0, 0.05,
                                  compressor.contract(problem.d), problem.d, nu=problem.pl_nu)
        assert constants == diagnostics.json_safe(table)
        assert all(constants[k] is None for k in ("kappa_8", "kappa_tilde_0_prime",
                                                  "kappa_tilde_4", "kappa_tilde_3",
                                                  "kappa_0", "kappa_3", "kappa_4"))
        assert payload["feasibility"] == {}
        return
    sel = theorem_params(cfg["algorithm"]["mode"], problem, graph, compressor.contract(problem.d),
                         T=20, x0_seed=9, **config.regime_options(cfg))
    assert constants == diagnostics.json_safe(sel.table)
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
