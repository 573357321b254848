"""Run configuration: a flat sectioned key-value file (INI grammar) or JSON.

``GRAMMAR`` states each section's keys with their types and defaults, and
``section`` is its one reader.  One plain-string key is checked by the
layer that owns it: ``[graph] topology`` (ring | path | complete |
erdos_renyi).  Every mode reads omega (1/r when absent).  The empirical mode
needs alpha, gamma and tau_1; a theoretical mode derives them and reads
clamp_alpha, tau_0, epsilon and strict instead, and refuses any init_mode
but its own.

A JSON file holding one object with the same section names is accepted as an
alternative input.  All randomness derives from the [algorithm] seed (64-bit
unsigned) through named substreams; the graph keeps its own seed so one
topology sample can be reused across algorithm seeds.
"""

import configparser
import json
import math
from dataclasses import asdict, fields
from pathlib import Path
from typing import NamedTuple

from . import compressors as comp
from .algorithm import (INIT_MODES, ConstantSchedule, GeometricSchedule, HyperParams, draw_x0,
                        resolve_omega, s0_floor)
from .compressors import LOCAL
from .constants import REGIMES, theorem_params
from .errors import ConfigError
from .graph import NetworkGraph, RingGraph, build_graph
from .problems import ProblemInstance, make_nonconvex, make_quadratic

# a class reads its positional fields and ``noise``; a composition reads kbits, step,
# noise_inner and noise_outer; a kind refuses the keys it does not read
KINDS = {cls.kind: cls for cls in (
    comp.OneBit, comp.SaturatingQuantizer, comp.TopK, comp.NormSign, comp.UnbiasedKBit,
    comp.RandK, comp.Scalarization, comp.UniformQuantizer, comp.Identity)}
KINDS.update(compose_kbit_of_uniform=comp.compose_kbit_of_uniform,
             compose_uniform_of_kbit=comp.compose_uniform_of_kbit)


def _int(raw) -> int:
    # int() truncates a fraction
    if isinstance(raw, float) and not raw.is_integer():
        raise ValueError(raw)
    return int(raw)


def _checked(cast, ok):
    """``cast``, refusing a value for which ``ok`` is false."""
    def read(raw):
        value = cast(raw)
        if not ok(value):
            raise ValueError(raw)
        return value
    return read


_finite = _checked(float, math.isfinite)
_positive = _checked(float, lambda value: math.isfinite(value) and value > 0)
_count = _checked(_int, lambda value: value >= 1)
_seed = _checked(_int, lambda value: 0 <= value < 2 ** 64)


def _flag(raw) -> bool:
    # a JSON bool, or one of the words INI reads as a bool
    if isinstance(raw, bool):
        return raw
    return configparser.ConfigParser.BOOLEAN_STATES[str(raw).strip().lower()]


REQUIRED = object()

# section -> key -> (type, default); a type is a cast or a tuple of the
# allowed strings.  INI lowercases T, so ``section`` reads T as t.
GRAMMAR = {
    "problem": {"family": (("quadratic", "nonconvex"), REQUIRED), "d": (_count, REQUIRED),
                "seed": (_seed, 0), "condition_number": (_finite, 10.0),
                "lam": (_finite, 0.1), "m": (_int, 20)},
    "graph": {"topology": (str, REQUIRED), "n": (_int, REQUIRED), "prob": (_finite, 0.4),
              "seed": (_seed, 0)},
    "compressor": {"kind": (tuple(KINDS), REQUIRED), "level": (_finite, 1.0),
                   "step": (_finite, 0.5), "k": (_int, 1), "kbits": (_int, 3),
                   "noise": (_finite, 0.0), "noise_inner": (_finite, 0.0),
                   "noise_outer": (_finite, 0.0)},
    "algorithm": {"mode": (("empirical", *REGIMES), "empirical"), "t": (_int, None),
                  "init_mode": (INIT_MODES, "standard"), "seed": (_seed, 0),
                  "alpha": (_finite, None), "gamma": (_finite, None), "tau_1": (_finite, None),
                  "omega": (_finite, None), "schedule": (("geometric", "constant"), "geometric"),
                  "s0": (_positive, None), "rate": (_finite, 0.99), "s0_margin": (_positive, 1.0),
                  "clamp_alpha": (_flag, False), "tau_0": (_finite, 1.0),
                  "epsilon": (_finite, 0.99), "strict": (_flag, False)},
    "output": {"directory": (str, None), "csv": (_flag, True), "svg": (_flag, False),
               "force": (_flag, False)},
}


def _read(key: str, typ, raw):
    try:
        # a JSON bool is no number, and a JSON number no string
        if (isinstance(raw, bool) and typ is not _flag
                or typ is str and not isinstance(raw, str)):
            raise ValueError(raw)
        if not isinstance(typ, tuple):
            return typ(raw)
        if raw in typ:
            return raw
        raise ValueError(raw)
    except (LookupError, TypeError, ValueError) as exc:
        allowed = f" (one of {', '.join(typ)})" if isinstance(typ, tuple) else ""
        raise ConfigError(f"bad value for {key!r}: {raw!r}{allowed}") from exc


def section(cfg: dict, name: str) -> dict:
    """Section ``name`` of ``cfg`` read by ``GRAMMAR``: each value as its
    type and each absent key at its default.  An unknown key, a value that
    does not read as its type and a missing required key are refused."""
    grammar = GRAMMAR[name]
    values = {("t" if key == "T" else key): raw for key, raw in cfg.get(name, {}).items()}
    unknown = sorted(set(values) - set(grammar))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in section {name!r}")
    out = {}
    for key, (typ, default) in grammar.items():
        if key in values:
            out[key] = _read(key, typ, values[key])
        elif default is REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        else:
            out[key] = default
    return out


def load_config(path) -> dict:
    """Parse an INI or JSON config into a dict of section dicts of raw
    values, each section read once by ``section`` to refuse what
    ``GRAMMAR`` does not allow."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    text = path.read_text()
    if path.suffix == ".json" or text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("JSON config must be a single object")
        bad = [k for k, v in data.items() if not isinstance(v, dict)]
        if bad:
            raise ConfigError(f"JSON config section {bad[0]!r} must be an object")
        cfg = {str(k): {str(a): b for a, b in v.items()} for k, v in data.items()}
    else:
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"invalid config: {exc}") from exc
        cfg = {s: dict(parser.items(s)) for s in parser.sections()}
    for name in cfg:
        if name not in GRAMMAR:
            raise ConfigError(f"unknown section {name!r}")
        section(cfg, name)
    return cfg


def build_graph_from(cfg: dict):
    sec = section(cfg, "graph")
    return build_graph(sec["topology"], sec["n"], prob=sec["prob"], seed=sec["seed"])


def build_problem_from(cfg: dict, n: int):
    sec = section(cfg, "problem")
    if sec["family"] == "quadratic":
        return make_quadratic(n, sec["d"], seed=sec["seed"],
                              condition_number=sec["condition_number"])
    return make_nonconvex(n, sec["d"], seed=sec["seed"], lam=sec["lam"], m=sec["m"])


def build_compressor_from(cfg: dict, seed: int):
    sec = section(cfg, "compressor")
    make = KINDS[sec["kind"]]
    compose = not isinstance(make, type)
    reads = (("kbits", "step", "noise_inner", "noise_outer") if compose
             else tuple(f.name for f in fields(make) if not f.kw_only) + ("noise",))
    given = [key for key in cfg.get("compressor", {}) if key not in ("kind", *reads)]
    if given:
        raise ConfigError(f"kind {sec['kind']!r} does not read {given[0]!r}")
    if compose:
        return make(*(sec[key] for key in reads), seed=seed)
    return comp.with_noise(make(*(sec[key] for key in reads[:-1]), seed=seed), sec["noise"])


# perfbench/workloads.py is its last caller; ROADMAP item 1 removes it
def compressor_contract(compressor, d: int, cfg: dict):
    return compressor.contract(d)


def regime_options(cfg: dict) -> dict:
    """The [algorithm] keys a theoretical mode passes to theorem_params."""
    alg = section(cfg, "algorithm")
    return {key: alg[key] for key in ("omega", "tau_0", "epsilon", "clamp_alpha", "strict")}


class RunPlan(NamedTuple):
    """A config resolved for one run; feasibility and extras are empty in empirical mode."""
    problem: ProblemInstance
    graph: NetworkGraph | RingGraph
    compressor: comp.Compressor
    hyper: HyperParams
    run_kwargs: dict
    feasibility: dict
    extras: dict
    echo: dict


def build_run_plan(cfg: dict) -> RunPlan:
    """Build the graph, problem and compressor of ``cfg``, and its plan at its own T."""
    graph = build_graph_from(cfg)
    problem = build_problem_from(cfg, graph.n)
    alg = section(cfg, "algorithm")
    return plan_at(cfg, problem, graph, build_compressor_from(cfg, alg["seed"]), alg["t"])


def plan_at(cfg: dict, problem, graph, compressor, T: int | None) -> RunPlan:
    """The plan of ``cfg`` at horizon ``T`` for a built problem, graph and compressor;
    of a whole plan, only this selection depends on T."""
    alg = section(cfg, "algorithm")
    seed, mode, init_mode = alg["seed"], alg["mode"], alg["init_mode"]
    contract = compressor.contract(problem.d)
    if T is None or T < 1:
        raise ConfigError("algorithm.T must be an integer >= 1")

    feasibility = {}
    extras = {}
    if mode == "empirical":
        x0 = draw_x0(graph.n, problem.d, init_mode, seed)
        missing = [key for key in ("gamma", "tau_1", "alpha") if alg[key] is None]
        if missing:
            raise ConfigError(f"missing required key {missing[0]!r}")
        omega = resolve_omega(alg["omega"], contract)
        s0 = alg["s0"]
        if s0 is None:
            if contract.cls == LOCAL and init_mode != "exact_first_round":
                s0 = max(s0_floor(x0, contract, alg["s0_margin"]), 1e-12)
            else:
                s0 = 1.0
        schedule = (GeometricSchedule(s0, alg["rate"]) if alg["schedule"] == "geometric"
                    else ConstantSchedule(s0))
        hyper = HyperParams(alpha=alg["alpha"], beta=alg["tau_1"] * alg["gamma"],
                            gamma=alg["gamma"], omega=omega, schedule=schedule,
                            tau_1=alg["tau_1"])
    else:
        own = REGIMES[mode][3]
        if "init_mode" in cfg["algorithm"] and init_mode != own:
            raise ConfigError(f"{mode} runs init_mode {own!r}, not {init_mode!r}")
        sel = theorem_params(mode, problem, graph, contract, T=T, x0_seed=seed,
                             **regime_options(cfg))
        hyper, x0, init_mode = sel.hyper, sel.x0, sel.init_mode
        feasibility, extras = sel.feasibility, sel.extras

    run_kwargs = dict(T=T, init_mode=init_mode, x0=x0, contract=contract)
    echo = {"mode": mode, "seed": seed, "alpha": hyper.alpha, "beta": hyper.beta,
            "gamma": hyper.gamma, "omega": hyper.omega,
            "schedule": {"mode": hyper.schedule.mode, **asdict(hyper.schedule)},
            "compressor": repr(compressor), "graph": graph.topology, "n": graph.n,
            "d": problem.d, "family": problem.family}
    return RunPlan(problem, graph, compressor, hyper, run_kwargs, feasibility, extras, echo)
