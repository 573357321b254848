"""Run configuration: a flat sectioned key-value file (INI grammar) or JSON.

Sections and keys::

    [problem]   family = quadratic | nonconvex
                d, seed, condition_number (quadratic), lam, m (nonconvex)
    [graph]     topology = ring | path | complete | erdos_renyi
                n, prob (erdos_renyi), seed
    [compressor] kind = one_bit | sat_quant | top_k | norm_sign |
                        unbiased_kbit | rand_k | scalarization |
                        uniform_quant | identity |
                        compose_kbit_of_uniform | compose_uniform_of_kbit
                level, step, k, kbits, noise, noise_inner, noise_outer
    [algorithm] mode = empirical | T1_local_nonconvex | T2_local_exact_first |
                       T3_local_PL | T5_global_nonconvex | T6_global_PL
                T, init_mode, seed
                empirical: alpha, gamma, tau_1, omega, schedule
                           (constant | geometric), s0, rate, s0_margin
                theoretical: clamp_alpha, tau_0, epsilon, omega, strict
    [output]    directory, csv, svg, force

A JSON file holding one object with the same section names is accepted as an
alternative input.  All randomness derives from the [algorithm] seed (64-bit
unsigned) through named substreams; the graph keeps its own seed so one
topology sample can be reused across algorithm seeds.
"""

import configparser
import json
from dataclasses import asdict
from pathlib import Path

from . import compressors as comp
from .algorithm import ConstantSchedule, GeometricSchedule, HyperParams, draw_x0, s0_floor
from .compressors import LOCAL
from .constants import REGIMES, theorem_params
from .errors import ConfigError
from .graph import build_graph
from .problems import make_nonconvex, make_quadratic

# the keys of each section, as listed above; INI lowercases T to t
KEYS = {
    "problem": {"family", "d", "seed", "condition_number", "lam", "m"},
    "graph": {"topology", "n", "prob", "seed"},
    "compressor": {"kind", "level", "step", "k", "kbits", "noise", "noise_inner",
                   "noise_outer"},
    "algorithm": {"mode", "T", "t", "init_mode", "seed", "alpha", "gamma", "tau_1", "omega",
                  "schedule", "s0", "rate", "s0_margin", "clamp_alpha", "tau_0", "epsilon",
                  "strict"},
    "output": {"directory", "csv", "svg", "force"},
}


def load_config(path) -> dict:
    """Parse an INI or JSON config into a dict of section dicts, refusing any
    section or key that ``KEYS`` does not list."""
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
    for section, values in cfg.items():
        if section not in KEYS:
            raise ConfigError(f"unknown section {section!r}")
        unknown = sorted(set(values) - KEYS[section])
        if unknown:
            raise ConfigError(f"unknown key {unknown[0]!r} in section {section!r}")
    return cfg


def _get(section: dict, key: str, cast, default=None, required=False):
    if key not in section:
        if required:
            raise ConfigError(f"missing required key {key!r}")
        return default
    raw = section[key]
    try:
        if cast is bool and isinstance(raw, str):
            low = raw.strip().lower()
            if low in ("true", "yes", "on", "1"):
                return True
            if low in ("false", "no", "off", "0"):
                return False
            raise ValueError(raw)
        # a JSON bool is no number or string, and int() truncates a fraction
        if isinstance(raw, bool) and cast is not bool \
                or cast is int and isinstance(raw, float) and not raw.is_integer():
            raise ValueError(raw)
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc


def _seed(section: dict, key: str, default: int = 0) -> int:
    val = _get(section, key, int, default)
    if not 0 <= val < 2 ** 64:
        raise ConfigError(f"{key} must be a 64-bit unsigned integer, got {val}")
    return val


def build_graph_from(cfg: dict):
    sec = cfg.get("graph", {})
    topology = _get(sec, "topology", str, required=True)
    n = _get(sec, "n", int, required=True)
    return build_graph(topology, n, prob=_get(sec, "prob", float, 0.4),
                       seed=_seed(sec, "seed", 0))


def build_problem_from(cfg: dict, n: int):
    sec = cfg.get("problem", {})
    family = _get(sec, "family", str, required=True)
    d = _get(sec, "d", int, required=True)
    seed = _seed(sec, "seed", 0)
    if family == "quadratic":
        return make_quadratic(n, d, seed=seed,
                              condition_number=_get(sec, "condition_number", float, 10.0))
    if family == "nonconvex":
        return make_nonconvex(n, d, seed=seed, lam=_get(sec, "lam", float, 0.1),
                              m=_get(sec, "m", int, 20))
    raise ConfigError(f"unknown problem family {family!r}")


def build_compressor_from(cfg: dict, seed: int):
    sec = cfg.get("compressor", {})
    kind = _get(sec, "kind", str, required=True)
    noise = _get(sec, "noise", float, 0.0)
    level = _get(sec, "level", float, 1.0)
    step = _get(sec, "step", float, 0.5)
    k = _get(sec, "k", int, 1)
    kbits = _get(sec, "kbits", int, 3)
    if kind == "one_bit":
        c = comp.OneBit(level, seed=seed)
    elif kind == "sat_quant":
        c = comp.SaturatingQuantizer(level, step, seed=seed)
    elif kind == "top_k":
        c = comp.TopK(k, seed=seed)
    elif kind == "norm_sign":
        c = comp.NormSign(seed=seed)
    elif kind == "unbiased_kbit":
        c = comp.UnbiasedKBit(kbits, seed=seed)
    elif kind == "rand_k":
        c = comp.RandK(k, seed=seed)
    elif kind == "scalarization":
        c = comp.Scalarization(seed=seed)
    elif kind == "uniform_quant":
        c = comp.UniformQuantizer(step, seed=seed)
    elif kind == "identity":
        c = comp.Identity(seed=seed)
    elif kind in ("compose_kbit_of_uniform", "compose_uniform_of_kbit"):
        make = comp.compose_kbit_of_uniform if kind.endswith("of_uniform") \
            else comp.compose_uniform_of_kbit
        return make(kbits, step, _get(sec, "noise_inner", float, 0.0),
                    _get(sec, "noise_outer", float, 0.0), seed=seed)
    else:
        raise ConfigError(f"unknown compressor kind {kind!r}")
    if noise > 0:
        c = comp.Noisy(c, noise)
    return c


def compressor_contract(compressor, d: int, cfg: dict):
    return compressor.contract(d)


def regime_options(cfg: dict) -> dict:
    """The [algorithm] keys a theoretical mode passes to theorem_params."""
    alg = cfg.get("algorithm", {})
    return dict(omega=_get(alg, "omega", float, None),
                tau_0=_get(alg, "tau_0", float, 1.0),
                epsilon=_get(alg, "epsilon", float, 0.99),
                clamp_alpha=_get(alg, "clamp_alpha", bool, False),
                strict=_get(alg, "strict", bool, False))


def build_run_plan(cfg: dict):
    """Resolve a config into (problem, graph, compressor, hyper, run kwargs)."""
    graph = build_graph_from(cfg)
    problem = build_problem_from(cfg, graph.n)
    alg = cfg.get("algorithm", {})
    seed = _seed(alg, "seed", 0)
    compressor = build_compressor_from(cfg, seed)
    contract = compressor_contract(compressor, problem.d, cfg)
    T = _get(alg, "t", int, None) or _get(alg, "T", int, None)
    if T is None or T < 1:
        raise ConfigError("algorithm.T must be an integer >= 1")
    mode = _get(alg, "mode", str, "empirical")
    init_mode = _get(alg, "init_mode", str, "standard")

    feasibility = {}
    extras = {}
    if mode == "empirical":
        x0 = draw_x0(graph.n, problem.d, init_mode, seed)
        gamma = _get(alg, "gamma", float, required=True)
        tau_1 = _get(alg, "tau_1", float, required=True)
        alpha = _get(alg, "alpha", float, required=True)
        omega = _get(alg, "omega", float, 1.0 / contract.r)
        if not 0.0 < omega <= 1.0 / contract.r + 1e-12:
            raise ConfigError(f"omega must be in (0, 1/r], got {omega}")
        sched_kind = _get(alg, "schedule", str, "geometric")
        s0 = _get(alg, "s0", float, None)
        if s0 is None:
            if contract.cls == LOCAL and init_mode != "exact_first_round":
                s0 = max(s0_floor(x0, contract, _get(alg, "s0_margin", float, 1.0)), 1e-12)
            else:
                s0 = 1.0
        if sched_kind == "geometric":
            schedule = GeometricSchedule(s0, _get(alg, "rate", float, 0.99))
        elif sched_kind == "constant":
            schedule = ConstantSchedule(s0)
        else:
            raise ConfigError(f"empirical mode supports constant/geometric schedules, "
                              f"got {sched_kind!r}")
        hyper = HyperParams(alpha=alpha, beta=tau_1 * gamma, gamma=gamma,
                            omega=omega, schedule=schedule, tau_1=tau_1)
    elif mode in REGIMES:
        sel = theorem_params(mode, problem, graph, contract, T=T, x0_seed=seed,
                             **regime_options(cfg))
        hyper, x0 = sel.hyper, sel.x0
        init_mode = sel.init_mode
        feasibility = sel.feasibility
        extras = sel.extras
    else:
        raise ConfigError(f"unknown algorithm mode {mode!r}")

    run_kwargs = dict(T=T, init_mode=init_mode, x0=x0, contract=contract)
    echo = {"mode": mode, "seed": seed, "alpha": hyper.alpha, "beta": hyper.beta,
            "gamma": hyper.gamma, "omega": hyper.omega,
            "schedule": {"mode": hyper.schedule.mode, **asdict(hyper.schedule)},
            "compressor": repr(compressor), "graph": graph.topology, "n": graph.n,
            "d": problem.d, "family": problem.family}
    return problem, graph, compressor, hyper, run_kwargs, feasibility, extras, echo
