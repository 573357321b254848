"""Command-line experiment runner.

Subcommands: ``run`` (single experiment), ``sweep`` (horizon sweep with
regime-dependent reparameterization and a power-law fit), ``verify`` (alias
``verify-compressors``; contract verification), and ``params`` (constant
table and selected hyperparameters without running).

Exit codes: 0 success, 2 config error, 3 infeasible parameters, 4 numerical
divergence, 5 verification failure; ``EXIT_CODES`` maps each library error
to one of them for every command.  ``DCOPT_OUTPUT_ROOT`` puts every output
directory under one root, and refuses one that resolves outside it.
"""

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import algorithm, config as cfgmod, diagnostics
from .compressors import LOCAL, verify_global_assumption, verify_local_assumption
from .constants import compute_constants
from .errors import (
    ConfigError,
    DcoptError,
    InfeasibleParams,
    NonFiniteState,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_DIVERGED = 4
EXIT_VERIFY_FAILED = 5

# the first matching row decides a library error's exit code and label
EXIT_CODES = (
    (InfeasibleParams, EXIT_INFEASIBLE, "infeasible"),
    (NonFiniteState, EXIT_DIVERGED, "divergence"),
    (DcoptError, EXIT_CONFIG, "config"),
)


def _exit_codes(cmd):
    """Run a command, reporting a library error on stderr and returning its
    exit code from ``EXIT_CODES``."""
    @functools.wraps(cmd)
    def wrapped(*args, **kwargs) -> int:
        try:
            return cmd(*args, **kwargs)
        except DcoptError as exc:
            code, label = next((code, label) for cls, code, label in EXIT_CODES
                               if isinstance(exc, cls))
            print(f"error: {label}: {exc}", file=sys.stderr)
            return code
    return wrapped


# how ``run`` warns of, and ``sweep`` refuses, a record that is not finite
OVERFLOW = "record overflowed at k={k} ({column})"

# (x label, trace column, file name) of each plot ``svg = true`` writes
PLOTS = (("iteration", "k", "metrics_vs_iterations.svg"),
         ("cumulative bits", "bits_cum", "metrics_vs_bits.svg"))


def _out_dir(out: dict, default: str, force: bool, filenames) -> Path:
    """Make the output directory, refusing one outside ``DCOPT_OUTPUT_ROOT`` when
    that is set, and any of ``filenames`` in it unless forced by flag or config."""
    path = Path(default if out["directory"] is None else out["directory"])
    root = os.environ.get("DCOPT_OUTPUT_ROOT")
    if root:
        path = Path(root) / path
        if not path.resolve().is_relative_to(Path(root).resolve()):
            raise ConfigError(f"output directory {path} is outside DCOPT_OUTPUT_ROOT={root}")
    path.mkdir(parents=True, exist_ok=True)
    if not (force or out["force"]):
        clashes = [f for f in filenames if (path / f).exists()]
        if clashes:
            raise ConfigError(f"refusing to overwrite {clashes} in {path}; "
                              f"pass --force or set output.force")
    return path


def _plot(trace, path: Path) -> None:
    """Best-effort static SVG plots; failures never affect the exit code."""
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt

        for xlabel, column, fname in PLOTS:
            xs = getattr(trace, column)
            fig, ax = plt.subplots(figsize=(7, 4.5))
            for name, ys in (("f_bar", trace.f_bar), ("grad_sq", trace.grad_sq),
                             ("consensus", trace.consensus), ("e5", trace.e5)):
                pos = ys > 0
                if pos.any():
                    ax.semilogy(np.asarray(xs)[pos], ys[pos], label=name, lw=1.2)
            ax.set_xlabel(xlabel)
            ax.legend(loc="best", fontsize=8)
            ax.grid(alpha=0.3)
            fig.tight_layout()
            fig.savefig(path / fname, metadata={"Date": None})
            plt.close(fig)
    except Exception as exc:                       # noqa: BLE001
        print(f"note: plotting skipped ({exc})", file=sys.stderr)


@_exit_codes
def cmd_run(config: str, force: bool = False) -> int:
    cfg = cfgmod.load_config(config)
    plan = cfgmod.build_run_plan(cfg)
    out = cfgmod.section(cfg, "output")
    path = _out_dir(out, "dcopt-out", force,
                    (["trace.csv"] if out["csv"] else []) + ["summary.json"]
                    + ([fname for _, _, fname in PLOTS] if out["svg"] else []))
    trace = algorithm.run(plan.problem, plan.graph, plan.compressor, plan.hyper,
                          config_echo=plan.echo, **plan.run_kwargs)

    if out["csv"]:
        diagnostics.write_csv(trace, path / "trace.csv")

    fits = {}
    for name, model in (("grad_sq_power_law", "power_law"),
                        ("grad_sq_geometric", "geometric")):
        try:
            value, r2 = diagnostics.rate_fit(trace.k[1:], trace.grad_sq[1:], model)
            fits[name] = {("exponent" if model == "power_law" else "ratio"): value,
                          "r_squared": r2}
        except DcoptError:
            pass
    checks = {}
    contract = plan.run_kwargs["contract"]
    if contract.cls == LOCAL:
        rep = diagnostics.contraction_local_check(trace, contract, plan.hyper.omega)
        checks[rep.name] = {"checked": rep.checked, "violations": rep.violations}

    diagnostics.write_summary(trace, path / "summary.json", extra={
        "feasibility": {k: {"ok": ok, "value": v, "bound": b}
                        for k, (ok, v, b) in plan.feasibility.items()},
        "extras": {k: v for k, v in plan.extras.items() if np.isscalar(v)},
        "rate_fits": fits,
        "checks": checks,
    })
    first = diagnostics.status(trace)["first_nonfinite"]
    if first:
        print("warning: " + OVERFLOW.format(**first), file=sys.stderr)
    if out["svg"]:
        _plot(trace, path)
    print(f"run finished: T={trace.T}, f_bar={trace.f_bar[-1]:.6g}, "
          f"bits={int(trace.bits_cum[-1])}, out={path}")
    return EXIT_OK


@_exit_codes
def cmd_sweep(config: str, horizons, force: bool = False) -> int:
    horizons = sorted(set(horizons))
    if len(horizons) < 3:
        raise ConfigError("sweep needs at least 3 distinct horizons")
    cfg = cfgmod.load_config(config)
    graph = cfgmod.build_graph_from(cfg)
    problem = cfgmod.build_problem_from(cfg, graph.n)
    compressor = cfgmod.build_compressor_from(cfg, cfgmod.section(cfg, "algorithm")["seed"])
    plans = [cfgmod.plan_at(cfg, problem, graph, compressor, T) for T in horizons]
    out = cfgmod.section(cfg, "output")
    path = _out_dir(out, "dcopt-sweep", force, ["sweep.json"])

    rows = []
    for T, plan in zip(horizons, plans):
        try:
            trace = algorithm.run(problem, graph, compressor, plan.hyper,
                                  config_echo=plan.echo, **plan.run_kwargs)
        except NonFiniteState as exc:
            raise NonFiniteState(f"T={T}: {exc}", exc.iteration) from exc
        first = diagnostics.status(trace)["first_nonfinite"]
        if first:
            raise NonFiniteState(f"T={T}: " + OVERFLOW.format(**first), first["k"])
        metric = float(np.mean(trace.grad_sq[:-1] + trace.consensus[:-1]))
        rows.append({"T": T, "avg_metric": metric, "alpha": plan.hyper.alpha,
                     "bits": int(trace.bits_cum[-1])})

    exponent, r2 = diagnostics.rate_fit([r["T"] for r in rows],
                                        [r["avg_metric"] for r in rows],
                                        "power_law", burn_in_frac=0.0)
    result = {"rows": rows, "fit": {"exponent": exponent, "r_squared": r2}}
    with open(path / "sweep.json", "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    for r in rows:
        print(f"T={r['T']:>8d}  avg_metric={r['avg_metric']:.6e}  alpha={r['alpha']:.3e}")
    print(f"power-law fit: exponent={exponent:.4f}, R^2={r2:.4f}")
    return EXIT_OK


@_exit_codes
def cmd_verify(config: str, samples: int = 10_000, trials: int = 10_000) -> int:
    # each verifier reads one of the two; both are checked whichever runs
    if samples < 1 or trials < 2:
        raise ConfigError(f"need --samples >= 1 and --trials >= 2, got {samples} and {trials}")
    cfg = cfgmod.load_config(config)
    d = cfgmod.section(cfg, "problem")["d"]
    seed = cfgmod.section(cfg, "algorithm")["seed"]
    compressor = cfgmod.build_compressor_from(cfg, seed)
    contract = compressor.contract(d)
    if contract.cls == LOCAL:
        report = verify_local_assumption(compressor, contract, samples=samples,
                                         seed=seed, d=d)
    else:
        report = verify_global_assumption(compressor, contract, samples=16,
                                          trials_per_sample=trials, seed=seed, d=d)
    payload = {
        "kind": report.kind,
        "contract": {"class": contract.cls, "p": contract.p, "r": contract.r,
                     "C": contract.C, "delta": contract.delta},
        "samples": report.samples,
        "trials_per_sample": None if contract.cls == LOCAL else trials,
        "max_ratio": report.max_ratio,
        "pass": report.passed,
        "worst": report.worst,
    }
    print(json.dumps(diagnostics.json_safe(payload), indent=2))
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


@_exit_codes
def cmd_params(config: str) -> int:
    cfg = cfgmod.load_config(config)
    plan = cfgmod.build_run_plan(cfg)
    hyper, problem = plan.hyper, plan.problem
    table = plan.extras.get("table") or compute_constants(
        plan.graph, problem.ell, hyper.gamma, hyper.tau_1, hyper.omega, hyper.alpha,
        plan.run_kwargs["contract"], problem.d, nu=problem.pl_nu)
    payload = {
        "hyper": {"alpha": hyper.alpha, "beta": hyper.beta, "gamma": hyper.gamma,
                  "omega": hyper.omega, "tau_1": hyper.tau_1, "schedule": plan.echo["schedule"]},
        "constants": table,
        "feasibility": {k: {"ok": ok, "value": v, "bound": b}
                        for k, (ok, v, b) in plan.feasibility.items()},
    }
    print(json.dumps(diagnostics.json_safe(payload), indent=2, default=str))
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dcopt",
                                     description="compressed distributed optimization runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--force", action="store_true",
                       help="overwrite existing outputs")
    p_run.set_defaults(handler=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run one experiment per horizon and fit a rate")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--horizons", type=int, nargs="+", required=True)
    p_sweep.add_argument("--force", action="store_true")
    p_sweep.set_defaults(handler=cmd_sweep)

    p_verify = sub.add_parser("verify", aliases=["verify-compressors"],
                              help="verify the configured compressor's contract")
    p_verify.add_argument("config")
    p_verify.add_argument("--samples", type=int, default=10_000,
                          help="random points in the ball (local contracts only)")
    p_verify.add_argument("--trials", type=int, default=10_000,
                          help="draws at each of 16 points (global contracts only)")
    p_verify.set_defaults(handler=cmd_verify)

    p_params = sub.add_parser("params", help="print constants and hyperparameters")
    p_params.add_argument("config")
    p_params.set_defaults(handler=cmd_params)

    # each subcommand's handler takes its arguments by their dest names
    args = vars(parser.parse_args(argv))
    del args["command"]
    return args.pop("handler")(**args)


if __name__ == "__main__":
    sys.exit(main())
