"""Benchmark of the dcopt simulator: one command, one workload per call.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The load is a closed loop: one caller in one
process repeats the workload (a rep) until ``--seconds`` are used up, each
rep starting when the previous one returns.  BLAS runs one thread unless
the caller sets a count.  ``--trace 0`` reports the end-to-end metrics named in
``BENCHMARK.json`` as medians over reps; ``--trace 1`` alternates untraced
and traced reps and reports the per-layer metrics from the traced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result
(every metric with its quartiles and sample count, n/a markers, computed
kernel sizes, the output checks and a provenance block) is written to
``perfbench/out/results/`` for ``compare.py``.
"""

import argparse
import datetime
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from tracer import SpanIndex, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_REPS = 3
MIB = 1024.0                      # ru_maxrss is in KiB on Linux


def import_program():
    """Import dcopt from this checkout's ``src``; refuse any other copy.

    BLAS gets one thread unless the caller set a count: with two threads on
    a two-core machine shared with other tenants, the ring workload's rep
    times spread three to four times wider.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import dcopt
    if SRC.resolve() not in Path(dcopt.__file__).resolve().parents:
        raise ImportError(f"dcopt imported from {dcopt.__file__}, not from {SRC}")


def quartiles(values):
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def summarize(values, unit):
    q1, med, q3 = quartiles(values)
    return {"value": med, "unit": unit, "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "samples": len(values)}


def not_applicable(unit, reason):
    return {"value": None, "unit": unit, "na": reason}


# ---------------------------------------------------------------------------
# one rep
# ---------------------------------------------------------------------------

def one_rep(workload, workdir, checks, gauge, tracer=None):
    """Run the workload once, its phases timed against the gauge; then check
    its outputs untraced."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    gauge.sample_inside = tracer is None
    gauge.read()
    if tracer is not None:
        tracer.reset()
        tracer.active = True
    t0 = time.perf_counter()
    try:
        rep = workload.run_once(workdir, gauge)
    finally:
        rep_elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
    rep.elapsed_s = rep_elapsed        # gauge readings included; paces the loop
    workload.check(rep, checks, workdir)
    rep.outputs = []           # so peak RSS does not grow with the rep count
    return rep


def e2e_metrics(reps, units):
    """End-to-end metrics over untraced reps, at the gauge's reference speed;
    the ``*_raw`` entries are the same figures as measured."""
    is_run = not reps[0].verify_points
    out = {
        "wall_s": summarize([r.wall_s for r in reps], units["wall_s"]),
        "setup_s": summarize([r.setup_s for r in reps], units["setup_s"]),
        "work_per_s": summarize([r.work / r.work_s for r in reps], units["work_per_s"]),
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / MIB,
                        "unit": units["peak_rss_mb"], "samples": 1},
        "wall_raw_s": summarize([r.wall_raw_s for r in reps], "s"),
        "setup_raw_s": summarize([r.setup_raw_s for r in reps], "s"),
        "work_raw_per_s": summarize([r.work / r.work_raw_s for r in reps],
                                    units["work_per_s"]),
    }
    # the throughput under its per-workload name, n/a where it does not apply
    if is_run:
        out["agent_iters_per_s"] = dict(out["work_per_s"], unit="agent-iterations/s")
        out["verify_evals_per_s"] = not_applicable(
            "evaluations/s", "no contract verification in this workload")
    else:
        out["agent_iters_per_s"] = not_applicable(
            "agent-iterations/s", "no algorithm.run in this workload")
        out["verify_evals_per_s"] = dict(out["work_per_s"], unit="evaluations/s")
    return out


def layer_metrics(rep, spans, kernels):
    """Per-layer metrics of one traced rep (values; None where n/a)."""
    ix = SpanIndex(spans)
    in_run = ix.within("algorithm.run")
    in_verify = [a or b for a, b in zip(ix.within("compressors.verify_local"),
                                        ix.within("compressors.verify_global"))]
    runs = rep.verify_points == 0
    iters = rep.work if runs else 0

    def per_iter(count):
        return count / iters if iters else None

    def t(name, outermost=False):
        # time in a layer this rep never entered is n/a, not a measured 0
        return ix.total(name, outermost) if ix.count(name) else None

    run_s = t("algorithm.run")
    record_s = ix.self_total("algorithm.run") if run_s is not None else None
    m = {
        "config.build_run_plan_s": t("config.build_run_plan"),
        "graph.build_graph_s": t("graph.build_graph"),
        "problems.build_s": t("problems.build"),
        "problems.gradient_calls_per_agent_iter": per_iter(
            ix.count("problems.gradient", in_run)),
        "problems.cost_calls_per_agent_iter": per_iter(ix.count("problems.cost", in_run)),
        "problems.gradient_s": t("problems.gradients"),
        "problems.cost_s": t("problems.f"),
        "compressors.compress_calls_per_agent_iter": per_iter(
            ix.count("compressors.compress", in_run, outermost=True)),
        "compressors.compress_s": t("compressors.compress", outermost=True),
        "compressors.bits_per_agent_iter": per_iter(rep.bits),
        "compressors.verify_local_s": t("compressors.verify_local"),
        "compressors.verify_global_s": t("compressors.verify_global"),
        "compressors.sample_errors_s": t("compressors.sample_errors"),
        "rng.substreams_per_agent_iter": per_iter(ix.count("rng.substream", in_run)),
        "rng.substream_s": t("rng.substream"),
        "rng.substreams_per_verify_point": (
            ix.count("rng.substream", in_verify) / rep.verify_points
            if rep.verify_points else None),
        "algorithm.run_s": run_s,
        "algorithm.step_s": t("algorithm.step"),
        "algorithm.steps": ix.count("algorithm.step"),
        "algorithm.step_self_s": (ix.self_total("algorithm.step")
                                  if ix.count("algorithm.step") else None),
        "diagnostics.record_s": record_s,
        "diagnostics.record_share": record_s / run_s if run_s else None,
        "diagnostics.write_s": t("diagnostics.write"),
        "diagnostics.checks_s": t("diagnostics.check"),
        "constants.theorem_params_s": t("constants.theorem_params"),
        "constants.compute_constants_calls": ix.count("constants.compute_constants"),
    }
    for key in ("laplacian_density", "mix_flops_dense", "mix_flops_useful"):
        m[f"graph.{key}"] = kernels[key] if kernels else None
    m["graph.dense_bytes"] = (sum(kernels[k] for k in ("bytes_L", "bytes_E", "bytes_F",
                                                       "bytes_EF"))
                              if kernels else None)
    return m


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def blas_info():
    """BLAS build and thread settings.  OpenBLAS reads its thread count from
    the environment when NumPy loads it, so the variables are the count."""
    import numpy as np
    info = {"name": None, "version": None}
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = dep.get("name"), dep.get("version")
    except (KeyError, TypeError, ValueError):
        pass
    info["threads"] = {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return info


def git_sha():
    """Commit of the checkout, read from .git without starting git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, workload, samples):
    import numpy as np
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "nproc": os.cpu_count(), "cpus_usable": affinity,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_info(), "git_sha": git_sha(), "platform": platform.platform(),
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "load": "closed loop, 1 caller, 1 process",
        "inputs": workload.describe(), "samples": samples,
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=HERE / "out",
                   help="directory for results and the workload's scratch files")
    p.add_argument("--tiny", action="store_true",
                   help="tiny sizes, for the self-test")
    return p.parse_args(argv)


def measure(args):
    """Run one workload; return (full result, result line)."""
    import gauge as gg         # these import NumPy, so only after import_program
    import workloads as wl

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in wl.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(wl.WORKLOADS)}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    workload = wl.WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    workdir = args.out / "work" / f"{args.workload}-{os.getpid()}"
    checks = wl.Checks()
    started_at = datetime.datetime.now(datetime.timezone.utc).isoformat()

    # warm-up at tiny size: imports and lazy library set-up finish untimed
    gauge = gg.Gauge()
    with gauge:
        one_rep(wl.WORKLOADS[args.workload](args.seed, tiny=True), workdir, wl.Checks(),
                gauge)
    gauge.readings.clear()

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(extra=[(wl, "write_sweep_json", "diagnostics.write")])
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    try:
        with gauge:
            while True:
                reps = plain + traced
                elapsed = time.perf_counter() - start
                # stop when a typical rep would end past the budget
                if len(reps) >= MIN_REPS * (2 if tracer else 1) and \
                        elapsed + statistics.median(r.elapsed_s for r in reps) > args.seconds:
                    break
                if tracer is not None and len(traced) < len(plain):
                    rep = one_rep(workload, workdir, checks, gauge, tracer)
                    traced.append(rep)
                    layers.append(layer_metrics(rep, tracer.spans, workload.kernels()))
                else:
                    plain.append(one_rep(workload, workdir, checks, gauge))
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    kernels = workload.kernels()
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "started_at": started_at,
        "checks": {"attempted": checks.attempted, "failed": checks.failed,
                   "error_rate": checks.failed / checks.attempted,
                   "failures": checks.failures[:50]},
        "computed": ({"note": "computed from n, d and topology, not measured", **kernels}
                     if kernels else None),
    }
    if not args.trace:
        metrics = e2e_metrics(plain, units)
        wanted = [m["name"] for m in spec["end_to_end"]]
    else:
        metrics = {}
        for name in layers[0]:
            values = [m[name] for m in layers]
            if values[0] is None:
                metrics[name] = not_applicable(units[name], "layer not used by this workload")
            else:
                metrics[name] = summarize(values, units[name])
        ratio = statistics.median(r.wall_s for r in traced) / \
            statistics.median(r.wall_s for r in plain)
        metrics["trace.overhead_ratio"] = {"value": ratio, "unit": units["trace.overhead_ratio"],
                                           "samples": f"{len(traced)} traced / "
                                                      f"{len(plain)} untraced reps"}
        wanted = [m["name"] for m in spec["per_layer"]]
    metrics["error_rate"] = {"value": result["checks"]["error_rate"],
                             "unit": "failed/attempted", "samples": checks.attempted}
    result["metrics"] = metrics
    result["provenance"] = provenance(args, workload, {
        "untraced_reps": len(plain), "traced_reps": len(traced),
        "checks": checks.attempted, "gauge_readings": len(gauge.readings)})
    result["provenance"]["gauge"] = {
        "note": "end-to-end times are scaled to the reference speed, at which "
        "the gauge's parts take py_ref_s and blas_ref_s; per-layer times are as measured",
        "py_share": gg.PY_SHARE, "py_ref_s": gg.PY_REF_S, "blas_ref_s": gg.BLAS_REF_S,
        "py_s": summarize([py for py, _ in gauge.readings], "s"),
        "blas_s": summarize([blas for _, blas in gauge.readings], "s")}

    line = {"correct": checks.failed == 0, "attempted": checks.attempted,
            "failed": checks.failed,
            "metrics": {name: {"value": metrics[name]["value"] or 0.0,
                               "unit": units[name]} for name in wanted}}
    return result, line


def main(argv=None):
    args = parse_args(argv)
    import_program()
    result, line = measure(args)
    results = args.out / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S%f")
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    for name, m in result["metrics"].items():
        shown = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name:45s} {shown:>14s} {m['unit']}")
    print(f"result: {path}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
