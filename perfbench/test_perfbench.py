"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_perfbench.py -q

Checks that every metric the benchmark defines is emitted (or marked n/a
for its workload), that the result line carries exactly the metrics of
``BENCHMARK.json``, that a broken output check raises ``error_rate``, the
speed gauge's readings inside a phase, and the compare verdicts.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run      # noqa: E402

run.import_program()

END_TO_END = ["wall_s", "setup_s", "agent_iters_per_s", "verify_evals_per_s",
              "peak_rss_mb", "error_rate"]
PER_LAYER = [
    "config.build_run_plan_s",
    "graph.build_graph_s", "graph.laplacian_density", "graph.mix_flops_dense",
    "graph.mix_flops_useful",
    "problems.build_s", "problems.gradient_calls_per_agent_iter",
    "problems.cost_calls_per_agent_iter", "problems.gradient_s", "problems.cost_s",
    "compressors.compress_calls_per_agent_iter", "compressors.compress_s",
    "compressors.bits_per_agent_iter", "compressors.verify_local_s",
    "compressors.verify_global_s", "compressors.sample_errors_s",
    "rng.substreams_per_agent_iter", "rng.substream_s", "rng.substreams_per_verify_point",
    "algorithm.run_s", "algorithm.step_s", "algorithm.steps", "algorithm.step_self_s",
    "diagnostics.record_s", "diagnostics.record_share", "diagnostics.write_s",
    "diagnostics.checks_s",
    "constants.theorem_params_s", "constants.compute_constants_calls",
    "trace.overhead_ratio",
]
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def measure(tmp_path, workload, trace, seed=3):
    args = run.parse_args(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                           "--trace", str(trace), "--tiny", "--out", str(tmp_path)])
    return run.measure(args)


def emitted_or_na(metrics, name):
    entry = metrics[name]
    if entry["value"] is None:
        return bool(entry.get("na"))
    return isinstance(entry["value"], (int, float))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_or_na(tmp_path, workload, trace):
    result, line = measure(tmp_path, workload, trace)
    names = END_TO_END if trace == 0 else PER_LAYER
    missing = [n for n in names if n not in result["metrics"]
               or not emitted_or_na(result["metrics"], n)]
    assert not missing
    kind = "end_to_end" if trace == 0 else "per_layer"
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [m["name"] for m in SPEC[kind]]
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert result["metrics"]["error_rate"]["value"] == 0.0
    for key in ("nproc", "python", "numpy", "blas", "git_sha", "seed", "inputs", "samples"):
        assert key in result["provenance"]


def test_inputs_follow_the_seed():
    from workloads import WORKLOADS
    for cls in WORKLOADS.values():
        assert cls(5).cfg == cls(5).cfg != cls(6).cfg


def test_broken_bit_accounting_raises_error_rate(tmp_path, monkeypatch):
    import dcopt.compressors as comp
    monkeypatch.setattr(comp.OneBit, "bits", lambda self, x: x.size + 1)
    result, line = measure(tmp_path, "sweep_t1_n10", 0)
    assert not line["correct"] and line["failed"] > 0
    assert result["metrics"]["error_rate"]["value"] > 0
    assert all("bits_cum" in f for f in result["checks"]["failures"])


def test_broken_mixing_identity_raises_error_rate(tmp_path, monkeypatch):
    import dcopt.algorithm as alg
    real_step = alg.step

    def skewed_step(*args, **kwargs):
        state = real_step(*args, **kwargs)
        state.y = state.y + 1e-3
        return state

    monkeypatch.setattr(alg, "step", skewed_step)
    result, line = measure(tmp_path, "kbit_ring_n400", 0)
    assert line["failed"] > 0
    assert any("y == L x_hat" in f for f in result["checks"]["failures"])


def test_overstated_global_contract_raises_error_rate(tmp_path, monkeypatch):
    # rand-k claiming twice its true contraction violates its own bound by
    # far more than the 5-standard-error allowance for chance
    import dcopt.compressors as comp
    monkeypatch.setattr(comp.RandK, "relative_delta", lambda self, d: 2.0 * self.k / d)
    result, line = measure(tmp_path, "verify_contracts", 0)
    assert line["failed"] > 0
    assert all("rand_k" in f for f in result["checks"]["failures"])


def test_gauge_reads_inside_long_phases_and_restores_sigalrm():
    import signal
    import time

    import gauge

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
        return "done"

    handler = signal.getsignal(signal.SIGALRM)
    g = gauge.Gauge()
    with g:
        g.read()
        out, raw, scaled = g.phase(busy, 4 * gauge.PERIOD_S)
    assert out == "done"
    assert len(g.readings) >= 4          # the start, some inside, the end
    assert 0 < raw < 4.5 * gauge.PERIOD_S and scaled > 0
    assert signal.getsignal(signal.SIGALRM) is handler


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.3 for v in parent]
    assert compare.verdict(parent, faster, "lower", 0.1)[0] == "improved"
    assert compare.verdict(parent, slower, "lower", 0.1)[0] == "regressed"
    assert compare.verdict(parent, parent, "lower", 0.1)[0] == "unchanged"
    noisy = [5.0, 15.0, 7.0, 13.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(parent, slower, "higher", 0.1)[0] == "improved"
