"""The benchmark's workloads: configs made from the seed, the flow each one
runs, and the output checks that feed ``error_rate``.

Every flow mirrors one ``dcopt`` CLI command but calls the library through
module attributes (``config.build_run_plan``, ``algorithm.run``, ...), so a
traced rep sees each call.  The configs are built in memory from the seed,
never read from ``demos/configs``, so editing the demos cannot move the
benchmark.

Checks use properties that any correct implementation satisfies, never
digests of one implementation's trajectories:

* ``y == L x_hat`` and ``mean(v) == 0`` on every final state;
* one extra ``algorithm.step`` moves the mean iterate by exactly
  ``-alpha * mean_i grad f_i(x_i)`` (gradient descent on the average cost);
* ``bits_cum`` equals the paper's bit formula times rounds times n;
* every recorded value is finite;
* on the sweep, zero region and ``contraction_local_check`` violations and
  a negative power-law exponent;
* on ``verify_contracts``, every report passes;
* the files a flow writes hold the rows it produced.
"""

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from dcopt import algorithm, compressors, config, diagnostics
from dcopt.errors import DcoptError

B1 = 32                    # bits per exactly-transmitted scalar (paper)
TIGHT = 1e-9               # relative tolerance of the algebraic identities
# A global contract that holds with equality (scalarization, rand_k) fails
# the verifier's 3-standard-error test at about 0.13% of points by chance,
# so about 2% of seeds.  A report failure counts only when the excess at the
# worst point exceeds 5 standard errors (about 3e-7 per point by chance).
SIGNIFICANT_SE = 5.0


class Checks:
    """Counts output checks attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    @property
    def failed(self):
        return len(self.failures)


@dataclass
class Rep:
    """Timings and counts of one pass over a workload.

    A rep is a chain of phases, each timed between two gauge readings (see
    ``gauge.py``).  The ``*_s`` times are at the gauge's reference speed;
    the ``*_raw_s`` times are as measured.
    """

    wall_s: float = 0.0        # every phase: set-up, work and outputs
    setup_s: float = 0.0
    work_s: float = 0.0        # time inside algorithm.run / the verify calls
    wall_raw_s: float = 0.0
    setup_raw_s: float = 0.0
    work_raw_s: float = 0.0
    work: int = 0              # agent-iterations, or compressor evaluations
    verify_points: int = 0
    bits: int = 0
    outputs: list = field(default_factory=list)   # what the checks inspect

    def timed(self, gauge, kind, fn, *args, **kwargs):
        """Run one phase of kind "setup", "work" or "output"; add its time."""
        out, raw, scaled = gauge.phase(fn, *args, **kwargs)
        self.wall_s += scaled
        self.wall_raw_s += raw
        if kind == "setup":
            self.setup_s += scaled
            self.setup_raw_s += raw
        elif kind == "work":
            self.work_s += scaled
            self.work_raw_s += raw
        return out


def _seeds(seed, salt, count):
    state = np.random.SeedSequence([seed, salt]).generate_state(count)
    return [int(s) for s in state]


# nonzeros of the Laplacian by topology: the diagonal plus two per edge
LAPLACIAN_NNZ = {"ring": lambda n: 3 * n, "complete": lambda n: n * n}
FLOAT_BYTES = 8


def _graph_kernels(topology, n, d):
    """Computed (not measured) dense-kernel sizes of one run: dense vs
    useful mixing flops per iteration, and the bytes of the dense n x n
    matrices L, E, F and EF."""
    nnz = LAPLACIAN_NNZ[topology](n)
    dense = n * n * FLOAT_BYTES
    return {
        "n": n, "d": d,
        "laplacian_density": nnz / n ** 2,
        "mix_flops_dense": 2 * n * n * d,
        "mix_flops_useful": 2 * nnz * d,
        "bytes_L": dense, "bytes_E": dense, "bytes_F": dense, "bytes_EF": dense,
    }


# ---------------------------------------------------------------------------
# checks shared by the run workloads
# ---------------------------------------------------------------------------

def _close(a, b):
    scale = max(1.0, float(np.max(np.abs(a), initial=0.0)),
                float(np.max(np.abs(b), initial=0.0)))
    return bool(np.max(np.abs(a - b), initial=0.0) <= TIGHT * scale)


def check_run(checks, label, plan, trace, bits_per_vector):
    problem, graph, compressor, hyper, run_kwargs = plan[:5]
    st = trace.final_state
    n, T = graph.n, trace.T
    L = graph.laplacian
    checks.check(f"{label}: y == L x_hat", _close(st.y, L @ st.x_hat))
    checks.check(f"{label}: mean(v) == 0",
                 _close(st.v.mean(axis=0), np.zeros(problem.d)))

    nxt = algorithm.step(st, problem, graph, compressor, hyper)
    expect = st.x.mean(axis=0) - hyper.alpha * problem.stacked_gradients(st.x).mean(axis=0)
    checks.check(f"{label}: mean iterate follows gradient descent",
                 _close(nxt.x.mean(axis=0), expect))

    bits = np.arange(T + 1, dtype=np.int64) * n * bits_per_vector
    checks.check(f"{label}: bits_cum == formula x rounds x n",
                 bool(np.array_equal(trace.bits_cum, bits))
                 and nxt.bits_cum == (T + 1) * n * bits_per_vector)

    series = [trace.f_bar, trace.grad_sq, trace.consensus, trace.e1, trace.e2,
              trace.e3, trace.e4, trace.e5, trace.s_k, trace.surr_pre_pmax,
              trace.surr_pre_l2sq, trace.surr_post_pmax[:-1], trace.surr_post_l2sq[:-1],
              st.x, st.v, st.x_hat, st.y, nxt.x, nxt.v]
    checks.check(f"{label}: all values finite",
                 all(bool(np.all(np.isfinite(a))) for a in series))


# ---------------------------------------------------------------------------
# sweep_t1_n10: the `dcopt sweep` flow on the t1_sweep.ini shape
# ---------------------------------------------------------------------------

def write_sweep_json(path, result):
    with open(path, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")


class SweepT1:
    name = "sweep_t1_n10"

    def __init__(self, seed, tiny=False):
        problem_seed, alg_seed = _seeds(seed, 1, 2)
        self.n, self.d, self.level = 10, 5, 1.0
        # T = 20 breaks the (uncertified) region guarantee on about a quarter
        # of seeds; from T = 40 on the worst row after k = 0 keeps 13% slack
        self.horizons = [40, 80, 160] if tiny else [100, 200, 400, 800]
        self.cfg = {
            "problem": {"family": "nonconvex", "d": str(self.d), "seed": str(problem_seed)},
            "graph": {"topology": "complete", "n": str(self.n), "seed": "0"},
            "compressor": {"kind": "one_bit", "level": str(self.level)},
            "algorithm": {"mode": "T1_local_nonconvex", "seed": str(alg_seed)},
        }

    def describe(self):
        return {"n": self.n, "d": self.d, "T": self.horizons, "topology": "complete",
                "family": "nonconvex", "compressor": "one_bit",
                "mode": "T1_local_nonconvex", "schedule": "RecursiveSchedule"}

    def run_once(self, workdir, gauge):
        rep = Rep()
        rows = []
        for T in self.horizons:
            cfg = {sec: dict(vals) for sec, vals in self.cfg.items()}
            cfg["algorithm"]["T"] = str(T)
            plan = rep.timed(gauge, "setup", config.build_run_plan, cfg)
            problem, graph, compressor, hyper, run_kwargs, _, _, echo = plan
            trace = rep.timed(gauge, "work", algorithm.run, problem, graph, compressor,
                              hyper, config_echo=echo, **run_kwargs)
            rep.work += graph.n * T
            rep.bits += int(trace.bits_cum[-1])
            local = rep.timed(gauge, "output", diagnostics.contraction_local_check,
                              trace, run_kwargs["contract"], hyper.omega)
            metric = float(np.mean(trace.grad_sq[:-1] + trace.consensus[:-1]))
            rows.append({"T": T, "avg_metric": metric, "alpha": hyper.alpha,
                         "bits": int(trace.bits_cum[-1])})
            rep.outputs.append((plan, trace, local))

        def fit_and_write():
            exponent, r2 = diagnostics.rate_fit([r["T"] for r in rows],
                                                [r["avg_metric"] for r in rows],
                                                "power_law", burn_in_frac=0.0)
            write_sweep_json(workdir / "sweep.json",
                             {"rows": rows, "fit": {"exponent": exponent, "r_squared": r2}})
            return exponent

        rep.outputs.append(rep.timed(gauge, "output", fit_and_write))
        return rep

    def check(self, rep, checks, workdir):
        *runs, exponent = rep.outputs
        for plan, trace, local in runs:
            label = f"T={trace.T}"
            check_run(checks, label, plan, trace, bits_per_vector=self.d)
            checks.check(f"{label}: zero region violations", bool(trace.region_ok.all()))
            checks.check(f"{label}: zero contraction_local_check violations",
                         local.violations == 0)
        checks.check("sweep: power-law exponent < 0", exponent < 0)
        with open(workdir / "sweep.json") as fh:
            saved = json.load(fh)
        checks.check("sweep.json holds every horizon",
                     [r["T"] for r in saved["rows"]] == self.horizons)

    def kernels(self):
        return _graph_kernels("complete", self.n, self.d)


# ---------------------------------------------------------------------------
# kbit_ring_n400: the `dcopt run` flow, noisy dithered k-bit on a large ring
# ---------------------------------------------------------------------------

class KbitRing:
    name = "kbit_ring_n400"

    def __init__(self, seed, tiny=False):
        problem_seed, alg_seed = _seeds(seed, 2, 2)
        self.n, self.d, self.T = (12, 6, 3) if tiny else (400, 200, 20)
        self.kbits, self.noise = 8, 0.5
        self.cfg = {
            "problem": {"family": "nonconvex", "d": str(self.d), "m": "20",
                        "seed": str(problem_seed)},
            "graph": {"topology": "ring", "n": str(self.n), "seed": "0"},
            "compressor": {"kind": "unbiased_kbit", "kbits": str(self.kbits),
                           "noise": str(self.noise)},
            "algorithm": {"mode": "empirical", "T": str(self.T), "seed": str(alg_seed),
                          "alpha": "0.2", "gamma": "0.6", "tau_1": "1.5",
                          "schedule": "geometric", "rate": "0.99"},
            "output": {"svg": "false"},
        }

    def describe(self):
        return {"n": self.n, "d": self.d, "T": self.T, "topology": "ring",
                "family": "nonconvex", "compressor": f"noisy_unbiased_kbit(kbits={self.kbits}, "
                f"noise={self.noise})", "mode": "empirical", "schedule": "GeometricSchedule"}

    def run_once(self, workdir, gauge):
        rep = Rep()
        plan = rep.timed(gauge, "setup", config.build_run_plan, self.cfg)
        problem, graph, compressor, hyper, run_kwargs, feas, extras, echo = plan
        trace = rep.timed(gauge, "work", algorithm.run, problem, graph, compressor,
                          hyper, config_echo=echo, **run_kwargs)
        rep.work = graph.n * self.T
        rep.bits = int(trace.bits_cum[-1])

        def write_outputs():
            diagnostics.write_csv(trace, workdir / "trace.csv")
            fits = {}
            for name, model in (("grad_sq_power_law", "power_law"),
                                ("grad_sq_geometric", "geometric")):
                try:
                    value, r2 = diagnostics.rate_fit(trace.k[1:], trace.grad_sq[1:], model)
                    fits[name] = {("exponent" if model == "power_law" else "ratio"): value,
                                  "r_squared": r2}
                except DcoptError:
                    pass
            diagnostics.write_summary(trace, workdir / "summary.json", extra={
                "feasibility": {k: {"ok": ok, "value": v, "bound": b}
                                for k, (ok, v, b) in feas.items()},
                "extras": {k: v for k, v in extras.items() if np.isscalar(v)},
                "rate_fits": fits,
                "checks": {},
            })

        rep.timed(gauge, "output", write_outputs)
        rep.outputs.append((plan, trace))
        return rep

    def check(self, rep, checks, workdir):
        plan, trace = rep.outputs[0]
        check_run(checks, "run", plan, trace,
                  bits_per_vector=(self.kbits + 1) * self.d + B1)
        with open(workdir / "trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        checks.check("trace.csv holds T+1 rows", len(rows) == self.T + 2)
        with open(workdir / "summary.json") as fh:
            summary = json.load(fh)
        checks.check("summary.json matches the trace",
                     summary["iterations"] == self.T
                     and summary["final"]["bits_cum"] == int(trace.bits_cum[-1]))

    def kernels(self):
        return _graph_kernels("ring", self.n, self.d)


# ---------------------------------------------------------------------------
# verify_contracts: the `dcopt verify` flow over every kind
# ---------------------------------------------------------------------------

# (compressor section, contract builder); "sound" selects top-k's corrected
# delta = 1 - sqrt(1 - k/d), the only top-k contract that holds
VERIFY_KINDS = [
    ({"kind": "one_bit", "level": "1.0"}, None),
    ({"kind": "sat_quant", "level": "1.0", "step": "0.5"}, None),
    ({"kind": "norm_sign"}, None),
    ({"kind": "top_k", "k": "2"}, "sound"),
    ({"kind": "unbiased_kbit", "kbits": "3"}, None),
    ({"kind": "rand_k", "k": "2"}, None),
    ({"kind": "scalarization"}, None),
    ({"kind": "uniform_quant", "step": "0.5"}, None),
    ({"kind": "unbiased_kbit", "kbits": "3", "noise": "0.5"}, None),
    ({"kind": "compose_kbit_of_uniform", "kbits": "3", "step": "0.5",
      "noise_inner": "0.25"}, None),
    ({"kind": "compose_uniform_of_kbit", "kbits": "3", "step": "0.5",
      "noise_inner": "0.25"}, None),
]


class VerifyContracts:
    name = "verify_contracts"

    def __init__(self, seed, tiny=False):
        problem_seed, self.seed = _seeds(seed, 3, 2)
        self.n, self.d = 4, 8
        self.samples, self.points, self.trials = (50, 16, 200) if tiny else (10_000, 16, 20_000)
        self.cfg = {
            "problem": {"family": "quadratic", "d": str(self.d), "seed": str(problem_seed)},
            "graph": {"topology": "complete", "n": str(self.n), "seed": "0"},
            "algorithm": {"mode": "empirical", "T": "1", "seed": str(self.seed)},
        }

    def describe(self):
        return {"n": self.n, "d": self.d, "T": None, "topology": "complete",
                "family": "quadratic",
                "compressor": [c["kind"] + ("+noise" if "noise" in c else "")
                               for c, _ in VERIFY_KINDS],
                "local_points": self.samples, "global_points": self.points,
                "global_trials": self.trials}

    def _build(self, cfg, contract_kind):
        graph = config.build_graph_from(cfg)
        problem = config.build_problem_from(cfg, graph.n)
        comp = config.build_compressor_from(cfg, self.seed)
        if contract_kind == "sound":
            contract = comp.sound_contract(problem.d)
        else:
            contract = config.compressor_contract(comp, problem.d, cfg)
        return problem.d, comp, contract

    def run_once(self, workdir, gauge):
        rep = Rep()
        reports = []
        for section, contract_kind in VERIFY_KINDS:
            cfg = dict(self.cfg, compressor=section)
            d, comp, contract = rep.timed(gauge, "setup", self._build, cfg, contract_kind)
            if contract.cls == compressors.LOCAL:
                report = rep.timed(gauge, "work", compressors.verify_local_assumption,
                                   comp, contract, samples=self.samples, seed=self.seed, d=d)
                rep.work += report.samples
            else:
                report = rep.timed(gauge, "work", compressors.verify_global_assumption,
                                   comp, contract, samples=self.points,
                                   trials_per_sample=self.trials, seed=self.seed, d=d)
                rep.work += report.samples * self.trials
            rep.verify_points += report.samples
            reports.append(report)
        rep.outputs = reports
        return rep

    def check(self, rep, checks, workdir):
        for report in rep.outputs:
            ok = report.passed
            if not ok and report.cls == compressors.GLOBAL:
                worst = report.worst
                ok = worst["mean"] <= worst["bound"] + SIGNIFICANT_SE * worst["se"]
            checks.check(f"verify {report.kind} ({report.cls}) passes",
                         ok and np.isfinite(report.max_ratio))

    def kernels(self):
        return None


WORKLOADS = {w.name: w for w in (SweepT1, KbitRing, VerifyContracts)}
