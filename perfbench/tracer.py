"""Span recorder that wraps dcopt entry points from outside the package.

A traced rep replaces module functions and class methods of ``dcopt`` with
wrappers that record one span per call: its name, start, end and parent.
Spans stay in memory until the rep ends.  Nothing under ``src/`` is edited;
:meth:`Tracer.uninstall` puts every original back.
"""

import functools
import sys
import time

# (module, attribute, span name) for module-level functions.  A function
# re-exported under the same object in other dcopt modules (for example
# ``config.build_graph``) is wrapped there too, so every call site is seen.
FUNCTIONS = [
    ("dcopt.config", "build_run_plan", "config.build_run_plan"),
    ("dcopt.graph", "build_graph", "graph.build_graph"),
    ("dcopt.problems", "make_nonconvex", "problems.build"),
    ("dcopt.problems", "make_quadratic", "problems.build"),
    ("dcopt.compressors", "verify_local_assumption", "compressors.verify_local"),
    ("dcopt.compressors", "verify_global_assumption", "compressors.verify_global"),
    ("dcopt.rng", "substream", "rng.substream"),
    ("dcopt.algorithm", "run", "algorithm.run"),
    ("dcopt.algorithm", "step", "algorithm.step"),
    ("dcopt.diagnostics", "write_csv", "diagnostics.write"),
    ("dcopt.diagnostics", "write_summary", "diagnostics.write"),
    ("dcopt.diagnostics", "rate_fit", "diagnostics.check"),
    ("dcopt.diagnostics", "contraction_local_check", "diagnostics.check"),
    ("dcopt.constants", "theorem_params", "constants.theorem_params"),
    ("dcopt.constants", "compute_constants", "constants.compute_constants"),
]

# (module, class, method, span name); every subclass that overrides the
# method in its own body is wrapped as well.
METHODS = [
    ("dcopt.problems", "ProblemInstance", "gradient", "problems.gradient"),
    ("dcopt.problems", "ProblemInstance", "cost", "problems.cost"),
    ("dcopt.problems", "ProblemInstance", "stacked_gradients", "problems.gradients"),
    ("dcopt.problems", "ProblemInstance", "gradients_at", "problems.gradients"),
    ("dcopt.problems", "ProblemInstance", "f", "problems.f"),
    ("dcopt.compressors", "Compressor", "compress", "compressors.compress"),
    ("dcopt.compressors", "Compressor", "sample_errors", "compressors.sample_errors"),
]


class Tracer:
    """Records spans while ``active``; wrappers pass straight through otherwise."""

    def __init__(self):
        self.active = False
        self.spans = []          # [name, start, end, parent index or -1]
        self._stack = []
        self._saved = []         # (owner, attribute, original)

    def reset(self):
        self.spans = []
        self._stack = []

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter(), 0.0, parent]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                span[2] = time.perf_counter()

        return wrapper

    def _patch(self, owner, attr, name):
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original))

    def install(self, extra=()):
        """Wrap the dcopt entry points plus ``extra`` (module, attr, name)
        triples from the benchmark's own code.  Missing entry points are
        skipped, so a later refactor that removes one reads as zero calls."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "dcopt" or key.startswith("dcopt."))]
        for mod_name, attr, name in FUNCTIONS:
            fn = getattr(sys.modules.get(mod_name), attr, None)
            if fn is None:
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, name)
        for mod_name, cls_name, attr, name in METHODS:
            base = getattr(sys.modules.get(mod_name), cls_name, None)
            if base is None:
                continue
            for cls in [base, *_subclasses(base)]:
                if attr in cls.__dict__:
                    self._patch(cls, attr, name)
        for mod, attr, name in extra:
            self._patch(mod, attr, name)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []
        self.active = False


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


class SpanIndex:
    """Aggregates over one rep's spans: durations, self times, ancestry."""

    def __init__(self, spans):
        self.spans = spans
        self.dur = [end - start for _, start, end, _ in spans]
        child = [0.0] * len(spans)
        for i, (_, _, _, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += self.dur[i]
        self.self_time = [d - c for d, c in zip(self.dur, child)]

    def within(self, ancestor):
        """Flags marking spans that have a span named ``ancestor`` above them."""
        flags = [False] * len(self.spans)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                flags[i] = flags[parent] or self.spans[parent][0] == ancestor
        return flags

    def total(self, name, outermost=False):
        return sum(d for (n, _, _, p), d in zip(self.spans, self.dur)
                   if n == name and not (outermost and p >= 0 and self.spans[p][0] == name))

    def self_total(self, name):
        return sum(s for (n, *_), s in zip(self.spans, self.self_time) if n == name)

    def count(self, name, mask=None, outermost=False):
        return sum(1 for i, (n, _, _, p) in enumerate(self.spans)
                   if n == name and (mask is None or mask[i])
                   and not (outermost and p >= 0 and self.spans[p][0] == name))
