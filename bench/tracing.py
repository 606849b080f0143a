"""Per-layer tracing for the benchmark's traced run.

Wrappers are installed from here, around the public functions of each
``symplaw`` module, and nothing inside the program changes.  A wrapper
replaces the function under every name that bound it: the defining module,
every module that did ``from .x import y``, the package namespace, and each
alias in a class body (``__radd__ = __add__``).  Functions imported inside a
function body are looked up in the defining module at call time, so they see
the wrapper too.

Timed boundaries record a span ``(name, start, end, parent span, job)`` in
memory; self time is a span's duration minus the time its child spans cover.
Count-only boundaries (``MultiPoly`` arithmetic, ``word_mul``) are called too
often for a span each and record a count.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# Boundaries that record a span, by "<module>.<qualified name>".
TIMED = (
    "matrices.RingMatrix.__mul__",
    "matrices.RingMatrix.inverse",
    "matrices.mat_det",
    "matrices.char_poly",
    "matrices.matrix_rank",
    "symplectic.symplectic_transpose",
    "symplectic.pfaffian",
    "symplectic.sample_symplectic",
    "symplectic.similitude",
    "detlaws.InvolutiveRepresentation.rho_word",
    "detlaws.InvolutiveRepresentation.__post_init__",
    "detlaws.eval_det_law",
    "detlaws.eval_pf_law",
    "invariants.eval_invariant",
    "invariants.multilinear_invariant_dim",
    "invariants.trace_word_span_dim",
    "gma.QuotientRing.reduce",
    "gma.delta_involution",
    "gma.gma_chi_p",
    "gma.kernel_probe",
    "pseudochar.theta_eval",
    "pseudochar.verify_axioms",
    "suites.suite_invariants",
    "suites.suite_pseudochar",
    "suites.suite_gma",
    "serialize.representation_from_json",
    "serialize.matrix_from_json",
    "cli.main",
)

# Boundaries that only count calls.
COUNTED = (
    "multipoly.MultiPoly.__init__",
    "multipoly.MultiPoly.__mul__",
    "multipoly.MultiPoly.__add__",
    "words.word_mul",
)

# Per-layer metrics (named in BENCHMARK.json) that read a count kept under
# their own name, by Tracer._hooks, Tracer._wrap_results and the
# ZeroDivisionError count in Tracer._timed.  Other metrics are
# "<boundary>.calls", ".self_s" or ".total_s", or one of RATIOS.
OWN_COUNTS = (
    "matrices.RingMatrix.inverse.singular",
    "matrices.mat_det.rational_calls",
    "matrices.mat_det.poly_calls",
    "suites.failed_checks",
    "cli.main.exit_nonzero",
)

# Ratios whose denominator is the call count of the named boundary.
RATIOS = {
    "invariants.eval_invariant.repeat_share": ("invariants.eval_invariant.repeats",
                                               "invariants.eval_invariant"),
    "pseudochar.theta_eval.hit_ratio": ("pseudochar.theta_eval.hits", "pseudochar.theta_eval"),
}


class CoverageError(RuntimeError):
    """A traced boundary is unpatched somewhere, or recorded no calls where it must."""


def _resolve(boundary: str):
    """The function behind "<module>.<qualname>", as defined (not a wrapper around it)."""
    module_name, _, qualname = boundary.partition(".")
    owner = sys.modules[f"symplaw.{module_name}"]
    *outer, attr = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return vars(owner)[attr]


def _namespaces():
    """Every symplaw module namespace and every class body defined in one."""
    for name, module in list(sys.modules.items()):
        if name == "symplaw" or name.startswith("symplaw."):
            yield module
            for value in vars(module).values():
                if isinstance(value, type) and value.__module__ == name:
                    yield value


class Tracer:
    """Spans and counts for one traced run; ``install`` and ``uninstall`` patch the program."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.job = None
        self._stack: list = []
        self._seen_args: set = set()
        self._patched: list = []  # (owner, attribute, original)

    def start_job(self, job_id):
        self.job = job_id
        self._seen_args = set()

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name: str, fn, hook):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if hook:
                hook(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except ZeroDivisionError:
                counts[name + ".singular"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _hooks(self) -> dict:
        """Per-boundary observers of the call arguments."""
        counts = self.counts

        def mat_det(args):
            kind = "rational_calls" if args[0].all_rational() else "poly_calls"
            counts["matrices.mat_det." + kind] += 1

        def eval_invariant(args):
            f, mats = args[0], args[1]
            word = f.word.letters if f.kind == "sigma" else (f.var_index, f.power)
            key = (f.kind, word, tuple(m.entries for m in mats))
            if key in self._seen_args:
                counts["invariants.eval_invariant.repeats"] += 1
            self._seen_args.add(key)

        return {"matrices.mat_det": mat_det, "invariants.eval_invariant": eval_invariant}

    def _wrap_results(self, name: str, fn):
        """Wrappers that look at a result: cache growth, failed checks, exit codes."""
        counts = self.counts
        if name == "pseudochar.theta_eval":
            def wrapped(pc, *args, **kwargs):
                before = len(pc.cache)
                out = fn(pc, *args, **kwargs)
                if len(pc.cache) == before:
                    counts["pseudochar.theta_eval.hits"] += 1
                return out
        elif name.startswith("suites.suite_"):
            def wrapped(*args, **kwargs):
                checks = fn(*args, **kwargs)
                counts["suites.failed_checks"] += sum(not c["pass"] for c in checks)
                return checks
        elif name == "cli.main":
            def wrapped(*args, **kwargs):
                rc = fn(*args, **kwargs)
                if rc != 0:
                    counts["cli.main.exit_nonzero"] += 1
                return rc
        else:
            return fn
        return functools.wraps(fn)(wrapped)

    # -- patching ---------------------------------------------------------

    def install(self):
        hooks = self._hooks()
        wrappers = {}  # id of each original function -> its wrapper
        for name in TIMED + COUNTED:
            original = _resolve(name)
            if name in COUNTED:
                wrappers[id(original)] = self._counted(name, original)
            else:
                wrapped = self._wrap_results(name, original)
                wrappers[id(original)] = self._timed(name, wrapped, hooks.get(name))
        for ns in _namespaces():
            for attr, value in list(vars(ns).items()):
                if id(value) in wrappers:
                    setattr(ns, attr, wrappers[id(value)])
                    self._patched.append((ns, attr, value))
        for ns in _namespaces():
            for attr, value in vars(ns).items():
                if id(value) in wrappers:
                    raise CoverageError(f"{getattr(ns, '__name__', ns)}.{attr} is still unwrapped")

    def uninstall(self):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched = []

    def check_coverage(self, expect_calls) -> None:
        missing = [b for b in expect_calls if not self.counts[b]]
        if missing:
            raise CoverageError("no calls recorded at " + ", ".join(missing))

    # -- report -----------------------------------------------------------

    def layer_metrics(self, names, scale: float = 1.0) -> dict:
        """The value of each named per-layer metric; span times are multiplied by ``scale``.

        A name that is neither a stat of a traced boundary nor a count or ratio
        kept here raises ValueError, so it cannot read as zero.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            total_s[name] += (end - start) * scale
            self_s[name] += (end - start - inner) * scale
        out = {}
        for metric in names:
            boundary, _, stat = metric.rpartition(".")
            if stat == "calls" and boundary in TIMED + COUNTED:
                value = self.counts[boundary]
            elif stat == "self_s" and boundary in TIMED:
                value = self_s[boundary]
            elif stat == "total_s" and boundary in TIMED:
                value = total_s[boundary]
            elif metric in RATIOS:
                num, den = RATIOS[metric]
                value = self.counts[num] / self.counts[den] if self.counts[den] else 0.0
            elif metric in OWN_COUNTS:
                value = self.counts[metric]
            else:
                raise ValueError(f"per-layer metric {metric} is not measured by tracing.py")
            out[metric] = value
        return out
