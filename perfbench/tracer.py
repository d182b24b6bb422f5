"""Span tracer for the germlie benchmark.

The tracer wraps the public callables of each package layer and records a
nested span per call while it is installed.  A module-level function is
replaced under every name any ``germlie`` module binds it to (for example
``series.multiply`` is also ``germgroup.series_multiply`` and
``evolution.series_multiply``), so calls through an alias are traced too.
Methods are replaced on their class.

The benchmark installs the tracer just before a traced op starts its clock
and removes it right after the clock stops, so input generation, checks and
oracles never run through the wrappers.  Spans stay in memory (up to
``SPAN_CAP``) and are written out when the run ends; per-name call counts,
inclusive and self times, and the counters below are kept for every call.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import statistics
import sys
import time

from germlie.errors import BudgetError

SPAN_CAP = 100_000


# ---------------------------------------------------------------------------
# hooks: counters measured at the layer boundary, called after each span
# ---------------------------------------------------------------------------

def _mul_rows(tr, args, kwargs, result, exc):
    tr.counts["fastseries.SeriesStack.mul.rows"] += args[0].coeffs.shape[0]


def _count_brackets(tr, args, kwargs):
    """Route ``evaluate_bch_words``'s bracket callback through a counter."""
    x, y, order, inner, *rest = args  # every caller passes bracket_fn by position

    def bracket(a, b):
        tr.counts["matrixlie.brackets"] += 1
        return inner(a, b)

    return (x, y, order, bracket, *rest), kwargs


def _invert_shrinks(tr, args, kwargs, result, exc):
    if exc is None and result.radius < args[0].radius * (1.0 - 1e-9):
        tr.counts["series.invert.radius_shrinks"] += 1


def _log_budget_errors(tr, args, kwargs, result, exc):
    if isinstance(exc, BudgetError):
        tr.counts["series.series_log.budget_errors"] += 1


def _regularity_trials(tr, args, kwargs, result, exc):
    if exc is None:
        tr.counts["germspace.compact_regularity_check.trials"] += result.trials


def _bch_pairs(tr, args, kwargs, result, exc):
    tr.counts["germgroup.bch_pairs.pairs"] += len(args[1])
    if exc is None:
        tr.samples["germgroup.bch_pairs.tail"].extend(
            s.tail_bound for el in result for s in el.reps)


def _log_retries(tr, args, kwargs, result, exc):
    if exc is None:
        tr.counts["germgroup.log_germ.retries"] += result.level - args[1].level


def _evol_steps(tr, args, kwargs, result, exc):
    if exc is None:
        doubled = result.error_estimate is not None  # step doubling reruns at 2x steps
        tr.counts["evolution.evol.steps"] += result.step_count * (3 if doubled else 1)
        tr.samples["evolution.evol.tail"].extend(
            s.tail_bound for s in result.endpoint.element.reps)


def _height_shrinks(tr, args, kwargs, result, exc):
    if exc is None:
        height = kwargs["height"] if "height" in kwargs else args[1]
        tr.counts["complexify.extend_transitions.height_shrinks"] += sum(
            1 for (i, j), h in result.heights.items() if i != j and h < height)


# (module, attribute path, span name, after-hook, argument rewriter)
SPANS = (
    ("germlie._fastseries", "SeriesStack.mul", "fastseries.SeriesStack.mul", _mul_rows, None),
    ("germlie._fastseries", "SeriesStack.exp", "fastseries.SeriesStack.exp", None, None),
    ("germlie._fastseries", "SeriesStack.from_series", "fastseries.SeriesStack.from_series",
     None, None),
    ("germlie._fastseries", "SeriesStack.to_series", "fastseries.SeriesStack.to_series",
     None, None),
    ("germlie.matrixlie", "evaluate_bch_words", "matrixlie.evaluate_bch_words", None,
     _count_brackets),
    ("germlie.series", "multiply", "series.multiply", None, None),
    ("germlie.series", "invert", "series.invert", _invert_shrinks, None),
    ("germlie.series", "series_exp", "series.series_exp", None, None),
    ("germlie.series", "series_log", "series.series_log", _log_budget_errors, None),
    ("germlie.series", "linear_combination", "series.linear_combination", None, None),
    ("germlie.series", "cauchy_coefficients", "series.cauchy_coefficients", None, None),
    ("germlie.germspace", "bond", "germspace.bond", None, None),
    ("germlie.germspace", "germ_distance", "germspace.germ_distance", None, None),
    ("germlie.germspace", "factorize", "germspace.factorize", None, None),
    ("germlie.germspace", "BHolElement.sample_sup", "germspace.BHolElement.sample_sup",
     None, None),
    ("germlie.germspace", "compact_regularity_check", "germspace.compact_regularity_check",
     _regularity_trials, None),
    ("germlie.germgroup", "GermLieGroup.bch_pairs", "germgroup.bch_pairs", _bch_pairs, None),
    ("germlie.germgroup", "GermLieGroup.exp_germ", "germgroup.exp_germ", None, None),
    ("germlie.germgroup", "GermLieGroup.log_germ", "germgroup.log_germ", _log_retries, None),
    ("germlie.germgroup", "GermLieGroup.mul", "germgroup.mul", None, None),
    ("germlie.germgroup", "GermLieGroup.inv", "germgroup.inv", None, None),
    ("germlie.germgroup", "GermLieGroup.adjoint", "germgroup.adjoint", None, None),
    ("germlie.evolution", "evol", "evolution.evol", _evol_steps, None),
    ("germlie.evolution", "smoothness_report", "evolution.smoothness_report", None, None),
    ("germlie.evolution", "LieCurve.value", "evolution.LieCurve.value", None, None),
    ("germlie.evolution", "log_derivative", "evolution.log_derivative", None, None),
    ("germlie.complexify", "extend_transitions", "complexify.extend_transitions",
     _height_shrinks, None),
    ("germlie.complexify", "certify_cocycles", "complexify.certify_cocycles", None, None),
)


def _calls_self(name):
    return [(f"{name}.calls", "count/op", "lower"), (f"{name}.self_s", "s/op", "lower")]


# Every per-layer metric, in output order: (name, unit, better).  Counts and
# times are per traced op; ``us_per_*`` divide inclusive span time by the work
# count.  Metric names may not start with ``_``, so ``_fastseries`` reads
# ``fastseries``.
PER_LAYER = [
    ("fastseries.SeriesStack.mul.calls", "count/op", "lower"),
    ("fastseries.SeriesStack.mul.rows", "count/op", "lower"),
    ("fastseries.SeriesStack.mul.self_s", "s/op", "lower"),
    ("fastseries.SeriesStack.mul.us_per_row", "us/row", "lower"),
    *_calls_self("fastseries.SeriesStack.exp"),
    *_calls_self("fastseries.SeriesStack.from_series"),
    *_calls_self("fastseries.SeriesStack.to_series"),
    *_calls_self("matrixlie.evaluate_bch_words"),
    ("matrixlie.brackets_per_bch", "count/call", "lower"),
    *_calls_self("series.multiply"),
    *_calls_self("series.invert"),
    *_calls_self("series.series_exp"),
    *_calls_self("series.series_log"),
    *_calls_self("series.linear_combination"),
    *_calls_self("series.cauchy_coefficients"),
    ("series.TruncatedSeries.constructions", "count/op", "lower"),
    ("series.invert.radius_shrinks", "count/op", "lower"),
    ("series.series_log.budget_errors", "count/op", "lower"),
    *_calls_self("germspace.bond"),
    *_calls_self("germspace.germ_distance"),
    *_calls_self("germspace.factorize"),
    *_calls_self("germspace.BHolElement.sample_sup"),
    ("germspace.compact_regularity_check.trials", "count/op", "higher"),
    ("germspace.compact_regularity_check.self_s", "s/op", "lower"),
    ("germspace.compact_regularity_check.us_per_trial", "us/trial", "lower"),
    ("germgroup.bch_pairs.calls", "count/op", "lower"),
    ("germgroup.bch_pairs.pairs", "count/op", "higher"),
    ("germgroup.bch_pairs.self_s", "s/op", "lower"),
    *_calls_self("germgroup.exp_germ"),
    *_calls_self("germgroup.log_germ"),
    *_calls_self("germgroup.mul"),
    *_calls_self("germgroup.inv"),
    *_calls_self("germgroup.adjoint"),
    ("germgroup.log_germ.retries", "count/op", "lower"),
    ("germgroup.cert.attempts", "count/op", "lower"),
    ("germgroup.cert.ok_ratio", "ratio", "higher"),
    ("evolution.evol.calls", "count/op", "lower"),
    ("evolution.evol.steps", "count/op", "higher"),
    ("evolution.evol.self_s", "s/op", "lower"),
    ("evolution.evol.us_per_step", "us/step", "lower"),
    *_calls_self("evolution.LieCurve.value"),
    *_calls_self("evolution.smoothness_report"),
    *_calls_self("complexify.extend_transitions"),
    *_calls_self("complexify.certify_cocycles"),
    ("complexify.extend_transitions.height_shrinks", "count/op", "lower"),
    ("germgroup.bch_pairs.tail_p50", "norm", "lower"),
    ("evolution.evol.tail_p50", "norm", "lower"),
    ("trace.overhead", "ratio", "lower"),
]


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans = []      # (id, parent id or -1, name, op, start_s, end_s)
        self.dropped = 0
        self.stats = {}      # name -> [calls, inclusive_s, self_s]
        self.counts = collections.Counter()
        self.samples = collections.defaultdict(list)
        self.ops = 0
        self._stack = []     # [span id, time covered by child spans]
        self._next_id = 0
        self._origin = time.perf_counter()
        self._patches = self._build_patches()  # (owner, attribute, original, replacement)

    # -- wrappers --------------------------------------------------------------

    def _span(self, name, fn, hook, rewrite):
        tracer = self
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rewrite is not None:
                args, kwargs = rewrite(tracer, args, kwargs)
            stack = tracer._stack
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            entry = [sid, 0.0]
            stack.append(entry)
            result = exc = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - entry[1]
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((sid, parent, name, tracer.ops - 1,
                                         t0 - tracer._origin, t1 - tracer._origin))
                else:
                    tracer.dropped += 1
                if hook is not None:
                    hook(tracer, args, kwargs, result, exc)

        return wrapper

    def _constructions(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def init(*args, **kwargs):
            counts["series.TruncatedSeries.constructions"] += 1
            return fn(*args, **kwargs)

        return init

    def _certificates(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def post_init(*args, **kwargs):
            counts["germgroup.cert.attempts"] += 1
            out = fn(*args, **kwargs)
            counts["germgroup.cert.ok"] += 1
            return out

        return post_init

    def _build_patches(self) -> list:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "germlie" or name.startswith("germlie."))]
        patches = []

        def on_class(owner, attr, make):
            raw = owner.__dict__[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(make(raw.__func__))
            else:
                new = make(raw)
            patches.append((owner, attr, raw, new))

        for mod_name, path, name, hook, rewrite in SPANS:
            mod = importlib.import_module(mod_name)
            if "." in path:
                cls_name, attr = path.split(".")
                on_class(getattr(mod, cls_name), attr,
                         lambda f, n=name, h=hook, r=rewrite: self._span(n, f, h, r))
                continue
            fn = getattr(mod, path)
            wrapper = self._span(name, fn, hook, rewrite)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        patches.append((m, attr, fn, wrapper))
        series = importlib.import_module("germlie.series")
        germgroup = importlib.import_module("germlie.germgroup")
        on_class(series.TruncatedSeries, "__init__", self._constructions)
        on_class(germgroup.GermGroupElement, "__post_init__", self._certificates)
        return patches

    # -- installation around one op ---------------------------------------------

    def install(self) -> None:
        """Start a traced op: put every wrapper in place."""
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)
        self.ops += 1

    def uninstall(self) -> None:
        """End a traced op: restore every original callable."""
        for owner, attr, raw, _ in reversed(self._patches):
            setattr(owner, attr, raw)
        self._stack.clear()

    # -- results -------------------------------------------------------------------

    def per_layer(self, overhead: float) -> dict:
        """Every metric of :data:`PER_LAYER`, as ``{name: (value, unit)}``."""
        ops = max(self.ops, 1)
        counts = self.counts
        out = {}
        for name, (calls, _, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls / ops
            out[f"{name}.self_s"] = self_s / ops

        def incl(name):
            return self.stats[name][1]

        def ratio(num, den):
            return num / den if den else 0.0

        rows = counts["fastseries.SeriesStack.mul.rows"]
        out["fastseries.SeriesStack.mul.rows"] = rows / ops
        out["fastseries.SeriesStack.mul.us_per_row"] = \
            ratio(1e6 * incl("fastseries.SeriesStack.mul"), rows)
        out["matrixlie.brackets_per_bch"] = ratio(
            counts["matrixlie.brackets"], self.stats["matrixlie.evaluate_bch_words"][0])
        for name in ("series.TruncatedSeries.constructions", "series.invert.radius_shrinks",
                     "series.series_log.budget_errors",
                     "germspace.compact_regularity_check.trials",
                     "germgroup.bch_pairs.pairs", "germgroup.log_germ.retries",
                     "germgroup.cert.attempts", "evolution.evol.steps",
                     "complexify.extend_transitions.height_shrinks"):
            out[name] = counts[name] / ops
        out["germspace.compact_regularity_check.us_per_trial"] = ratio(
            1e6 * incl("germspace.compact_regularity_check"),
            counts["germspace.compact_regularity_check.trials"])
        out["germgroup.cert.ok_ratio"] = ratio(counts["germgroup.cert.ok"],
                                               counts["germgroup.cert.attempts"])
        out["evolution.evol.us_per_step"] = ratio(1e6 * incl("evolution.evol"),
                                                  counts["evolution.evol.steps"])
        for name in ("germgroup.bch_pairs.tail", "evolution.evol.tail"):
            tails = self.samples[name]
            out[f"{name}_p50"] = statistics.median(tails) if tails else 0.0
        out["trace.overhead"] = overhead
        return {name: (float(out[name]), unit) for name, unit, _ in PER_LAYER}

    def write_spans(self, path, header: dict) -> None:
        """One JSON header line, then one line per recorded span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "spans": len(self.spans), "dropped": self.dropped,
                                 "fields": ["id", "parent", "name", "op", "start_s",
                                            "end_s"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

