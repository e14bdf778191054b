"""Outside-in layer tracing for the gebs benchmark.

The tracer wraps public gebs functions from outside the package: each name is
patched where the calling module looks it up, and every patch is undone on
exit. A wrapped call records one span (name, parent span, round, start, end)
in memory; layer totals are computed once, after the run, from the span
table. A layer's self time is its span's duration minus the durations of its
direct child spans.
"""

import contextlib
import functools
import importlib
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# (module, attribute, span name). A function imported with ``from x import f``
# is looked up in the importing module, so it is patched there as well.
MODULE_PATCHES = (
    ("gebs.cli", "main", "cli.main"),
    ("gebs.weights", "sample", "weights.sample"),
    ("gebs.weights", "theoretical_moments", "weights.theoretical_moments"),
    ("gebs.engine", "draw_rng", "engine.draw_rng"),
    ("gebs.baselines", "draw_rng", "engine.draw_rng"),
    ("gebs.engine", "run_bootstrap", "engine.run_bootstrap"),
    ("gebs.engine", "variance_estimate", "engine.aggregate"),
    ("gebs.engine", "percentile_cis_batch", "engine.aggregate"),
    ("gebs.solver", "solve_weighted", "solver.solve_weighted"),
    ("gebs.engine", "solve_weighted", "solver.solve_weighted"),
    ("gebs.bench", "solve_weighted", "solver.solve_weighted"),
    ("gebs.baselines", "solve_weighted", "solver.solve_weighted"),
    ("gebs.solver", "weighted_score", "solver.weighted_score"),
    ("gebs.solver", "weighted_jacobian", "solver.weighted_jacobian"),
    ("gebs.models", "simulate_ar1", "models.simulate"),
    ("gebs.models", "simulate_glm", "models.simulate"),
    ("gebs.baselines", "residual_bootstrap", "baselines.residual_bootstrap"),
    ("gebs.baselines", "wild_bootstrap", "baselines.wild_bootstrap"),
    ("gebs.bench", "nls_draw_root", "bench.nls_draw_root"),
    ("gebs.bench", "nls_roots", "bench.nls_roots"),
    ("gebs.bench", "density_histogram", "bench.density_histogram"),
    ("gebs.bench", "render_report", "bench.render_report"),
)

# Model methods are patched on every class in gebs.models that defines them.
MODEL_METHODS = ("score_all", "jacobian_all", "f", "objective")

SPAN_NAMES = tuple(dict.fromkeys(
    [name for _, _, name in MODULE_PATCHES]
    + [f"models.{m}" for m in MODEL_METHODS]))

SOLVER_ERRORS = ("NonConvergenceError", "SingularSystemError", "EvaluationError")
SAMPLE_RETURNING = ("engine.run_bootstrap", "baselines.residual_bootstrap",
                    "baselines.wild_bootstrap")


class Tracer:
    """In-memory span table plus counters taken at the same boundaries."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("i")
        self.parent = array("i")
        self.round = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self.current_round = -1
        self._stack = []

    def wrap(self, name, fn):
        """Return ``fn`` wrapped so that each call records a span ``name``."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        name_id, parent, rnd = self.name_id, self.parent, self.round
        start, end, stack = self.start, self.end, self._stack
        observe = _OBSERVERS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            rnd.append(self.current_round)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                end[idx] = perf_counter()
                stack.pop()
                if observe is not None:
                    observe(counts, None, exc)
                raise
            end[idx] = perf_counter()
            stack.pop()
            if observe is not None:
                observe(counts, result, None)
            return result

        return traced

    def totals(self):
        """Per-name calls, inclusive seconds and self seconds."""
        return layer_totals(self.names, np.frombuffer(self.name_id, np.int32),
                            np.frombuffer(self.parent, np.int32),
                            np.frombuffer(self.start), np.frombuffer(self.end))

    def save(self, path):
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, np.int32),
                 parent=np.frombuffer(self.parent, np.int32),
                 round=np.frombuffer(self.round, np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))


def layer_totals(names, name_id, parent, start, end):
    """Aggregate a span table; self time = duration minus direct children."""
    dur = np.asarray(end, float) - np.asarray(start, float)
    parent = np.asarray(parent)
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    self_time = dur - child
    k = len(names)
    calls = np.bincount(name_id, minlength=k)
    incl = np.bincount(name_id, weights=dur, minlength=k)
    own = np.bincount(name_id, weights=self_time, minlength=k)
    return {name: (int(calls[i]), float(incl[i]), float(own[i]))
            for i, name in enumerate(names)}


def _observe_solve(counts, solution, exc):
    if exc is None:
        counts["solver.iterations"] += solution.iterations
    else:
        counts[f"solver.failures.{type(exc).__name__}"] += 1


def _observe_sample(counts, sample, exc):
    sample = sample if exc is None else getattr(exc, "sample", None)
    if sample is not None:
        counts["engine.draws"] += sample.n_draws
        counts["engine.fallbacks"] += sample.fallback_count


_OBSERVERS = {"solver.solve_weighted": _observe_solve,
              **{name: _observe_sample for name in SAMPLE_RETURNING}}


def patch_targets():
    """Every (owner, attribute, span name) the tracer replaces."""
    targets = [(importlib.import_module(mod), attr, name)
               for mod, attr, name in MODULE_PATCHES]
    models = importlib.import_module("gebs.models")
    for cls in vars(models).values():
        if isinstance(cls, type) and issubclass(cls, models.Model):
            targets += [(cls, m, f"models.{m}") for m in MODEL_METHODS
                        if m in vars(cls)]
    return targets


@contextlib.contextmanager
def installed(tracer):
    """Patch every target with a traced wrapper; restore all on exit."""
    saved = []
    try:
        for owner, attr, name in patch_targets():
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer):
    """Per-layer metrics with units, named ``<layer>.<function>.<field>``."""
    out = {}
    totals = tracer.totals()
    for name in SPAN_NAMES:
        calls, incl, own = totals[name]
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.s"] = (incl, "s")
        out[f"{name}.self_s"] = (own, "s")
    c = tracer.counts
    iterations = c["solver.iterations"]
    out["solver.iterations"] = (iterations, "count")
    failures = 0
    for err in SOLVER_ERRORS:
        failures += c[f"solver.failures.{err}"]
        out[f"solver.failures.{err}"] = (c[f"solver.failures.{err}"], "count")
    solves = totals["solver.solve_weighted"][0]
    trials = totals["solver.weighted_score"][0] - solves
    # bases: converged solves, line-search trials, resampled draws
    out["solver.iters_per_solve"] = (_ratio(iterations, solves - failures), "ratio")
    out["solver.linesearch_accept"] = (_ratio(iterations, trials), "ratio")
    out["engine.draws"] = (c["engine.draws"], "count")
    out["engine.converged_ratio"] = (
        _ratio(c["engine.draws"] - c["engine.fallbacks"], c["engine.draws"]), "ratio")
    return out


def _ratio(num, den):
    return float(num) / den if den > 0 else 0.0
