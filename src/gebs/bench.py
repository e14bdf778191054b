"""Experiment drivers with scaled-down defaults and bit-stable reports.

Each experiment simulates (or loads) data, fits the full-data estimate, runs
the configured resampling methods, and aggregates into a fixed report shape:
variance-summary rows, confidence-interval coverage rows, histogram rows, or
weight-condition verdict rows. The nls experiment resamples through its own
``solve_fn`` block hook, ``nls_draw_root``, which solves every draw of a
block with array algebra. Its two full-data roots depend on the bundled data
alone, so a run does not refit them: it checks the loaded data against
``NLS_DATA_DIGEST`` and takes the recorded ``NLS_ANCHORS``. ``nls_roots``, the
bounded scipy fit, is the reference they were recorded from.
"""

import json
import math
import os
import stat
from dataclasses import dataclass, field

import numpy as np

from . import baselines as bmod
from . import engine as emod
from . import models as mmod
from . import weights as wmod
from .errors import (ConfigError, DegenerateRunError, EmptyRootSetError,
                     EvaluationError, NonConvergenceError, ParameterError,
                     ParseError)
from .solver import solve_weighted

EXPERIMENTS = ("ar1", "glm", "nls", "weights-check")
FORMATS = ("csv", "json")
SCALES = ("paper", "desk")

# (sims, boots) per experiment and scale
PAPER_SCALE = {"ar1": (10000, 1000), "glm": (1000, 1000),
               "nls": (1, 1000), "weights-check": (1, 200)}
DESK_SCALE = {"ar1": (500, 300), "glm": (200, 500),
              "nls": (1, 1000), "weights-check": (1, 200)}

DEFAULT_METHODS = {
    "ar1": ("rb", "wb", "gbs-multinomial", "gbs-uniform"),
    "glm": ("wb", "gbs-multinomial", "gbs-exp"),
    "nls": ("rb", "gbs-multinomial", "gbs-exp"),
    "weights-check": ("multinomial", "jackknife-sqrt", "uniform", "exp"),
}
DEFAULT_N = {"ar1": 50, "glm": 10, "nls": 24, "weights-check": 320}

AR1_PHI = 0.2
AR1_VAR_ODD = 1.0
AR1_VAR_EVEN = 100.0
GLM_BETA = (-17.90, 6.28)
CI_LEVEL = 0.95
NLS_STARTS = (np.array([30.0, 0.1, 0.05, 0.2]),
              np.array([33.0, -1.8, -1.0, -4.3]))
NLS_BOUNDS = (np.array([20.0, -5.0, -5.0, -5.0]),
              np.array([60.0, 5.0, 5.0, 5.0]))
NLS_GN_HALVINGS = 12
# The nls experiment's full-data roots, best fit first: nls_roots(model,
# load_isomerization(), ones) sorted by objective, written so that each float
# round-trips exactly. The secondary root's theta4 lies one ulp inside the
# box wall at -5. NLS_DATA_DIGEST is nls_data_digest of the data they were
# fitted to; tests/test_nls_anchors.py refits both and prints the literals
# to paste when they differ.
NLS_ANCHORS = (
    (35.920222667238, 0.07084332093463275, 0.03772996873431129, 0.16713475991808968),
    (33.36857373531039, -2.143667210322295, -1.2002403348816395, -4.999999999999999),
)
NLS_DATA_DIGEST = "c0370ea4b2bb4ef73a51119b2978b842def8b1103b15571b902398fcd69452c3"
HIST_BINS = 30
MIN_HIST_DRAWS = 50

COLUMNS = {
    "table1": ("method", "mean_var_est", "var_var_est", "fallback_rate"),
    "table2": ("method", "case", "logit", "mean_ci_length", "coverage_pct",
               "fallback_rate"),
    "figure1": ("method", "param", "kind", "x_lo", "x_hi", "value"),
    "conditions": ("scheme", "condition", "passed"),
}

CONDITION_GRID = (10, 20, 40, 80, 160, 320)
SQUARE_GRID = (16, 36, 64, 144, 256, 324)


def child_seed(seed, *path):
    """64-bit seed for a nested stream, stable in (seed, path)."""
    state = np.random.SeedSequence(entropy=seed, spawn_key=path).generate_state(2)
    return (int(state[0]) << 32) | int(state[1])


@dataclass
class ExperimentConfig:
    experiment: str
    n: int = None
    sims: int = None
    boots: int = None
    methods: tuple = None
    seed: int = 0
    scale: str = "desk"
    out: str = None
    format: str = "csv"

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.scale not in SCALES:
            raise ConfigError(f"unknown scale {self.scale!r}")
        if self.format not in FORMATS:
            raise ConfigError(f"unknown format {self.format!r}")
        # an option the experiment does not read must not reach the report
        if self.n is not None and self.experiment != "ar1":
            raise ConfigError(f"n applies to ar1 only, not to {self.experiment}")
        if self.experiment == "weights-check" and (self.sims, self.boots) != (None, None):
            raise ConfigError("weights-check takes neither sims nor boots")
        defaults = (PAPER_SCALE if self.scale == "paper" else DESK_SCALE)[self.experiment]
        if self.sims is None:
            self.sims = defaults[0]
        if self.boots is None:
            self.boots = defaults[1]
        if self.n is None:
            self.n = DEFAULT_N[self.experiment]
        if self.methods is None:
            self.methods = DEFAULT_METHODS[self.experiment]
        if isinstance(self.methods, str):   # tuple("rb") would be ("r", "b")
            raise ConfigError(f"methods must be a sequence of names, "
                              f"not the string {self.methods!r}")
        self.methods = tuple(self.methods)
        for name in ("n", "sims", "boots", "seed"):   # bools refused, numpy ints kept as int
            value = wmod._index(getattr(self, name))
            if value is None:
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
            setattr(self, name, value)
        if self.sims < 1:
            raise ConfigError("sims must be >= 1")
        if self.experiment == "nls" and self.sims != 1:
            raise ConfigError(f"nls runs one replicate on the bundled data; "
                              f"sims must be 1, got {self.sims}")
        if self.boots < 10:
            raise ConfigError("boots must be >= 10")
        if self.experiment == "nls" and self.boots < MIN_HIST_DRAWS:
            raise ConfigError(f"nls draws a histogram of each method's roots; "
                              f"boots must be >= {MIN_HIST_DRAWS}, got {self.boots}")
        if self.n < 2:
            raise ConfigError("n must be >= 2")
        if not self.methods:
            raise ConfigError("need at least one method")
        if strays := [m for m in self.methods if not isinstance(m, str)]:
            raise ConfigError(f"method names must be strings, got {strays[0]!r}")
        # results are keyed by method name: a repeat would overwrite a run
        if repeated := sorted({m for m in self.methods if self.methods.count(m) > 1}):
            raise ConfigError(f"method named more than once: {', '.join(repeated)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        # a report path that cannot be written is refused before any work;
        # the file itself is not created here
        if self.out is not None:
            try:
                out = os.fspath(self.out)
            except TypeError:
                raise ConfigError(f"out must be a path, got {self.out!r}") from None
            if not out:
                raise ConfigError("out must not be empty")
            if os.path.isdir(out):
                raise ConfigError(f"out names a directory: {out!r}")
            folder = os.path.dirname(out) or os.curdir
            if not os.path.isdir(folder):
                raise ConfigError(f"out's directory does not exist: {folder!r}")

    def to_dict(self):
        return {"experiment": self.experiment, "n": self.n, "sims": self.sims,
                "boots": self.boots, "methods": list(self.methods),
                "seed": self.seed, "scale": self.scale, "format": self.format}


@dataclass
class ExperimentReport:
    experiment: str
    shape: str
    seed: int
    config: dict
    rows: list
    truth: float = None
    flags: dict = field(default_factory=dict)

    @property
    def degenerate(self):
        return any(self.flags.values())

    def to_dict(self):
        return {"experiment": self.experiment, "shape": self.shape,
                "seed": self.seed, "config": self.config,
                "columns": list(COLUMNS[self.shape]),
                "rows": [{k: _jsonable(v) for k, v in row.items()}
                         for row in self.rows],
                "truth": _jsonable(self.truth),
                "flags": dict(sorted(self.flags.items()))}


def _sig6(x):
    return float(f"{float(x):.6g}")


def _jsonable(v):
    if v is None or isinstance(v, (bool, int, str)):
        return v
    return _sig6(v)


def _resolve_method(method, model, n_weights):
    """Check one method name before any work is done: returns the parsed
    scheme of a ``gbs-*`` name, or None for a baseline defined for ``model``."""
    if method in bmod.SUPPORTED:
        bmod.require_support(method, model)
        return None
    if method.startswith("gbs-"):
        return wmod.parse_scheme(method[4:], n_weights)
    raise ConfigError(f"unknown method {method!r}")


def _method_sample(method, scheme, model, data, beta_hat, boots, seed, solve_fn):
    """Run one resolved method; degenerate runs return a flagged sample."""
    try:
        if method == "rb":
            return bmod.residual_bootstrap(model, data, beta_hat, boots, seed,
                                           solve_fn=solve_fn), False
        if method == "wb":
            return bmod.wild_bootstrap(model, data, beta_hat, boots, seed), False
        return emod.run_bootstrap(model, data, beta_hat, scheme, boots, seed,
                                  solve_fn=solve_fn), False
    except DegenerateRunError as exc:
        return exc.sample, True


# ---------------------------------------------------------------------------
# Experiments

def _replicates(config, model, n_weights, fit, summarize, solve_fn=None):
    """Run every method (block hook ``solve_fn``) on each replicate ``k``, with
    ``fit(k) -> (data, beta_hat)``; returns ``summarize(sample)`` per replicate,
    the fallback rate and the degenerate-run flags, keyed by method. Every
    method name is resolved once, before the first fit."""
    schemes = [_resolve_method(m, model, n_weights) for m in config.methods]
    cells = []
    for k in range(config.sims):
        data, beta_hat = fit(k)
        row = []
        for m_idx, (method, scheme) in enumerate(zip(config.methods, schemes)):
            sample, bad = _method_sample(
                method, scheme, model, data, beta_hat, config.boots,
                child_seed(config.seed, k, 1 + m_idx), solve_fn)
            row.append((summarize(sample), sample.fallback_count, bad))
        cells.append(row)
    per_method = {m: [r[i][0] for r in cells] for i, m in enumerate(config.methods)}
    rates = {m: sum(r[i][1] for r in cells) / (config.sims * config.boots)
             for i, m in enumerate(config.methods)}
    flagged = {m: sum(int(r[i][2]) for r in cells)
               for i, m in enumerate(config.methods)}
    flags = {f"degenerate:{m}": c for m, c in flagged.items() if c}
    return per_method, rates, flags


def _run_ar1(config):
    model = mmod.Ar1Model()
    n = config.n
    sq_devs = []

    def fit(k):
        data = mmod.simulate_ar1(AR1_PHI, AR1_VAR_ODD, AR1_VAR_EVEN, n,
                                 emod.draw_rng(config.seed, k, 0))
        beta_hat = solve_weighted(model, data, np.ones(n), np.array([AR1_PHI])).beta
        sq_devs.append(n * (beta_hat[0] - AR1_PHI) ** 2)
        return data, beta_hat

    per_method, rates, flags = _replicates(
        config, model, n, fit,
        lambda sample: float(emod.variance_estimate(sample, scale=n).v_gbs))

    rows = []
    for method in config.methods:
        vals = np.asarray(per_method[method])
        rows.append({"method": method,
                     "mean_var_est": float(vals.mean()),
                     "var_var_est": float(vals.var(ddof=1)) if len(vals) > 1 else 0.0,
                     "fallback_rate": rates[method]})
    truth = float(np.array(sq_devs).mean())
    rows.append({"method": "truth", "mean_var_est": truth,
                 "var_var_est": 0.0, "fallback_rate": 0.0})
    return ExperimentReport("ar1", "table1", config.seed, config.to_dict(),
                            rows, truth=truth, flags=flags)


def _run_glm(config):
    design = mmod.load_fumigant()
    N = np.asarray(design["N"], int)
    X = np.asarray(design["X"], float)
    n_cases = len(N)
    beta0 = np.asarray(GLM_BETA)
    t_true = beta0[0] + beta0[1] * X
    group_model = mmod.LogisticGroupModel()

    def fit(k):
        data = mmod.simulate_glm(beta0, N, X, emod.draw_rng(config.seed, k, 0))
        beta_hat = solve_weighted(group_model, data, np.ones(n_cases)).beta
        return data, beta_hat

    def summarize(sample):
        t_draws = (sample.betas[:, 0][:, None]
                   + sample.betas[:, 1][:, None] * X[None, :])
        lo, hi = emod.percentile_cis_batch(t_draws, CI_LEVEL)
        return ((lo <= t_true) & (t_true <= hi)).astype(float), hi - lo

    per_method, rates, flags = _replicates(
        config, mmod.LogisticIndividualModel(), int(N.sum()), fit, summarize)

    rows = []
    for method in config.methods:
        coverage = np.sum([c for c, _ in per_method[method]], axis=0)
        lengths = np.sum([length for _, length in per_method[method]], axis=0)
        for case in range(n_cases):
            rows.append({"method": method, "case": case + 1,
                         "logit": float(t_true[case]),
                         "mean_ci_length": float(lengths[case] / config.sims),
                         "coverage_pct": float(100.0 * coverage[case] / config.sims),
                         "fallback_rate": rates[method]})
    return ExperimentReport("glm", "table2", config.seed, config.to_dict(),
                            rows, flags=flags)


def _nls_fit(model, data, weights, start):
    """Weighted least squares inside the box; the flat ridge stops at the wall.

    The second basin of this model is a ridge running to infinity in
    (theta2, theta3, theta4) with the objective decreasing negligibly, so an
    unbounded solver never settles. The box pins ridge fits to a reproducible
    boundary point while leaving the interior optimum untouched.
    """
    # imported here: scipy.optimize costs a fresh process about 0.35 s, and
    # only the nls full-data fit needs it
    from scipy.optimize import least_squares

    sw = np.sqrt(np.asarray(weights, float))
    y = data["y"]

    def resid(th):
        return sw * (y - model.f(data, th))

    def jac(th):
        return -sw[:, None] * model.f_grad(data, th)

    res = least_squares(resid, np.asarray(start, float), jac=jac,
                        bounds=NLS_BOUNDS, method="trf",
                        xtol=1e-12, ftol=1e-12, gtol=1e-12, max_nfev=2000)
    if not (res.success and np.all(np.isfinite(res.x))):
        raise NonConvergenceError("bounded least squares did not converge",
                                  last_beta=res.x, residual_norm=float(res.cost))
    return res.x


def _solve_stack(A, g):
    """Solutions x_k of A_k x_k = g_k over a (B, p, p) stack, and the mask of
    rows solved. ``np.linalg.solve`` rejects a whole stack if one matrix is
    singular, so such a stack is solved row by row and its singular rows are
    left unsolved."""
    x, solved = np.zeros_like(g), np.ones(len(g), bool)
    try:
        return np.linalg.solve(A, g[:, :, None])[:, :, 0], solved
    except np.linalg.LinAlgError:
        pass
    for k in range(len(g)):
        try:
            x[k] = np.linalg.solve(A[k], g[k])
        except np.linalg.LinAlgError:
            solved[k] = False
    return x, solved


def nls_draw_root(model, data, W, anchors):
    """Block root: each draw's one-step refit seeded at its better-fitting known root.

    ``anchors`` holds the primary full-data root and optionally a secondary
    one. Draw b adopts whichever has the smaller weighted objective
    sum_i W[b, i] (y_i - f_i)^2. A draw assigned to the secondary root keeps
    that root unchanged, because iteration from it stalls on the adjacent flat
    ridge rather than converging. A draw assigned to the primary root takes
    one damped Gauss-Newton step from it: the step is halved until the
    objective decreases, at most ``NLS_GN_HALVINGS`` times, and the primary
    is kept if no decrease is found or the step's system is singular. A single
    damped step cannot drift along the model's non-identifiability ridges, so
    draws stay in the basin they were assigned to. A candidate outside the
    model's domain fails its draw with ``EvaluationError``.

    ``data["y"]`` is shared (n,) or drawn (B, n) on a rebuilt block. Returns
    ``(betas, failures, None)``, the ``solve_fn`` block contract.
    """
    W = np.asarray(W, float)
    primary = np.asarray(anchors[0], float)
    betas = np.tile(primary, (len(W), 1))
    failures = np.full(len(W), "", dtype=object)
    F, ok = model.f(data, np.stack(anchors))
    if not ok.all():   # the anchors' domain does not depend on the draw
        failures[:] = EvaluationError.__name__
        return betas, failures, None
    y = np.broadcast_to(data["y"], W.shape)
    r = y - F[0]
    base = np.sum(W * r ** 2, axis=-1)
    picked = np.zeros(len(W), bool)
    if len(anchors) > 1:
        picked = np.sum(W * (y - F[1]) ** 2, axis=-1) < base
        betas[picked] = anchors[1]

    # Gauss-Newton step at the primary root: J and f are shared by every draw
    gn = np.flatnonzero(~picked)
    J = model.f_grad(data, primary)
    A = J.T @ (W[gn, :, None] * J)
    g = (J.T @ (W[gn] * r[gn])[:, :, None])[:, :, 0]
    step, pending = np.zeros_like(betas), np.zeros(len(W), bool)
    step[gn], pending[gn] = _solve_stack(A, g)
    t = 1.0
    for _ in range(NLS_GN_HALVINGS):
        k = np.flatnonzero(pending)
        if k.size == 0:
            break
        cand = np.clip(primary + t * step[k], NLS_BOUNDS[0], NLS_BOUNDS[1])
        F, ok = model.f(data, cand)
        with np.errstate(invalid="ignore"):   # 0 * inf on rows outside the domain
            better = ok & (np.sum(W[k] * (y[k] - F) ** 2, axis=-1) < base[k])
        failures[k[~ok]] = EvaluationError.__name__
        betas[k[better]] = cand[better]
        pending[k[better | ~ok]] = False
        t *= 0.5
    return betas, failures, None


def nls_roots(model, data, weights):
    """Distinct fits from the ``NLS_STARTS`` with their weighted objective
    values; a start whose fit does not converge is skipped."""
    fits = []
    for start in NLS_STARTS:
        try:
            th = _nls_fit(model, data, weights, start)
        except NonConvergenceError:
            continue
        if any(np.linalg.norm(th - t) <= 1e-4 * (1.0 + np.linalg.norm(t))
               for t, _ in fits):
            continue
        fits.append((th, model.objective(data, np.asarray(weights, float), th)))
    if not fits:
        raise EmptyRootSetError("no start converged")
    return fits


def nls_data_digest(data):
    """SHA-256 of the nls arrays H, P, I and y as little-endian float64."""
    # imported here: hashlib loads OpenSSL (about 4 ms and 3.6 MB in a fresh
    # process), and only an nls run checks a digest
    import hashlib

    h = hashlib.sha256()
    for name in ("H", "P", "I", "y"):
        h.update(np.ascontiguousarray(data[name], "<f8").tobytes())
    return h.hexdigest()


def _run_nls(config):
    data = mmod.load_isomerization()
    model = mmod.IsomerizationModel()
    n = data.n
    ones = np.ones(n)
    anchors = [np.array(th) for th in NLS_ANCHORS]

    def fit(k):
        if (digest := nls_data_digest(data)) != NLS_DATA_DIGEST:
            raise ParseError(f"{data.meta}: data digest {digest} is not the "
                             f"{NLS_DATA_DIGEST} that NLS_ANCHORS were fitted to")
        return data, anchors[0]

    def solve_fn(mdl, dat, W, _beta_hat):
        return nls_draw_root(mdl, dat, W, anchors)

    per_method, _, flags = _replicates(config, model, n, fit,
                                       lambda sample: sample.betas, solve_fn)
    beta_hat = anchors[0]
    rows = []
    fit_obj = model.objective(data, ones, beta_hat)
    for j in range(model.p):
        rows.append({"method": "fit", "param": j, "kind": "root",
                     "x_lo": float(beta_hat[j]), "x_hi": float(beta_hat[j]),
                     "value": float(fit_obj)})
    for method in config.methods:
        betas, = per_method[method]
        for j in range(model.p):
            hist = density_histogram(betas[:, j])
            for b in range(len(hist.masses)):
                rows.append({"method": method, "param": j, "kind": "bin",
                             "x_lo": float(hist.edges[b]),
                             "x_hi": float(hist.edges[b + 1]),
                             "value": float(hist.masses[b])})
            for mode, height in zip(hist.modes, hist.mode_heights):
                rows.append({"method": method, "param": j, "kind": "mode",
                             "x_lo": float(mode), "x_hi": float(mode),
                             "value": float(height)})
    return ExperimentReport("nls", "figure1", config.seed, config.to_dict(),
                            rows, flags=flags)


def _condition_factory(name):
    """Scheme factory and n grid for ``jackknife-sqrt`` (d = ceil(sqrt(n)) on
    square n) or a ``parse_scheme`` name; a bad name raises here, up front."""
    if name == "jackknife-sqrt":
        return (lambda n: wmod.delete_d_jackknife(n, math.ceil(math.sqrt(n))),
                SQUARE_GRID)
    wmod.parse_scheme(name, CONDITION_GRID[0])
    return (lambda n: wmod.parse_scheme(name, n)), CONDITION_GRID


def _run_weights_check(config):
    rows = []
    checks = [(name, *_condition_factory(name)) for name in config.methods]
    for s_idx, (name, factory, grid) in enumerate(checks):
        report = wmod.check_conditions(factory, grid,
                                       seed=child_seed(config.seed, s_idx))
        for cond, verdict in (("bw", report.bw), ("cltw", report.cltw),
                              ("vw_a", report.vw_a), ("vw_b", report.vw_b)):
            rows.append({"scheme": name, "condition": cond,
                         "passed": bool(verdict)})
    return ExperimentReport("weights-check", "conditions", config.seed,
                            config.to_dict(), rows)


def run_experiment(config):
    if config.experiment == "ar1":
        return _run_ar1(config)
    if config.experiment == "glm":
        return _run_glm(config)
    if config.experiment == "nls":
        return _run_nls(config)
    return _run_weights_check(config)


# ---------------------------------------------------------------------------
# Histograms and mode detection

SMOOTH_WINDOW = 3
MODE_PROMINENCE = 0.10


@dataclass
class Histogram:
    edges: np.ndarray
    masses: np.ndarray
    smoothed: np.ndarray
    modes: list
    mode_heights: list


def density_histogram(draws):
    """Normalized ``HIST_BINS``-bin histogram with deterministic mode detection.

    Modes are local maxima of the 3-bin moving average that exceed 10% of its
    global maximum; plateau runs count once.
    """
    draws = np.asarray(draws, float).ravel()
    if draws.size < MIN_HIST_DRAWS:
        raise ParameterError(f"need >= {MIN_HIST_DRAWS} draws, got {draws.size}")
    counts, edges = np.histogram(draws, bins=HIST_BINS)
    masses = counts / counts.sum()
    half = SMOOTH_WINDOW // 2
    padded = np.concatenate([np.zeros(half), masses, np.zeros(half)])
    smoothed = np.convolve(padded, np.ones(SMOOTH_WINDOW) / SMOOTH_WINDOW,
                           mode="valid")
    floor = MODE_PROMINENCE * smoothed.max()
    centers = 0.5 * (edges[:-1] + edges[1:])
    modes, heights = [], []
    i = 0
    while i < len(smoothed):
        j = i
        while j + 1 < len(smoothed) and smoothed[j + 1] == smoothed[i]:
            j += 1
        left = smoothed[i - 1] if i > 0 else -1.0
        right = smoothed[j + 1] if j + 1 < len(smoothed) else -1.0
        if smoothed[i] > left and smoothed[i] > right and smoothed[i] > floor:
            peak = i + int(np.argmax(masses[i:j + 1]))
            modes.append(float(centers[peak]))
            heights.append(float(smoothed[i]))
        i = j + 1
    return Histogram(edges, masses, smoothed, modes, heights)


# ---------------------------------------------------------------------------
# Report emission

def _render_cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, str):
        return v
    if v is None:
        return ""
    return f"{float(v):.6g}"


def render_report(report, fmt):
    """Deterministic text rendering; identical config + seed => identical text."""
    if fmt == "json":
        return json.dumps(report.to_dict(), sort_keys=True, indent=1) + "\n"
    if fmt != "csv":
        raise ConfigError(f"unknown format {fmt!r}")
    cols = COLUMNS[report.shape]
    lines = [",".join(cols)]
    for row in report.rows:
        lines.append(",".join(_render_cell(row.get(c)) for c in cols))
    if report.truth is not None:
        lines.append(f"# truth {report.truth:.6g}")
    for key, val in sorted(report.flags.items()):
        lines.append(f"# flag {key}={val}")
    lines.append(f"# seed {report.seed}")
    lines.append("# config " + json.dumps(report.config, sort_keys=True))
    return "\n".join(lines) + "\n"


def emit_report(report, fmt, path=None):
    """Render the report, write it to ``path`` if given; returns the text.

    The file is written in place: opened without ``O_TRUNC``, overwritten from
    its start, then cut to the written length when it is a regular file.
    Truncating an earlier report to zero first would free its disk blocks,
    which can take tens of milliseconds on a filesystem that discards freed
    blocks (ext4 allocates the blocks of a file closed after such a
    truncation, so every rewrite would pay it). The path is followed through
    a symlink and keeps its inode; a device or FIFO (``/dev/null``,
    ``/dev/stdout``) is written as by ``open(path, "w")``. The write is not
    atomic: a crash part-way leaves the new report's head on the old one's
    tail.
    """
    text = render_report(report, fmt)
    if path is not None:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0),
                     0o666)
        with open(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()
    return text
