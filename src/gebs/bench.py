"""Experiment drivers with scaled-down defaults and bit-stable reports.

Each experiment simulates (or loads) data, fits the full-data estimate, runs
the configured resampling methods, and aggregates into a fixed report shape:
variance-summary rows, confidence-interval coverage rows, histogram rows, or
weight-condition verdict rows.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import least_squares

from . import baselines as bmod
from . import engine as emod
from . import models as mmod
from . import weights as wmod
from .errors import (ConfigError, DegenerateRunError, EmptyRootSetError,
                     NonConvergenceError, ParameterError)
from .solver import SolveOptions, solve_weighted

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
HIST_BINS = 30

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
        defaults = (PAPER_SCALE if self.scale == "paper" else DESK_SCALE)[self.experiment]
        if self.sims is None:
            self.sims = defaults[0]
        if self.boots is None:
            self.boots = defaults[1]
        if self.n is None:
            self.n = DEFAULT_N[self.experiment]
        if self.methods is None:
            self.methods = DEFAULT_METHODS[self.experiment]
        self.methods = tuple(self.methods)
        if self.sims < 1:
            raise ConfigError("sims must be >= 1")
        if self.boots < 10:
            raise ConfigError("boots must be >= 10")
        if self.n < 2:
            raise ConfigError("n must be >= 2")
        if not self.methods:
            raise ConfigError("need at least one method")
        self.seed = int(self.seed)
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

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


def _method_sample(method, model, data, beta_hat, boots, seed, n_weights,
                   solve_fn=None):
    """Run one resampling method; degenerate runs return a flagged sample."""
    try:
        if method == "rb":
            return bmod.residual_bootstrap(model, data, beta_hat, boots, seed,
                                           solve_fn=solve_fn), False
        if method == "wb":
            return bmod.wild_bootstrap(model, data, beta_hat, boots, seed), False
        if method.startswith("gbs-"):
            scheme = wmod.parse_scheme(method[4:], n_weights)
            return emod.run_bootstrap(model, data, beta_hat, scheme, boots, seed,
                                      solve_fn=solve_fn, store_weights=False), False
    except DegenerateRunError as exc:
        return exc.sample, True
    raise ConfigError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# Experiments

def _replicates(config, model, n_weights, fit, summarize):
    """Run every method on each replicate ``k``, with ``fit(k) -> (data,
    beta_hat)``; returns ``summarize(sample)`` per replicate, the
    fallback rate and the degenerate-run flags, keyed by method."""
    cells = []
    for k in range(config.sims):
        data, beta_hat = fit(k)
        row = []
        for m_idx, method in enumerate(config.methods):
            sample, bad = _method_sample(
                method, model, data, beta_hat, config.boots,
                child_seed(config.seed, k, 1 + m_idx), n_weights)
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
        beta_hat = solve_weighted(model, data, np.ones(n),
                                  SolveOptions(init=np.array([AR1_PHI]))).beta
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
        beta_hat = solve_weighted(group_model, data, np.ones(n_cases),
                                  SolveOptions(init=np.zeros(2))).beta
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


def _gn_step(model, data, weights, start, halvings=NLS_GN_HALVINGS):
    """One damped Gauss-Newton step of the weighted least-squares problem.

    The step is halved until the weighted sum of squares decreases; if no
    decrease is found the start is returned unchanged. A single damped step
    cannot drift along the model's non-identifiability ridges, so draws stay
    in the basin they were assigned to.
    """
    th = np.asarray(start, float).copy()
    w = np.asarray(weights, float)
    J = model.f_grad(data, th)
    r = data["y"] - model.f(data, th)
    A = J.T @ (w[:, None] * J)
    g = J.T @ (w * r)
    try:
        step = np.linalg.solve(A, g)
    except np.linalg.LinAlgError:
        return th
    base = model.objective(data, w, th)
    t = 1.0
    for _ in range(halvings):
        cand = np.clip(th + t * step, NLS_BOUNDS[0], NLS_BOUNDS[1])
        if model.objective(data, w, cand) < base:
            return cand
        t *= 0.5
    return th


def nls_draw_root(model, data, weights, anchors):
    """Per-draw root: one-step refit seeded at the better-fitting known root.

    The draw adopts whichever full-data root has the smaller weighted
    objective for this resample. A draw assigned to the primary root is
    refined by one damped Gauss-Newton step; a draw assigned to the secondary
    root keeps that root unchanged, because iteration from it stalls on the
    adjacent flat ridge rather than converging.
    """
    w = np.asarray(weights, float)
    primary, secondary = anchors[0], anchors[1]
    if model.objective(data, w, secondary) < model.objective(data, w, primary):
        return np.asarray(secondary, float).copy()
    return _gn_step(model, data, w, primary)


def nls_roots(model, data, weights, starts=NLS_STARTS):
    """Distinct fits over the start set with their weighted objective values."""
    fits = []
    for start in starts:
        th = _nls_fit(model, data, weights, start)
        if any(np.linalg.norm(th - t) <= 1e-4 * (1.0 + np.linalg.norm(t))
               for t, _ in fits):
            continue
        fits.append((th, model.objective(data, np.asarray(weights, float), th)))
    if not fits:
        raise EmptyRootSetError("no start converged")
    return fits


def _run_nls(config):
    data = mmod.load_isomerization()
    model = mmod.IsomerizationModel()
    n = data.n
    ones = np.ones(n)
    fits = sorted(nls_roots(model, data, ones), key=lambda f: f[1])
    anchors = tuple(th for th, _ in fits)
    beta_hat = anchors[0]

    def solve_fn(mdl, dat, w, _beta_hat):
        return nls_draw_root(mdl, dat, w, anchors)

    rows = []
    fit_obj = model.objective(data, ones, beta_hat)
    for j in range(model.p):
        rows.append({"method": "fit", "param": j, "kind": "root",
                     "x_lo": float(beta_hat[j]), "x_hi": float(beta_hat[j]),
                     "value": float(fit_obj)})

    flags = {}
    for m_idx, method in enumerate(config.methods):
        sample, bad = _method_sample(
            method, model, data, beta_hat, config.boots,
            child_seed(config.seed, 0, 1 + m_idx), n, solve_fn=solve_fn)
        if bad:
            flags[f"degenerate:{method}"] = 1
        for j in range(model.p):
            hist = density_histogram(sample.betas[:, j], bins=HIST_BINS)
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
    if name == "multinomial":
        return wmod.multinomial, CONDITION_GRID
    if name == "jackknife-sqrt":
        return (lambda n: wmod.delete_d_jackknife(n, math.ceil(math.sqrt(n))),
                SQUARE_GRID)
    if name == "uniform":
        return (lambda n: wmod.iid_uniform(n, 0.5, 1.5)), CONDITION_GRID
    if name == "exp":
        return wmod.iid_exponential, CONDITION_GRID
    if name.startswith("dirichlet:"):
        alpha = float(name.split(":", 1)[1].replace("alpha=", ""))
        return (lambda n: wmod.dirichlet(n, alpha)), CONDITION_GRID
    raise ConfigError(f"unknown scheme for weights-check: {name!r}")


def _run_weights_check(config):
    rows = []
    for s_idx, name in enumerate(config.methods):
        factory, grid = _condition_factory(name)
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


def density_histogram(draws, bins=HIST_BINS):
    """Normalized histogram with deterministic mode detection.

    Modes are local maxima of the 3-bin moving average that exceed 10% of its
    global maximum; plateau runs count once.
    """
    draws = np.asarray(draws, float).ravel()
    if draws.size < 50:
        raise ParameterError(f"need >= 50 draws, got {draws.size}")
    if bins < 10:
        raise ParameterError("need bins >= 10")
    counts, edges = np.histogram(draws, bins=bins)
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
    """Render and optionally write the report; returns the rendered text."""
    text = render_report(report, fmt)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
