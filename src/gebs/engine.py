"""Generalized-bootstrap driver: one resample loop over blocks of draws and its
block solvers, variance and distribution estimates, percentile intervals,
studentized statistics, enumeration oracles."""

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import norm

from . import weights as wmod
from .errors import (SOLVER_ERRORS, DegenerateRunError, InsufficientSampleError,
                     ParameterError)
from .solver import solve_weighted_batch
from .solver import solve_weighted  # noqa: F401  (public name; tracers patch it here)

STATUS_CONVERGED = "converged"
STATUS_FALLBACK = "fallback"
MAX_FALLBACK_FRAC = 0.2
# draws (or support atoms) solved together; bounds the (block, n) working set
BLOCK_DRAWS = 128


def draw_rng(seed, *path):
    """Independent stream for one resample draw; deterministic in (seed, path)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=path))


@dataclass
class BootstrapSample:
    """B resampled estimates plus per-draw status."""

    beta_hat: np.ndarray
    betas: np.ndarray          # (B, p)
    statuses: list
    scheme: object             # WeightScheme, or None for baseline methods
    sigma2: float
    fallback_count: int
    weight_draws: np.ndarray = None   # (B, n) when retained
    iterations: np.ndarray = None     # (B,) Newton steps per draw, batched solves only
    failures: dict = field(default_factory=dict)   # fallback count by error class

    @property
    def n_draws(self):
        return self.betas.shape[0]

    def deltas(self):
        return self.betas - self.beta_hat[None, :]


@dataclass
class VarianceEstimate:
    v_gbs: object              # scalar for p = 1, (p, p) matrix otherwise
    target: str
    mc_stderr: object
    degenerate: bool = False
    fallback_frac: float = 0.0    # share (or probability mass) of draws that fell back


@dataclass
class EmpiricalDistribution:
    """Equal-mass scalar distribution (sorted support)."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.sort(np.asarray(self.values, float))
        if vals.size == 0 or not np.all(np.isfinite(vals)):
            raise ParameterError("empirical distribution needs finite values")
        self.values = vals

    def cdf(self, x):
        return np.searchsorted(self.values, x, side="right") / len(self.values)

    def quantile(self, q):
        return np.quantile(self.values, q)


@dataclass
class StudentizedStats:
    gamma1_hat: float
    gamma2_hat: float
    g_hat: float
    g_hat_b: np.ndarray
    t_n: float
    t_nb: np.ndarray
    undefined: np.ndarray      # mask of draws with degenerate g_hat_b


def resample(beta_hat, n_boot, row, solve_block, label, scheme=None,
             store_rows=False):
    """Draw ``n_boot`` resamples, solve them in blocks and collect the sample.

    ``row(b)`` builds draw b's input vector (weights, multipliers or
    resampled residuals) from its own stream. Blocks of ``BLOCK_DRAWS`` rows,
    stacked into a matrix ``R``, go to ``solve_block(R) -> (betas, failures,
    iterations or None)``, where ``failures`` holds each draw's error class
    ("" if it solved). Failed draws are pinned to ``beta_hat``. ``sigma2`` is
    the scheme's weight variance, or 1 for the baselines (no scheme). More
    than ``MAX_FALLBACK_FRAC`` fallbacks raise ``DegenerateRunError``
    carrying the (still inspectable) sample. ``store_rows`` keeps the rows as
    ``weight_draws``.
    """
    if n_boot < 1:
        raise ParameterError("need n_boot >= 1")
    blocks, kept = [], []
    for start in range(0, n_boot, BLOCK_DRAWS):
        R = np.stack([row(b) for b in range(start, min(start + BLOCK_DRAWS, n_boot))])
        blocks.append(solve_block(R))
        if store_rows:
            kept.append(R)
    betas, failures, iterations = zip(*blocks)
    betas, failures = np.concatenate(betas), np.concatenate(failures)
    iterations = None if iterations[0] is None else np.concatenate(iterations)
    fell = failures != ""
    betas[fell] = beta_hat
    statuses = [STATUS_FALLBACK if f else STATUS_CONVERGED for f in fell]
    fallback = int(np.count_nonzero(fell))
    sigma2 = 1.0 if scheme is None else wmod.theoretical_moments(scheme).sigma2
    sample = BootstrapSample(beta_hat, betas, statuses, scheme, sigma2, fallback,
                             np.concatenate(kept) if store_rows else None, iterations,
                             dict(sorted(Counter(failures[fell]).items())))
    if fallback > MAX_FALLBACK_FRAC * n_boot:
        raise DegenerateRunError(
            f"{label}: {fallback}/{n_boot} resamples fell back to the "
            "full-data root", sample=sample)
    return sample


def newton_block(model, data, beta_hat, options=None):
    """Block solver: the batched Newton solve of each weight row from ``beta_hat``."""
    def solve_block(W):
        sol = solve_weighted_batch(model, data, W, beta_hat, options)
        return sol.betas, sol.failures, sol.iterations
    return solve_block


def per_draw(beta_hat, one):
    """Block solver that calls the per-draw ``one(row) -> beta`` on each row of R.

    A solver error (``SOLVER_ERRORS``) marks that draw as a fallback; any
    other exception is a bug and propagates. The only place where a draw's
    solver error is caught.
    """
    def solve_block(R):
        betas, failures = [], []
        for r in R:
            try:
                beta, failure = one(r), ""
            except SOLVER_ERRORS as exc:
                beta, failure = beta_hat, type(exc).__name__
            betas.append(np.atleast_1d(np.asarray(beta, float)))
            failures.append(failure)
        return np.stack(betas), np.array(failures, dtype=object), None
    return solve_block


def run_bootstrap(model, data, beta_hat, scheme, n_boot, seed,
                  solve_fn=None, store_weights=True, options=None):
    """Draw ``n_boot`` weight vectors and solve the reweighted equations.

    Non-converged draws fall back to ``beta_hat`` and are counted; a run with
    more than ``MAX_FALLBACK_FRAC`` fallbacks raises ``DegenerateRunError``
    carrying the (still inspectable) sample.

    ``solve_fn(model, data, w, beta_hat) -> beta`` replaces the default batched
    solve from ``beta_hat``; it is called once per draw, and a solver error
    (``SOLVER_ERRORS``) it raises makes that draw fall back.
    """
    beta_hat = np.atleast_1d(np.asarray(beta_hat, float))
    if solve_fn is None:
        solve_block = newton_block(model, data, beta_hat, options)
    else:
        solve_block = per_draw(beta_hat, lambda w: solve_fn(model, data, w, beta_hat))
    return resample(beta_hat, n_boot, lambda b: wmod.sample(scheme, draw_rng(seed, b)),
                    solve_block, "generalized bootstrap", scheme, store_weights)


def variance_estimate(sample, scale=1.0):
    """Monte Carlo resampling variance, scaled by 1/sigma_n^2.

    Fallback draws contribute exactly zero by construction; ``fallback_frac``
    reports their share. ``scale`` multiplies the estimate (pass n to target
    the sqrt(n)-scaled variance).
    """
    if sample.n_draws < 2:
        raise InsufficientSampleError("need at least 2 draws")
    if sample.sigma2 <= 0:
        p = len(sample.beta_hat)
        zero = 0.0 if p == 1 else np.zeros((p, p))
        return VarianceEstimate(zero, "degenerate scheme (sigma_n^2 = 0)",
                                zero, degenerate=True)
    deltas = sample.deltas()
    B = sample.n_draws
    factor = scale / sample.sigma2
    degenerate = sample.fallback_count == B
    if deltas.shape[1] == 1:
        sq = factor * deltas[:, 0] ** 2
        return VarianceEstimate(float(sq.mean()),
                                "variance of beta_hat (x scale)",
                                float(sq.std(ddof=1) / math.sqrt(B)),
                                degenerate=degenerate,
                                fallback_frac=sample.fallback_count / B)
    outer = factor * deltas[:, :, None] * deltas[:, None, :]
    return VarianceEstimate(outer.mean(axis=0),
                            "covariance of beta_hat (x scale)",
                            outer.std(axis=0, ddof=1) / math.sqrt(B),
                            degenerate=degenerate,
                            fallback_frac=sample.fallback_count / B)


def exact_variance_enumeration(model, data, beta_hat, scheme, scale=1.0,
                               options=None, max_atoms=10 ** 6):
    """Resampling variance as an exact expectation over the scheme's support.

    Atoms whose solve fails contribute zero; ``fallback_frac`` is their
    probability mass.
    """
    beta_hat = np.atleast_1d(np.asarray(beta_hat, float))
    mom = wmod.theoretical_moments(scheme)
    p = len(beta_hat)
    if mom.sigma2 <= 0:
        zero = 0.0 if p == 1 else np.zeros((p, p))
        return VarianceEstimate(zero, "degenerate scheme (sigma_n^2 = 0)",
                                zero, degenerate=True)
    acc = np.zeros((p, p))
    failed_mass = 0.0
    atoms = wmod.iter_support(scheme, max_atoms=max_atoms)
    while block := list(itertools.islice(atoms, BLOCK_DRAWS)):
        W = np.stack([w for w, _ in block])
        probs = np.array([prob for _, prob in block])
        sol = solve_weighted_batch(model, data, W, beta_hat, options)
        ok = sol.converged   # definitional fallback contributes zero
        d = sol.betas[ok] - beta_hat
        acc += (probs[ok, None] * d).T @ d
        failed_mass += float(np.sum(probs[~ok]))
    v = scale / mom.sigma2 * acc
    zero = 0.0 if p == 1 else np.zeros((p, p))
    return VarianceEstimate(float(v[0, 0]) if p == 1 else v,
                            "exact enumeration variance", zero,
                            fallback_frac=failed_mass)


def empirical_distribution(model, data, sample, contrast=None):
    """Plug-in normalized bootstrap distribution of the resampled estimates.

    For p = 1 the scaling is sqrt(|sum_i phi_1ni(beta_hat)|) / sigma_n; for
    p > 1 a unit contrast vector projects through the plug-in studentizer.
    """
    beta_hat = sample.beta_hat
    p = len(beta_hat)
    if sample.sigma2 <= 0:
        raise ParameterError("degenerate scheme has no distribution estimate")
    J_total = np.sum(model.jacobian_all(data, beta_hat), axis=0)
    deltas = sample.deltas()
    if p == 1:
        s = math.sqrt(abs(float(J_total[0, 0])))
        vals = s / math.sqrt(sample.sigma2) * deltas[:, 0]
        return EmpiricalDistribution(vals)
    if contrast is None:
        raise ParameterError("p > 1 needs a contrast vector")
    c = np.asarray(contrast, float)
    if abs(np.linalg.norm(c) - 1.0) > 1e-8:
        raise ParameterError("contrast must have unit norm")
    scores = model.score_all(data, beta_hat)
    v = np.linalg.solve(J_total, c)
    s_hat2 = float(v @ (scores.T @ scores) @ v)
    vals = (deltas @ c) / (math.sqrt(s_hat2) * math.sqrt(sample.sigma2))
    return EmpiricalDistribution(vals)


def percentile_ci(draws, level, transform=None):
    """Equal-tail percentile interval using the (B+1) order-statistic rule."""
    vals = np.asarray(draws, float).ravel()
    if transform is not None:
        vals = np.asarray([transform(v) for v in vals], float)
    lo, hi = percentile_cis_batch(vals[:, None], level)
    return float(lo[0]), float(hi[0])


def percentile_cis_batch(draw_matrix, level):
    """Equal-tail intervals column-by-column; vectorized order-statistic rule."""
    if not 0 < level < 1:
        raise ParameterError("level must be in (0, 1)")
    vals = np.sort(np.asarray(draw_matrix, float), axis=0)
    B = vals.shape[0]
    if B < 10:
        raise InsufficientSampleError(f"need >= 10 draws, got {B}")
    alpha = 1.0 - level
    k_lo = max(1, math.ceil((B + 1) * alpha / 2.0))
    k_hi = min(B, math.floor((B + 1) * (1.0 - alpha / 2.0)))
    return vals[k_lo - 1], vals[k_hi - 1]


def studentized_stats(model, data, beta_hat, sample, beta0=None):
    """Bias-corrected studentized pivot and its per-draw bootstrap analogs."""
    beta_hat = np.atleast_1d(np.asarray(beta_hat, float))
    if len(beta_hat) != 1:
        raise ParameterError("studentized statistics require p = 1")
    if sample.weight_draws is None:
        raise ParameterError("sample must retain weight draws")
    n = model.weight_count(data)
    scores = model.score_all(data, beta_hat)[:, 0]
    gamma1 = float(np.sum(model.jacobian_all(data, beta_hat)[:, 0, 0])) / n
    gamma2 = float(np.sum(model.hessian_all(data, beta_hat)[:, 0, 0, 0])) / n
    g_hat = math.sqrt(float(np.mean(scores ** 2)))
    sigma = math.sqrt(sample.sigma2)
    if sigma == 0:
        raise ParameterError("degenerate scheme: all standardized weights are zero")

    W = (sample.weight_draws - 1.0) / sigma
    g_hat_b = np.sqrt(np.mean(W ** 2 * scores[None, :] ** 2, axis=1))
    undefined = g_hat_b <= 0

    v_gbs = variance_estimate(sample).v_gbs
    t_n = math.nan
    if beta0 is not None:
        t_n = (gamma1 / g_hat * math.sqrt(n) * (beta_hat[0] - float(beta0))
               - 0.5 / math.sqrt(n) * gamma2 * v_gbs / (gamma1 ** 2 * g_hat))

    z = math.sqrt(n) / sigma * sample.deltas()[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_nb = (gamma1 * z / g_hat_b
                + 0.5 / math.sqrt(n) * sigma * gamma2 * z ** 2 / g_hat_b)
    t_nb[undefined] = np.nan
    return StudentizedStats(gamma1, gamma2, g_hat, g_hat_b, t_n, t_nb, undefined)


def ks_distance(a, b="normal"):
    """Sup distance between empirical CDFs, or against the standard normal."""
    if isinstance(a, EmpiricalDistribution):
        a = a.values
    a = np.sort(np.asarray(a, float))
    na = a.size
    if na == 0:
        raise ParameterError("first sample is empty")
    if isinstance(b, str):
        if b != "normal":
            raise ParameterError(f"unknown reference distribution {b!r}")
        cdf = norm.cdf(a)
        hi = np.arange(1, na + 1) / na - cdf
        lo = cdf - np.arange(0, na) / na
        return float(max(hi.max(), lo.max()))
    if isinstance(b, EmpiricalDistribution):
        b = b.values
    b = np.sort(np.asarray(b, float))
    if b.size == 0:
        raise ParameterError("second sample is empty")
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / na
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))
