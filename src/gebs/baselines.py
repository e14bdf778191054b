"""Residual-bootstrap and wild-bootstrap comparators.

Both rebuild synthetic responses from fitted residuals and refit, returning
the same BootstrapSample record as the generalized bootstrap (with unit
weight variance, so the shared variance estimator applies unscaled).
"""

from dataclasses import dataclass

import numpy as np

from . import models as M
from .engine import (BootstrapSample, DegenerateRunError, MAX_FALLBACK_FRAC,
                     STATUS_CONVERGED, STATUS_FALLBACK, draw_rng)
from .errors import SOLVER_ERRORS, ParameterError, UnsupportedModelError
from .solver import SolveOptions, solve_weighted


@dataclass
class BaselineSpec:
    multiplier: str = "normal"   # "normal" | "zero" (degenerate, for testing)
    delta: float = 0.001         # logit-residual guard for grouped binary data
    block: int = 2               # like-response trials sharing one multiplier

    def __post_init__(self):
        if self.delta <= 0:
            raise ParameterError("delta must be > 0")
        if self.block < 1:
            raise ParameterError("block must be >= 1")
        if self.multiplier not in ("normal", "zero"):
            raise ParameterError(f"unknown multiplier {self.multiplier!r}")

    def draw_multipliers(self, rng, size):
        if self.multiplier == "zero":
            return np.zeros(size)
        return rng.standard_normal(size)


def _finish(beta_hat, results, method):
    betas = np.stack([r[0] for r in results])
    statuses = [r[1] for r in results]
    fallback = statuses.count(STATUS_FALLBACK)
    sample = BootstrapSample(np.atleast_1d(np.asarray(beta_hat, float)), betas,
                             statuses, None, 1.0, fallback)
    if fallback > MAX_FALLBACK_FRAC * len(results):
        raise DegenerateRunError(
            f"{method}: {fallback}/{len(results)} refits failed", sample=sample)
    return sample


def _refit(model, data, init):
    opts = SolveOptions(init=np.atleast_1d(np.asarray(init, float)))
    try:
        sol = solve_weighted(model, data, np.ones(model.weight_count(data)), opts)
        return sol.beta, STATUS_CONVERGED
    except SOLVER_ERRORS:
        return np.atleast_1d(np.asarray(init, float)).copy(), STATUS_FALLBACK


def residual_bootstrap(model, data, beta_hat, n_boot, seed, refit=None):
    """Resample centered residuals i.i.d. and refit.

    ``model.residual_resampler`` supplies the residuals and rebuilds each
    synthetic dataset: fit + resampled residual for regression responses, the
    AR(1) series recursively from X_0 = 0. ``refit(model, data, init)``
    overrides the default Newton refit and must return (beta, status).
    """
    beta_hat = np.atleast_1d(np.asarray(beta_hat, float))
    refit = refit or _refit
    resid, rebuild = model.residual_resampler(data, beta_hat)
    resid = resid - resid.mean()
    results = []
    for b in range(n_boot):
        e = draw_rng(seed, b).choice(resid, size=len(resid))
        results.append(refit(model, rebuild(e), beta_hat))
    return _finish(beta_hat, results, "residual bootstrap")


def wild_bootstrap(model, data, beta_hat, n_boot, seed, spec=None):
    """Multiplier-perturbed residual bootstrap.

    Regression responses are rebuilt as fit + U * residual with the observed
    design held fixed. Grouped binary data uses per-trial logit residuals
    r_ij = logit((Y_ij + delta) / (1 + 2 delta)) - fitted logit; the perturbed
    logit is mapped back to a success probability, a synthetic binary response
    is drawn from it, and the logistic fit is recomputed.
    """
    spec = spec or BaselineSpec()
    beta_hat = np.atleast_1d(np.asarray(beta_hat, float))

    if isinstance(model, M.Ar1Model):
        x = data["x"]
        lag = x[:-1]
        resid = x[1:] - beta_hat[0] * lag
        fit = beta_hat[0] * lag
        denom = float(np.sum(lag ** 2))
        if denom <= 0:
            raise UnsupportedModelError("wild bootstrap needs a nondegenerate series")

        def one(b):
            u = spec.draw_multipliers(draw_rng(seed, b), data.n)
            ys = fit + u * resid
            beta = np.array([float(np.sum(lag * ys)) / denom])
            return beta, STATUS_CONVERGED

        return _finish(beta_hat, [one(b) for b in range(n_boot)], "wild bootstrap")

    if isinstance(model, M.LinearModel):
        fit = data["X"] @ beta_hat
        resid = data["y"] - fit
        X = data["X"]
        XtX = X.T @ X

        def one(b):
            u = spec.draw_multipliers(draw_rng(seed, b), data.n)
            ys = fit + u * resid
            beta = np.linalg.solve(XtX, X.T @ ys)
            return beta, STATUS_CONVERGED

        return _finish(beta_hat, [one(b) for b in range(n_boot)], "wild bootstrap")

    if isinstance(model, (M.LogisticGroupModel, M.LogisticIndividualModel)):
        y = data["y_ind"]
        x = data["x_ind"]
        group = data["group"]
        t_hat = beta_hat[0] + beta_hat[1] * x
        p_obs = (y + spec.delta) / (1.0 + 2.0 * spec.delta)
        r = np.log(p_obs / (1.0 - p_obs)) - t_hat
        # one multiplier per block of like-response trials within a group;
        # perturbed logits become success probabilities and a synthetic binary
        # response is drawn, so each refit is an ordinary logistic fit
        order = np.lexsort((y, group))
        block_id = np.empty(len(y), int)
        block_id[order] = np.arange(len(y)) // spec.block
        n_blocks = int(block_id.max()) + 1
        ind = M.LogisticIndividualModel()
        ones = np.ones(len(y))
        opts = SolveOptions(init=beta_hat)

        def one(b):
            rng = draw_rng(seed, b)
            u = spec.draw_multipliers(rng, n_blocks)[block_id]
            p_star = 1.0 / (1.0 + np.exp(-np.clip(t_hat + u * r, -500.0, 500.0)))
            ys = (rng.random(len(y)) < p_star).astype(float)
            boot = M.Dataset(n=data.n, meta="wb",
                             arrays={**data.arrays, "y_ind": ys})
            try:
                sol = solve_weighted(ind, boot, ones, opts)
                return sol.beta, STATUS_CONVERGED
            except SOLVER_ERRORS:
                return beta_hat.copy(), STATUS_FALLBACK

        return _finish(beta_hat, [one(b) for b in range(n_boot)], "wild bootstrap")

    raise UnsupportedModelError(
        f"wild bootstrap undefined for {type(model).__name__}")
