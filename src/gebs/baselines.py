"""Residual-bootstrap and wild-bootstrap comparators.

Both rebuild synthetic responses from fitted residuals and refit, returning
the same BootstrapSample record as the generalized bootstrap (with unit
weight variance, so the shared variance estimator applies unscaled).
"""

from dataclasses import dataclass

import numpy as np

from . import models as M
from .engine import draw_rng, finish_sample, per_draw
from .errors import ParameterError, SingularSystemError, UnsupportedModelError
from .solver import COND_LIMIT, SolveOptions, solve_weighted


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


def _refit(model, data, w, init):
    """Default refit: Newton from ``init``; a solver error makes the draw fall back."""
    return solve_weighted(model, data, w, SolveOptions(init=init)).beta


def residual_bootstrap(model, data, beta_hat, n_boot, seed, solve_fn=None):
    """Resample centered residuals i.i.d. and refit.

    ``model.residual_resampler`` supplies the residuals and rebuilds each
    synthetic dataset: fit + resampled residual for regression responses, the
    AR(1) series recursively from X_0 = 0. ``solve_fn(model, data, w,
    beta_hat) -> beta`` overrides the default Newton refit with
    ``run_bootstrap``'s hook contract; it receives unit weights.
    """
    beta_hat = np.atleast_1d(np.asarray(beta_hat, float))
    solve_fn = solve_fn or _refit
    resid, rebuild = model.residual_resampler(data, beta_hat)
    resid = resid - resid.mean()
    ones = np.ones(model.weight_count(data))

    def one(b):
        e = draw_rng(seed, b).choice(resid, size=len(resid))
        return solve_fn(model, rebuild(e), ones, beta_hat)

    betas, failures = per_draw(beta_hat, n_boot, one)
    return finish_sample(beta_hat, betas, failures, "residual bootstrap")


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
            return np.array([float(np.sum(lag * ys)) / denom])

    elif isinstance(model, M.LinearModel):
        fit = data["X"] @ beta_hat
        resid = data["y"] - fit
        X = data["X"]
        XtX = X.T @ X
        singular = np.linalg.cond(XtX) > COND_LIMIT

        def one(b):
            if singular:
                raise SingularSystemError("wild bootstrap: X'X is ill-conditioned")
            u = spec.draw_multipliers(draw_rng(seed, b), data.n)
            ys = fit + u * resid
            return np.linalg.solve(XtX, X.T @ ys)

    elif isinstance(model, (M.LogisticGroupModel, M.LogisticIndividualModel)):
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

        def one(b):
            rng = draw_rng(seed, b)
            u = spec.draw_multipliers(rng, n_blocks)[block_id]
            p_star = 1.0 / (1.0 + np.exp(-np.clip(t_hat + u * r, -500.0, 500.0)))
            ys = (rng.random(len(y)) < p_star).astype(float)
            boot = M.Dataset(n=data.n, meta="wb",
                             arrays={**data.arrays, "y_ind": ys})
            return _refit(ind, boot, ones, beta_hat)

    else:
        raise UnsupportedModelError(
            f"wild bootstrap undefined for {type(model).__name__}")
    betas, failures = per_draw(beta_hat, n_boot, one)
    return finish_sample(beta_hat, betas, failures, "wild bootstrap")
