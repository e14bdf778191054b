"""Residual-bootstrap and wild-bootstrap comparators.

Both rebuild synthetic responses from fitted residuals and refit, returning
the same BootstrapSample record as the generalized bootstrap (with unit
weight variance, so the shared variance estimator applies unscaled).
"""

from dataclasses import dataclass

import numpy as np

from . import models as M
from .engine import draw_rng, newton_block, per_draw, resample
from .errors import ParameterError, SingularSystemError, UnsupportedModelError
from .solver import COND_LIMIT, SolveOptions, require_int, solve_weighted


@dataclass
class BaselineSpec:
    multiplier: str = "normal"   # "normal" | "zero" (degenerate, for testing)
    delta: float = 0.001         # logit-residual guard for grouped binary data
    block: int = 2               # like-response trials sharing one multiplier

    def __post_init__(self):
        if not self.delta > 0:
            raise ParameterError(f"delta must be > 0, got {self.delta!r}")
        require_int("block", self.block, 1)
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

    def row(b):
        return draw_rng(seed, b).choice(resid, size=len(resid))

    def refit(e):
        return solve_fn(model, rebuild(e), ones, beta_hat)

    return resample(beta_hat, n_boot, row, per_draw(beta_hat, refit),
                    "residual bootstrap")


def wild_bootstrap(model, data, beta_hat, n_boot, seed, spec=None):
    """Multiplier-perturbed residual bootstrap.

    Regression responses are rebuilt as fit + U * residual with the observed
    design X held fixed (the lagged series for AR(1)), and a block of draws is
    refit in closed form from the (B, n) multiplier matrix U. A singular X'X
    (an all-zero series, a duplicated column) makes every draw fall back with
    ``SingularSystemError``. Grouped binary data uses per-trial logit residuals
    r_ij = logit((Y_ij + delta) / (1 + 2 delta)) - fitted logit; the perturbed
    logit is mapped back to a success probability, a synthetic binary response
    is drawn from it, and the logistic fit is recomputed. That refit is a
    batched reweighted solve over (covariate cell, outcome) slots, so blocks
    of draws share one ``solve_weighted_batch`` call and the sample records
    Newton steps per draw.
    """
    spec = spec or BaselineSpec()
    beta_hat = np.atleast_1d(np.asarray(beta_hat, float))

    if isinstance(model, (M.Ar1Model, M.LinearModel)):
        X, y = model.design(data), model.response(data)
        fit = X @ beta_hat
        resid = y - fit
        XtX = X.T @ X
        singular = np.linalg.cond(XtX) > COND_LIMIT

        def row(b):
            return spec.draw_multipliers(draw_rng(seed, b), data.n)

        def solve_block(U):
            B = len(U)
            if singular:
                return (np.tile(beta_hat, (B, 1)),
                        np.full(B, SingularSystemError.__name__, dtype=object), None)
            betas = np.linalg.solve(XtX, X.T @ (fit + U * resid).T).T
            return betas, np.full(B, "", dtype=object), None

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
        # the per-trial score sum_i (y*_i - P(x_i)) D_i equals the weighted
        # score over two slots per covariate cell: an always-success slot
        # weighted by the cell's synthetic successes S and an always-failure
        # slot weighted by its failures n - S
        xs, cell = np.unique(x, return_inverse=True)
        trials = np.bincount(cell)
        slots = M.Dataset(n=2 * len(xs), meta="wb", arrays={
            "X": np.concatenate([xs, xs]), "N": np.ones(2 * len(xs)),
            "Y": np.concatenate([np.ones(len(xs)), np.zeros(len(xs))])})

        def row(b):
            rng = draw_rng(seed, b)
            u = spec.draw_multipliers(rng, n_blocks)[block_id]
            p_star = 1.0 / (1.0 + np.exp(-np.clip(t_hat + u * r, -500.0, 500.0)))
            ys = (rng.random(len(y)) < p_star).astype(float)
            S = np.bincount(cell, weights=ys)
            return np.concatenate([S, trials - S])

        solve_block = newton_block(M.LogisticGroupModel(), slots, beta_hat)

    else:
        raise UnsupportedModelError(
            f"wild bootstrap undefined for {type(model).__name__}")
    return resample(beta_hat, n_boot, row, solve_block, "wild bootstrap")
