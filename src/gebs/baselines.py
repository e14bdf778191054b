"""Residual-bootstrap (rb) and wild-bootstrap (wb) comparators.

Both rebuild synthetic responses from fitted residuals and refit a whole block
of draws at once. They return the generalized bootstrap's ``BootstrapSample``
with unit weight variance, so the shared variance estimator applies unscaled.
Per draw each takes only its stream's numbers: rb its stream's first
ceil(n / 2) raw words, turned per block into numpy's ``integers(0, n,
size=n)`` (``engine.integers_block``), wb its standard normals (and, for
grouped binary data, its uniforms). ``SUPPORTED`` names the models each
baseline is defined for.
"""

import numpy as np

from . import models as M
from .engine import Draws, fill_raw, integers_block, resample
from .engine import draw_rng  # noqa: F401  (public name; tracers patch it here)
from .errors import SingularSystemError, UnsupportedModelError
from .solver import solve_weighted_batch, well_conditioned
from .solver import solve_weighted  # noqa: F401  (public name; tracers patch it here)

WB_DELTA = 0.001   # wild bootstrap: logit-residual guard for grouped binary data
WB_BLOCK = 2       # wild bootstrap: like-response trials sharing one multiplier

# the model classes each baseline is defined for
SUPPORTED = {
    "rb": (M.Ar1Model, M.LinearModel, M.IsomerizationModel),
    "wb": (M.Ar1Model, M.LinearModel, M.LogisticGroupModel, M.LogisticIndividualModel),
}


def require_support(method, model):
    """Raise ``UnsupportedModelError`` unless baseline ``method`` ("rb" or
    "wb") is defined for ``model``."""
    if not isinstance(model, SUPPORTED[method]):
        raise UnsupportedModelError(f"{method} is undefined for {type(model).__name__}")


def residual_bootstrap(model, data, beta_hat, n_boot, seed, solve_fn=None):
    """Resample centered residuals i.i.d. and refit.

    ``model.residual_resampler`` supplies the residuals and rebuilds a block
    of synthetic datasets from its (B, n) residual matrix: fit + residual for
    regression responses, the AR(1) series recursively from X_0 = 0. Each
    block is refit from ``beta_hat`` with unit weights by ``solve_fn``, which
    has ``run_bootstrap``'s block hook contract and defaults to the batched
    Newton solve (``solve_weighted_batch``); the rebuilt block's ``drawn``
    arrays carry draw b's data in row b.
    """
    require_support("rb", model)
    beta_hat = np.atleast_1d(np.asarray(beta_hat, float))
    resid, rebuild = model.residual_resampler(data, beta_hat)
    resid = resid - resid.mean()
    n = len(resid)
    hook = solve_fn or solve_weighted_batch

    def finish(raw, redraw):
        return resid[integers_block(raw, n, n, redraw)]

    return resample(beta_hat, n_boot, seed, Draws((n + 1) // 2, fill_raw, finish, np.uint64),
                    lambda E: hook(model, rebuild(E), np.ones(E.shape), beta_hat),
                    "residual bootstrap")


def wild_bootstrap(model, data, beta_hat, n_boot, seed):
    """Multiplier-perturbed residual bootstrap.

    Regression responses are rebuilt as fit + U * residual with the observed
    design X held fixed (the lagged series for AR(1)), and a block of draws is
    refit in closed form from the (B, n) standard-normal multiplier matrix U.
    A singular X'X (an all-zero series, a duplicated column, an inf or NaN in
    X) makes every draw fall back with ``SingularSystemError``. Grouped binary
    data uses per-trial logit residuals r_ij = logit((Y_ij + WB_DELTA) / (1 +
    2 WB_DELTA)) - fitted logit, with one standard-normal multiplier per
    ``WB_BLOCK`` like-response trials; the perturbed logit is mapped back to a
    success probability, a synthetic binary response is drawn from it, and the
    logistic fit is recomputed. That refit is a batched reweighted solve over
    the per-trial model's (covariate cell, outcome) ``cell_slots``, built once
    per call: a block of draws is one ``solve_weighted_batch`` call, whose
    ``slots`` lookup finds the slot data reduced already, and the sample
    records Newton steps per draw.
    """
    require_support("wb", model)
    beta_hat = np.atleast_1d(np.asarray(beta_hat, float))

    if isinstance(model, (M.Ar1Model, M.LinearModel)):
        X, y = model.design(data), model.response(data)
        XtX = X.T @ X
        draw = Draws(data.n, lambda rng, row: rng.standard_normal(out=row))

        if well_conditioned(XtX[None])[0]:
            fit = X @ beta_hat
            resid = y - fit

            def solve_block(U):
                betas = np.linalg.solve(XtX, X.T @ (fit + U * resid).T).T
                return betas, np.full(len(U), "", dtype=object), None
        else:   # fit and residuals are never formed: an inf in X would make them NaN
            def solve_block(U):
                return (np.tile(beta_hat, (len(U), 1)),
                        np.full(len(U), SingularSystemError.__name__, dtype=object), None)

    else:   # grouped binary data
        y = data["y_ind"]
        t_hat = beta_hat[0] + beta_hat[1] * data["x_ind"]
        p_obs = (y + WB_DELTA) / (1.0 + 2.0 * WB_DELTA)
        r = np.log(p_obs / (1.0 - p_obs)) - t_hat
        # one multiplier per block of like-response trials within a group;
        # perturbed logits become success probabilities and a synthetic binary
        # response is drawn, so each refit is an ordinary logistic fit
        order = np.lexsort((y, data["group"]))
        block_id = np.empty(len(y), int)
        block_id[order] = np.arange(len(y)) // WB_BLOCK
        n_blocks = int(block_id.max()) + 1
        # the refit is a weighted solve over the per-trial model's slots: a
        # cell's synthetic successes weight its always-success slot and its
        # synthetic failures its always-failure slot
        per_trial = M.LogisticIndividualModel()
        slot_data, G = per_trial.cell_slots(data)
        cell = np.add(*np.hsplit(G, 2))   # one-hot trial -> cell map for binary y
        cell_trials = cell.sum(axis=0)

        def fill(rng, row):
            # a draw's multipliers, then its uniforms for the Bernoulli draws
            rng.standard_normal(out=row[:n_blocks])
            rng.random(out=row[n_blocks:])

        def synthetic_slots(R, redraw):
            # elementwise maps and sums of 0/1 values: exact for any block
            # shape. One buffer holds the expanded multipliers, then the
            # perturbed logits, success probabilities and synthetic responses:
            # a block can hold a whole desk run
            u = R[:, :n_blocks][:, block_id]
            u *= r
            u += t_hat
            np.less(R[:, n_blocks:], M._sigmoid(u, out=u), out=u)
            successes = u @ cell
            return np.hstack([successes, cell_trials - successes])

        draw = Draws(n_blocks + len(y), fill, synthetic_slots)

        def solve_block(V):
            return solve_weighted_batch(per_trial, slot_data, V, beta_hat)

    return resample(beta_hat, n_boot, seed, draw, solve_block, "wild bootstrap")
