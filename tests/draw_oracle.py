"""Per-draw reference for the block draw loop.

Every method's input rows were once drawn one draw at a time: ``draw(rng)``
returned draw b's row (weights, resampled residuals or the wild bootstrap's
slot counts) from its own stream ``draw_rng(seed, b)``, and the rows were
stacked. That per-draw code is kept here, written against numpy and the
models only, as the reference that ``engine.resample``'s blocks must equal
byte for byte: ``oracle_rows(draw, seed, n_boot)``.
"""

import numpy as np

from gebs import models as M
from gebs.baselines import WB_BLOCK, WB_DELTA
from gebs.engine import draw_rng


def weight_draw(scheme):
    """One weight vector of ``scheme``'s law per call."""
    n, kind, params = scheme.n, scheme.kind, scheme.params

    def draw(rng):
        if kind in ("multinomial", "moon"):
            trials = params.get("m", n)
            return rng.multinomial(trials, np.full(n, 1.0 / n)) * (n / trials)
        if kind in ("jackknife", "downweight"):
            d = params["d"]
            lo, hi = (0.0, n / (n - d)) if kind == "jackknife" else (d / n, (n + d) / n)
            w = np.full(n, hi)
            w[rng.choice(n, size=d, replace=False)] = lo
            return w
        if kind == "dirichlet":
            g = rng.gamma(params["alpha"], size=n)
            return n * g / g.sum()
        if kind == "uniform":
            return rng.uniform(params["lo"], params["hi"], size=n)
        if kind == "exp":
            return rng.exponential(size=n)
        return np.ones(n)   # constant
    return draw


def residual_draw(model, data, beta_hat):
    """The residual bootstrap's centered residuals, resampled per call."""
    resid, _ = model.residual_resampler(data, beta_hat)
    resid = resid - resid.mean()
    n = len(resid)
    return lambda rng: resid[rng.integers(0, n, size=n)]


def wild_draw(model, data, beta_hat):
    """The wild bootstrap's row per call: standard-normal multipliers for the
    linear and AR(1) models; for grouped binary data the (successes,
    failures) of each covariate cell's synthetic binary responses."""
    if isinstance(model, (M.Ar1Model, M.LinearModel)):
        return lambda rng: rng.standard_normal(data.n)
    y = data["y_ind"]
    t_hat = beta_hat[0] + beta_hat[1] * data["x_ind"]
    p_obs = (y + WB_DELTA) / (1.0 + 2.0 * WB_DELTA)
    r = np.log(p_obs / (1.0 - p_obs)) - t_hat
    order = np.lexsort((y, data["group"]))
    block_id = np.empty(len(y), int)
    block_id[order] = np.arange(len(y)) // WB_BLOCK
    n_blocks = int(block_id.max()) + 1
    xs, cell_of = np.unique(data["x_ind"], return_inverse=True)
    cell = (cell_of[:, None] == np.arange(len(xs))).astype(float)

    def draw(rng):
        u = rng.standard_normal(n_blocks)[block_id]
        p_star = 1.0 / (1.0 + np.exp(-np.clip(t_hat + u * r, -500.0, 500.0)))
        ys = (rng.random(len(y)) < p_star).astype(float)
        return np.concatenate([ys @ cell, (1.0 - ys) @ cell])
    return draw


def oracle_rows(draw, seed, n_boot):
    """Draws 0 .. n_boot - 1, each on its own ``draw_rng(seed, b)``, stacked."""
    return np.stack([draw(draw_rng(seed, b)) for b in range(n_boot)])
