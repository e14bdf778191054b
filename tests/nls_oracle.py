"""Independent per-draw reference for the block NLS root.

``nls_draw_root`` here is the one-draw-at-a-time version of
``gebs.bench.nls_draw_root``: it compares the two anchors' weighted objectives
for one weight vector and takes one damped Gauss-Newton step from the primary
root with scalar objective calls. It returns the root or raises
``EvaluationError`` from the model, so tests run it through
``per_draw.per_draw`` and compare its samples with the block root's.
"""

import numpy as np

from gebs.bench import NLS_BOUNDS, NLS_GN_HALVINGS


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
