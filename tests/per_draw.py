"""Per-draw block hook for tests.

``per_draw(fn)`` turns a per-draw root function into a ``solve_fn`` block
hook, so tests can run scalar references and failing or recording hooks
through ``run_bootstrap`` and ``residual_bootstrap``.
"""

import numpy as np

from gebs.errors import SOLVER_ERRORS


def per_draw(fn):
    """The block hook that calls ``fn(model, data, w, beta_hat) -> beta`` on
    each row w of the weight block, with that draw's data ``data.take(b)``.

    A solver error (``SOLVER_ERRORS``) marks that draw as a fallback; any
    other exception is a bug and propagates.
    """
    def hook(model, data, W, beta_hat):
        betas, failures = [], []
        for b, w in enumerate(W):
            try:
                beta, failure = fn(model, data.take(b), w, beta_hat), ""
            except SOLVER_ERRORS as exc:
                beta, failure = beta_hat, type(exc).__name__
            betas.append(np.atleast_1d(np.asarray(beta, float)))
            failures.append(failure)
        return np.stack(betas), np.array(failures, dtype=object), None
    return hook
