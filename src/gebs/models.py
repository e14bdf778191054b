"""Estimating-equation models: per-observation scores, derivatives, simulators.

A model evaluates a vector score phi_i(beta) for each of its weight slots,
together with the analytic Jacobian (d phi / d beta, one p x p matrix per
slot, row a = gradient of component a). Everything is vectorized over slots.

For the batched solver a model also evaluates the weighted score and Jacobian
of B reweighted systems at once: ``weighted_score_batch(data, W, betas)`` maps
a (B, n) weight matrix and (B, p) parameters to (B, p) scores, and
``weighted_jacobian_batch`` to (B, p, p) Jacobians. A row whose parameter is
not finite, or whose evaluation raises ``EvaluationError``, is NaN. The base
class builds both row by row from ``score_all`` and ``jacobian_all``; the
single-index models (``IndexModel``) write all four evaluations once, as array
algebra over a design matrix. On shared data the solver first applies
``slots(data)``, once per block, unless it is None: ``(slot_data, G)`` such
that weights W solve as ``W @ G`` on fewer slots ``slot_data``; the per-trial
logistic model keeps an always-success and an always-failure slot per
covariate cell when there are fewer of them than trials.

For the residual bootstrap a model says how its data is regenerated from
errors: ``residual_resampler(data, beta)`` returns the residuals at ``beta``
and ``rebuild(E)``, which turns a (B, n) block of resampled residuals into
one Dataset whose ``drawn`` arrays carry a leading draw axis; the batch
methods read draw b's data through ``Dataset.take``.
"""

import csv
import importlib.resources
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EvaluationError, ParseError, ShapeError, UnsupportedModelError

LOGIT_CLAMP = 500.0  # exponent clamp; extreme resample weights can push |t| huge
ISO_SCALE = 1.632    # stoichiometric constant in the isomerization rate model


def _sigmoid(t, out=None):
    # in place: a large temporary that the allocator hands back to the OS is
    # page-faulted in again on the next call, which dominates a (B, n) batch;
    # ``out`` (which may be ``t``) spares even the one buffer. The clamp is
    # np.clip's, NaN, inf and -0.0 included, without its wrapper's cost
    e = np.maximum(t, -LOGIT_CLAMP, out=out)
    np.minimum(e, LOGIT_CLAMP, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    e += 1.0
    return np.divide(1.0, e, out=e)


def _response_resampler(data, fit):
    """Residual resampler for data whose response ``y`` is ``fit`` plus error."""
    def rebuild(E):
        return Dataset(n=data.n, meta="rb", arrays={**data.arrays, "y": fit + E},
                       drawn=("y",))

    return data["y"] - fit, rebuild


def _ar1_series(phi, e):
    """X_0 = 0 and X_t = phi X_{t-1} + e_t along the last axis of ``e``."""
    if e.ndim == 1:
        # one series steps fastest in Python floats: the same IEEE double
        # multiply and add, without a ufunc call per step
        phi = float(phi)
        return np.fromiter(itertools.accumulate(
            e.tolist(), lambda prev, e_t: e_t + phi * prev, initial=0.0), float, len(e) + 1)
    # time-major, so each step updates one contiguous row of every series,
    # a view of a 2-D reshape; every step's product goes to one reused buffer
    x = np.zeros((e.shape[-1] + 1, *e.shape[:-1]))
    x[1:] = np.moveaxis(e, -1, 0)
    rows = x.reshape(len(x), -1)
    step = np.empty_like(rows[0])
    for prev, cur in zip(rows, rows[1:]):
        cur += np.multiply(prev, phi, out=step)
    return np.ascontiguousarray(np.moveaxis(x, 0, -1))


def _nan_outside(betas, out):
    """NaN rows where the parameter is not finite."""
    if not np.isfinite(betas).all():
        out[~np.isfinite(betas).all(axis=1)] = np.nan
    return out


def _times(W, v):
    """W * v for an index model's factor or slope ``v``: in v's own buffer
    when it is an array, W itself when it is the constant 1."""
    if np.ndim(v) == 0:
        return W if v == 1.0 else W * v
    v *= W
    return v


def _slot_sum(V, A):
    """(B, k) sums sum_i V[b, i] A_i over a shared (n, k) or drawn (B, n, k) ``A``."""
    return V @ A if A.ndim == 2 else (V[:, None, :] @ A)[:, 0, :]


def _weighted_outer(V, D):
    """(B, p, p) stack of sum_i V[b, i] D_i D_i'; no (B, n, p, p) tensor for a shared D."""
    p = D.shape[-1]
    outer = (D[..., :, None] * D[..., None, :]).reshape(*D.shape[:-1], p * p)
    return _slot_sum(V, outer).reshape(-1, p, p)


@dataclass
class Dataset:
    """Model-specific observation records plus provenance.

    On a rebuilt block of the residual bootstrap, ``drawn`` names the arrays
    that differ from draw to draw, each with a leading draw axis (a (B, n)
    response ``y``, or a (B, n + 1) AR(1) series ``x``); every other array
    is shared by all draws.
    """

    n: int
    meta: str = "synthetic"
    arrays: dict = field(default_factory=dict)
    drawn: tuple = ()   # arrays of a rebuilt block: leading axis = one row per draw

    def __getitem__(self, key):
        return self.arrays[key]

    def take(self, rows):
        """Draws ``rows`` of a rebuilt block; one int row gives a plain dataset.
        Shared data is returned as is, so the solver calls this wherever it
        slices the weights, and row b of the data stays beside row b of W."""
        if not self.drawn:
            return self   # shared by every draw
        arrays = {**self.arrays, **{k: self.arrays[k][rows] for k in self.drawn}}
        return Dataset(self.n, self.meta, arrays, self.drawn if np.ndim(rows) else ())


class Model:
    """Base estimating-equation model.

    ``score_all(data, beta)`` gives the (n, p) scores phi_i(beta) of the
    weight slots and ``jacobian_all(data, beta)`` their (n, p, p) Jacobians.
    The batch methods evaluate B reweighted systems from these two, row by
    row, so any model that gives them runs through the batched solver.
    """

    p = 1

    def weight_count(self, data):
        return data.n

    def slots(self, data):
        """``(slot_data, G)`` if weights W solve as ``W @ G`` on fewer slots
        ``slot_data``, else None."""
        return None

    def score_all(self, data, beta):
        raise NotImplementedError

    def jacobian_all(self, data, beta):
        raise NotImplementedError

    def weighted_score_batch(self, data, W, betas):
        """Row b: sum_i W[b, i] phi_i(betas[b]); NaN where that fails."""
        return self._row_by_row(self.score_all, data, W, betas, np.shape(betas)[1:])

    def weighted_jacobian_batch(self, data, W, betas):
        """Row b: sum_i W[b, i] d phi_i / d beta at betas[b]; NaN where that fails."""
        return self._row_by_row(self.jacobian_all, data, W, betas, np.shape(betas)[1:] * 2)

    def _row_by_row(self, evaluate, data, W, betas, shape):
        out = np.full((len(betas), *shape), np.nan)
        for b, (w, beta) in enumerate(zip(W, betas)):
            row = data.take(b)
            if np.all(np.isfinite(beta)):
                try:
                    out[b] = np.tensordot(w, evaluate(row, beta), axes=(0, 0))
                except EvaluationError:
                    pass
        return out

    def residual_resampler(self, data, beta):
        """How the residual bootstrap regenerates this model's data.

        Returns ``(resid, rebuild)``: the uncentered per-slot residuals at
        ``beta``, and ``rebuild(E)``, which returns the synthetic block
        Dataset whose draw b has residuals ``E[b]`` at ``beta``.
        """
        raise UnsupportedModelError(
            f"residual bootstrap undefined for {type(self).__name__}")


class IndexModel(Model):
    """Single-index scores phi_i(beta) = D_i m_i(D_i' beta) over the (n, p) design D.

    ``factor(data, T)`` is m_i at the linear index T, by default least squares
    on ``response(data)``, and ``slope(data, T)`` is -dm_i/dT. Each returns a
    new array of T's shape, which the batch evaluations multiply by the
    weights in place (a fresh (B, n) temporary that the allocator hands back
    to the OS is faulted in again on the next call, which costs more than
    the arithmetic on a large block), or a scalar (a slope of 1 is the weight
    matrix itself). The design is shared (n, p), or (B, n, p) on a rebuilt block.

    From ``design``, ``response``, ``factor`` and ``slope`` this class writes
    ``weight_count``, ``score_all``, ``jacobian_all`` and both batch methods,
    as array algebra that never builds a (B, n, p, p) tensor. A new
    single-index model, such as a Poisson log link with ``factor = y -
    exp(T)`` and ``slope = exp(T)``, needs nothing else (``tests/test_engine.py``
    checks its roots against ``log(sum_i w_i z_i / sum_i w_i)``).
    """

    def design(self, data):
        raise NotImplementedError

    def factor(self, data, T):
        return self.response(data) - T

    def slope(self, data, T):
        return 1.0

    def weight_count(self, data):
        return self.design(data).shape[-2]

    def score_all(self, data, beta):
        D = self.design(data)
        return D * self.factor(data, D @ beta)[:, None]

    def jacobian_all(self, data, beta):
        D = self.design(data)
        vD = (self.slope(data, D @ beta) * D.T).T
        return -vD[:, :, None] * D[:, None, :]

    def weighted_score_batch(self, data, W, betas):
        D = self.design(data)
        T = _slot_sum(betas, np.swapaxes(D, -1, -2))
        return _nan_outside(betas, _slot_sum(_times(W, self.factor(data, T)), D))

    def weighted_jacobian_batch(self, data, W, betas):
        D = self.design(data)
        T = _slot_sum(betas, np.swapaxes(D, -1, -2))
        return _nan_outside(betas, -_weighted_outer(_times(W, self.slope(data, T)), D))


class MeanModel(IndexModel):
    """Score z_i - beta; the root is the (weighted) sample mean."""

    p = 1

    def design(self, data):
        return np.ones((data.n, 1))

    def response(self, data):
        return data["z"]


class LinearModel(IndexModel):
    """Least-squares normal equations: score x_i (y_i - x_i' beta)."""

    def __init__(self, p=1):
        self.p = p

    def design(self, data):
        return data["X"]

    def response(self, data):
        return data["y"]

    def residual_resampler(self, data, beta):
        return _response_resampler(data, data["X"] @ beta)


class Ar1Model(IndexModel):
    """AR(1) least squares: score_t = X_{t-1} (X_t - beta X_{t-1})."""

    p = 1

    def design(self, data):
        return data["x"][..., :-1, None]

    def response(self, data):
        return data["x"][..., 1:]

    def residual_resampler(self, data, beta):
        x, phi = data["x"], beta[0]

        def rebuild(E):
            return Dataset(n=E.shape[-1], meta="rb", arrays={"x": _ar1_series(phi, E)},
                           drawn=("x",))

        return x[1:] - phi * x[:-1], rebuild


class LogisticGroupModel(IndexModel):
    """Grouped binomial logistic scores: (1, X_i)' (Y_i - N_i p_i(beta))."""

    p = 2

    def design(self, data):
        X = data["X"]
        return np.column_stack([np.ones_like(X), X])

    def _successes(self, data):
        return data["Y"]

    def _times_trials(self, data, P):
        """N P per weight slot, in P's buffer."""
        P *= data["N"]
        return P

    def factor(self, data, T):
        # Y - N P, in the sigmoid's buffer
        NP = self._times_trials(data, _sigmoid(T))
        return np.subtract(self._successes(data), NP, out=NP)

    def slope(self, data, T):
        P = _sigmoid(T)
        Q = 1.0 - P
        v = self._times_trials(data, P)
        v *= Q   # N P (1 - P), in the sigmoid's buffer
        return v


class LogisticIndividualModel(LogisticGroupModel):
    """Per-trial logistic scores: one weight slot per Bernoulli trial."""

    def design(self, data):
        X = data["x_ind"]
        return np.column_stack([np.ones_like(X), X])

    def _successes(self, data):
        return data["y_ind"]

    def _times_trials(self, data, P):
        return P   # one trial per slot

    def slots(self, data):
        # None when the cell slots would not be fewer than the trials (slot data)
        slot_data, G = self.cell_slots(data)
        return (slot_data, G) if slot_data.n < len(G) else None

    def cell_slots(self, data):
        """``slots(data)`` whether or not it shrinks the data: an
        always-success and an always-failure slot per covariate cell."""
        # the score (y_i - P(x_i)) D_i is linear in y_i: trial i's weight goes
        # y_i to its cell's always-success slot, 1 - y_i to its always-failure slot
        xs, cell = np.unique(data["x_ind"], return_inverse=True)
        y, onehot = data["y_ind"][:, None], cell[:, None] == np.arange(len(xs))
        return Dataset(2 * len(xs), "slots", {
            "x_ind": np.tile(xs, 2), "y_ind": np.repeat([1.0, 0.0], len(xs)),
        }), np.hstack([onehot * y, onehot * (1.0 - y)])


class IsomerizationModel(Model):
    """Four-parameter nonlinear rate model fitted by least squares.

    f(X, theta) = theta1 theta3 (P - I/1.632) / (1 + theta2 H + theta3 P + theta4 I),
    score_i = grad f(X_i, theta) (y_i - f(X_i, theta)).
    """

    p = 4

    def _rate(self, data, theta):
        """u, the denominator D and the numerator A of f, each (n,) for (p,)
        parameters and (B, n) for (B, p) parameters; at (p,) parameters it
        raises ``EvaluationError`` where D vanishes."""
        H, P, I = data["H"], data["P"], data["I"]
        th = np.moveaxis(theta, -1, 0)[..., None]   # th[j]: (1,) or (B, 1)
        u = P - I / ISO_SCALE
        D = 1.0 + th[1] * H + th[2] * P + th[3] * I
        A = th[0] * th[2] * u
        if theta.ndim == 1 and (bad := np.flatnonzero(self._vanishing(D))).size:
            raise EvaluationError(f"rate denominator vanishes at row {bad[0]}",
                                  index=int(bad[0]))
        return u, D, A

    @staticmethod
    def _vanishing(D):
        """Where the rate denominator D leaves the domain: |D| <= 1e-12 or NaN."""
        return ~(np.abs(D) > 1e-12)

    def f(self, data, theta):
        """f at (p,) parameters, raising ``EvaluationError`` where D vanishes;
        at a (B, p) stack, ``(F, ok)``: the (B, n) values and the mask of rows
        whose D vanishes nowhere (the other rows of F are not meaningful)."""
        theta = np.asarray(theta, float)
        _, D, A = self._rate(data, theta)
        if theta.ndim == 1:
            return A / D
        with np.errstate(divide="ignore", invalid="ignore"):
            return A / D, ~np.any(self._vanishing(D), axis=1)

    def _derivs(self, data, theta):
        """``_rate`` at (p,) parameters, then the derivative stacks of A and D,
        indexed (slot, param), and the gradient of f."""
        theta = np.asarray(theta, float)
        u, D, A = self._rate(data, theta)
        zero = np.zeros_like(u)
        Aj = np.stack([theta[2] * u, zero, theta[0] * u, zero], axis=1)
        Dj = np.stack([zero, data["H"], data["P"], data["I"]], axis=1)
        return u, D, A, Aj, Dj, Aj / D[:, None] - (A / D ** 2)[:, None] * Dj

    def f_grad(self, data, theta):
        return self._derivs(data, theta)[-1]

    def score_all(self, data, beta):
        _, D, A, _, _, g = self._derivs(data, beta)
        return g * (data["y"] - A / D)[:, None]

    def jacobian_all(self, data, beta):
        u, D, A, Aj, Dj, g = self._derivs(data, beta)
        Ajk = np.zeros((len(D), 4, 4))   # second derivatives of A = theta1 theta3 u
        Ajk[:, 0, 2] = Ajk[:, 2, 0] = u
        cross = Aj[:, :, None] * Dj[:, None, :]
        h = (Ajk / D[:, None, None]       # second derivatives of f
             - (cross + cross.transpose(0, 2, 1)) / (D ** 2)[:, None, None]
             + 2.0 * (A / D ** 3)[:, None, None] * Dj[:, :, None] * Dj[:, None, :])
        return h * (data["y"] - A / D)[:, None, None] - g[:, :, None] * g[:, None, :]

    def objective(self, data, weights, beta):
        resid = data["y"] - self.f(data, beta)
        return float(np.sum(weights * resid ** 2))

    def residual_resampler(self, data, beta):
        return _response_resampler(data, self.f(data, beta))


# ---------------------------------------------------------------------------
# Simulators

def simulate_ar1(phi, sigma1_sq, sigma2_sq, n, rng):
    """AR(1) series with X_0 = 0 and error variance alternating odd/even t."""
    if n < 2:
        raise ShapeError("need n >= 2")
    sd = np.where(np.arange(1, n + 1) % 2 == 1,
                  math.sqrt(sigma1_sq), math.sqrt(sigma2_sq))
    e = rng.standard_normal(n) * sd
    return Dataset(n=n, meta="ar1-sim", arrays={"x": _ar1_series(phi, e)})


def simulate_glm(beta, N, X, rng):
    """Per-trial Bernoulli draws for grouped logistic data."""
    N = np.asarray(N, int)
    X = np.asarray(X, float)
    if len(N) != len(X) or len(N) < 2:
        raise ShapeError("N and X must be equal length >= 2")
    p = _sigmoid(beta[0] + beta[1] * X)
    y_ind = (rng.random(N.sum()) < np.repeat(p, N)).astype(float)
    return _glm_dataset(N, X, y_ind, "glm-sim")


def _glm_dataset(N, X, y_ind, meta):
    """Grouped logistic data: N_i trials at X_i, Y_i successes among ``y_ind``."""
    group = np.repeat(np.arange(len(N)), N)
    return Dataset(n=len(N), meta=meta, arrays={
        "N": N, "X": X, "Y": np.bincount(group, weights=y_ind, minlength=len(N)),
        "x_ind": np.repeat(X, N), "y_ind": y_ind, "group": group,
    })


def simulate_linear(beta, n, rng):
    beta = np.atleast_1d(np.asarray(beta, float))
    p = len(beta)
    X = rng.standard_normal((n, p))
    y = X @ beta + rng.standard_normal(n)
    return Dataset(n=n, meta="linear-sim", arrays={"X": X, "y": y})


# ---------------------------------------------------------------------------
# CSV loaders and bundled data

def _read_csv(path, columns):
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or any(c not in reader.fieldnames for c in columns):
            raise ParseError(f"{path}: expected header with columns {columns}")
        for idx, rec in enumerate(reader):
            vals = []
            for c in columns:
                cell = rec.get(c)
                try:
                    vals.append(float(cell))
                except (TypeError, ValueError):
                    raise ParseError(f"{path}: non-numeric {c!r} at data row {idx}",
                                     row=idx) from None
                if not math.isfinite(vals[-1]):
                    raise ParseError(f"{path}: non-finite {c!r} at data row {idx}",
                                     row=idx)
            rows.append(vals)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return np.array(rows)


def load_ar1_csv(path):
    x = _read_csv(path, ["x"])[:, 0]
    if len(x) < 3:
        raise ParseError(f"{path}: need at least 3 rows (X_0 plus 2 observations)")
    return Dataset(n=len(x) - 1, meta=str(path), arrays={"x": x})


def load_glm_csv(path):
    tab = _read_csv(path, ["N", "X", "Y"])
    N, X, Y = tab[:, 0], tab[:, 1], tab[:, 2]
    for idx, (ni, yi) in enumerate(zip(N, Y)):
        if not (ni.is_integer() and ni >= 1):
            raise ParseError(f"{path}: N must be a positive integer at data row {idx}", row=idx)
        if not (yi.is_integer() and 0 <= yi <= ni):
            raise ParseError(f"{path}: need integer 0 <= Y <= N at data row {idx}",
                             row=idx)
    N = N.astype(int)
    # expand to per-trial records: Y_i successes then N_i - Y_i failures
    counts = np.column_stack([Y, N - Y]).astype(int).ravel()
    y_ind = np.repeat(np.tile([1.0, 0.0], len(N)), counts)
    return _glm_dataset(N, X, y_ind, str(path))


def load_nls_csv(path):
    tab = _read_csv(path, ["H", "P", "I", "y"])
    return Dataset(n=tab.shape[0], meta=str(path), arrays={
        "H": tab[:, 0], "P": tab[:, 1], "I": tab[:, 2], "y": tab[:, 3],
    })


def bundled_path(name):
    return importlib.resources.files("gebs.data") / name


def load_isomerization():
    """24-run catalytic isomerization dataset shipped with the package."""
    return load_nls_csv(bundled_path("isomerization.csv"))


def load_fumigant():
    """Ten-group fumigant dose-response covariates shipped with the package."""
    return load_glm_csv(bundled_path("fumigant.csv"))
