"""Estimating-equation models: per-observation scores, derivatives, simulators.

A model evaluates a vector score phi_i(beta) for each of its weight slots,
together with the analytic Jacobian (d phi / d beta, one p x p matrix per
slot, row a = gradient of component a) and the symmetric Hessians of each
score component. Everything is vectorized over slots.

For the batched solver a model also evaluates the weighted score and Jacobian
of B reweighted systems at once: ``weighted_score_batch(data, W, betas)``
maps a (B, n) weight matrix and (B, p) parameters to (B, p) scores, and
``weighted_jacobian_batch`` to (B, p, p) Jacobians. A row outside the domain
is NaN. The base class builds both row by row from ``score_all`` and
``jacobian_all``; the single-index models (``IndexModel``) write all four
evaluations once, as array algebra over a design matrix.

For the residual bootstrap a model says how its data is regenerated from
errors: ``residual_resampler(data, beta)`` returns the residuals at ``beta``
and a function that rebuilds a synthetic dataset from resampled residuals.
"""

import csv
import importlib.resources
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EvaluationError, ParseError, ShapeError, UnsupportedModelError

LOGIT_CLAMP = 500.0  # exponent clamp; extreme resample weights can push |t| huge
ISO_SCALE = 1.632    # stoichiometric constant in the isomerization rate model


def _sigmoid(t):
    # in place: a large temporary that the allocator hands back to the OS is
    # page-faulted in again on the next call, which dominates a (B, n) batch
    e = np.exp(-np.clip(t, -LOGIT_CLAMP, LOGIT_CLAMP))
    e += 1.0
    return np.divide(1.0, e, out=e)


def _response_resampler(data, fit):
    """Residual resampler for data whose response ``y`` is ``fit`` plus error."""
    def rebuild(e):
        return Dataset(n=data.n, meta="rb", arrays={**data.arrays, "y": fit + e})

    return data["y"] - fit, rebuild


def _ar1_series(phi, e):
    """X_0 = 0 and X_t = phi X_{t-1} + e_t."""
    x = np.zeros(len(e) + 1)
    for t in range(1, len(e) + 1):
        x[t] = phi * x[t - 1] + e[t - 1]
    return x


def _nan_outside(betas, out):
    """NaN rows where the parameter is not finite (the default domain)."""
    out[~np.all(np.isfinite(betas), axis=1)] = np.nan
    return out


def _weighted_outer(V, D):
    """(B, p, p) stack of sum_i V[b, i] D_i D_i' without a (B, n, p, p) tensor."""
    n, p = D.shape
    return (V @ (D[:, :, None] * D[:, None, :]).reshape(n, p * p)).reshape(-1, p, p)


@dataclass
class Dataset:
    """Model-specific observation records plus provenance."""

    n: int
    meta: str = "synthetic"
    arrays: dict = field(default_factory=dict)

    def __getitem__(self, key):
        return self.arrays[key]


class Model:
    """Base estimating-equation model."""

    p = 1

    def weight_count(self, data):
        return data.n

    def in_domain(self, data, beta):
        return bool(np.all(np.isfinite(beta)))

    def default_init(self, data):
        return np.zeros(self.p)

    def score_all(self, data, beta):
        raise NotImplementedError

    def jacobian_all(self, data, beta):
        raise NotImplementedError

    def hessian_all(self, data, beta):
        n = self.weight_count(data)
        return np.zeros((n, self.p, self.p, self.p))

    def weighted_score_batch(self, data, W, betas):
        """Row b: sum_i W[b, i] phi_i(betas[b]); NaN outside the domain."""
        out = np.full(np.shape(betas), np.nan)
        for b, (w, beta) in enumerate(zip(W, betas)):
            if self.in_domain(data, beta):
                try:
                    out[b] = w @ self.score_all(data, beta)
                except EvaluationError:
                    pass
        return out

    def weighted_jacobian_batch(self, data, W, betas):
        """Row b: sum_i W[b, i] d phi_i / d beta at betas[b]; NaN outside the domain."""
        p = np.shape(betas)[1]
        out = np.full((len(betas), p, p), np.nan)
        for b, (w, beta) in enumerate(zip(W, betas)):
            if self.in_domain(data, beta):
                try:
                    out[b] = np.tensordot(w, self.jacobian_all(data, beta), axes=(0, 0))
                except EvaluationError:
                    pass
        return out

    def residual_resampler(self, data, beta):
        """How the residual bootstrap regenerates this model's data.

        Returns ``(resid, rebuild)``: the uncentered per-slot residuals at
        ``beta``, and ``rebuild(e)``, which returns the synthetic Dataset
        whose residuals at ``beta`` are ``e``.
        """
        raise UnsupportedModelError(
            f"residual bootstrap undefined for {type(self).__name__}")


class IndexModel(Model):
    """Single-index scores phi_i(beta) = D_i m_i(D_i' beta) over the (n, p) design D.

    ``factor(data, T)`` is m_i at the linear index T, by default least squares
    on ``response(data)``, and ``slope(data, T)`` is -dm_i/dT; no
    (B, n, p, p) tensor is built.
    """

    def design(self, data):
        raise NotImplementedError

    def factor(self, data, T):
        return self.response(data) - T

    def slope(self, data, T):
        return 1.0

    def weight_count(self, data):
        return len(self.design(data))

    def score_all(self, data, beta):
        D = self.design(data)
        return D * self.factor(data, D @ beta)[:, None]

    def jacobian_all(self, data, beta):
        D = self.design(data)
        vD = (self.slope(data, D @ beta) * D.T).T
        return -vD[:, :, None] * D[:, None, :]

    def weighted_score_batch(self, data, W, betas):
        D = self.design(data)
        return _nan_outside(betas, (W * self.factor(data, betas @ D.T)) @ D)

    def weighted_jacobian_batch(self, data, W, betas):
        D = self.design(data)
        return _nan_outside(betas, -_weighted_outer(W * self.slope(data, betas @ D.T), D))


class MeanModel(IndexModel):
    """Score z_i - beta; the root is the (weighted) sample mean."""

    p = 1

    def design(self, data):
        return np.ones((data.n, 1))

    def response(self, data):
        return data["z"]

    def default_init(self, data):
        return np.array([float(np.mean(data["z"]))])


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
        return data["x"][:-1, None]

    def response(self, data):
        return data["x"][1:]

    def residual_resampler(self, data, beta):
        x, phi = data["x"], beta[0]

        def rebuild(e):
            return Dataset(n=len(e), meta="rb", arrays={"x": _ar1_series(phi, e)})

        return x[1:] - phi * x[:-1], rebuild


class LogisticGroupModel(IndexModel):
    """Grouped binomial logistic scores: (1, X_i)' (Y_i - N_i p_i(beta))."""

    p = 2

    def design(self, data):
        X = data["X"]
        return np.column_stack([np.ones_like(X), X])

    def _outcomes(self, data):
        """Successes and trials per weight slot."""
        return data["Y"], data["N"]

    def factor(self, data, T):
        Y, N = self._outcomes(data)
        return Y - N * _sigmoid(T)

    def slope(self, data, T):
        P = _sigmoid(T)
        v = self._outcomes(data)[1] * P
        v *= np.subtract(1.0, P, out=P)   # N P (1 - P), reusing P's buffer
        return v

    def hessian_all(self, data, beta):
        D = self.design(data)
        p = _sigmoid(D @ beta)
        v = self._outcomes(data)[1] * p * (1.0 - p) * (1.0 - 2.0 * p)
        return (-v[:, None, None, None]
                * D[:, :, None, None] * D[:, None, :, None] * D[:, None, None, :])


class LogisticIndividualModel(LogisticGroupModel):
    """Per-trial logistic scores: one weight slot per Bernoulli trial."""

    def design(self, data):
        X = data["x_ind"]
        return np.column_stack([np.ones_like(X), X])

    def _outcomes(self, data):
        return data["y_ind"], 1.0


class IsomerizationModel(Model):
    """Four-parameter nonlinear rate model fitted by least squares.

    f(X, theta) = theta1 theta3 (P - I/1.632) / (1 + theta2 H + theta3 P + theta4 I),
    score_i = grad f(X_i, theta) (y_i - f(X_i, theta)).
    """

    p = 4

    def _parts(self, data, theta):
        H, P, I = data["H"], data["P"], data["I"]
        u = P - I / ISO_SCALE
        D = 1.0 + theta[1] * H + theta[2] * P + theta[3] * I
        A = theta[0] * theta[2] * u
        # derivative stacks indexed (slot, param)
        Aj = np.stack([theta[2] * u, np.zeros_like(u), theta[0] * u, np.zeros_like(u)], axis=1)
        Dj = np.stack([np.zeros_like(H), H, P, I], axis=1)
        return u, D, A, Aj, Dj

    def in_domain(self, data, beta):
        if not np.all(np.isfinite(beta)):
            return False
        _, D, *_ = self._parts(data, np.asarray(beta, float))
        return bool(np.all(np.abs(D) > 1e-12))

    def _check_domain(self, D):
        bad = np.nonzero(np.abs(D) <= 1e-12)[0]
        if bad.size:
            raise EvaluationError(f"rate denominator vanishes at row {bad[0]}",
                                  index=int(bad[0]))

    def f(self, data, theta):
        _, D, A, _, _ = self._parts(data, np.asarray(theta, float))
        self._check_domain(D)
        return A / D

    def _checked_parts(self, data, theta):
        parts = self._parts(data, np.asarray(theta, float))
        self._check_domain(parts[1])
        return parts

    @staticmethod
    def _grad(parts):
        _, D, A, Aj, Dj = parts
        return Aj / D[:, None] - (A / D ** 2)[:, None] * Dj

    @staticmethod
    def _second(parts):
        """Second derivatives of A and of f, each indexed (slot, param, param)."""
        u, D, A, Aj, Dj = parts
        Ajk = np.zeros((len(D), 4, 4))
        Ajk[:, 0, 2] = u
        Ajk[:, 2, 0] = u
        cross = Aj[:, :, None] * Dj[:, None, :]
        H = (Ajk / D[:, None, None]
             - (cross + cross.transpose(0, 2, 1)) / (D ** 2)[:, None, None]
             + 2.0 * (A / D ** 3)[:, None, None] * Dj[:, :, None] * Dj[:, None, :])
        return Ajk, H

    @staticmethod
    def _third(parts, Ajk):
        _, D, A, Aj, Dj = parts
        T = np.zeros((len(D), 4, 4, 4))
        T -= (Ajk[:, :, :, None] * Dj[:, None, None, :]
              + Ajk[:, :, None, :] * Dj[:, None, :, None]
              + Ajk[:, None, :, :] * Dj[:, :, None, None]) / (D ** 2)[:, None, None, None]
        T += 2.0 * (Aj[:, :, None, None] * Dj[:, None, :, None] * Dj[:, None, None, :]
                    + Aj[:, None, :, None] * Dj[:, :, None, None] * Dj[:, None, None, :]
                    + Aj[:, None, None, :] * Dj[:, :, None, None] * Dj[:, None, :, None]
                    ) / (D ** 3)[:, None, None, None]
        T -= 6.0 * (A / D ** 4)[:, None, None, None] \
            * Dj[:, :, None, None] * Dj[:, None, :, None] * Dj[:, None, None, :]
        return T

    def f_grad(self, data, theta):
        return self._grad(self._checked_parts(data, theta))

    def _resid_grad(self, data, beta):
        """Parts, residuals y - f and gradient of f from one ``_parts`` call."""
        parts = self._checked_parts(data, beta)
        _, D, A, _, _ = parts
        return parts, data["y"] - A / D, self._grad(parts)

    def score_all(self, data, beta):
        _, resid, g = self._resid_grad(data, beta)
        return g * resid[:, None]

    def jacobian_all(self, data, beta):
        parts, resid, g = self._resid_grad(data, beta)
        _, h = self._second(parts)
        return h * resid[:, None, None] - g[:, :, None] * g[:, None, :]

    def hessian_all(self, data, beta):
        parts, resid, g = self._resid_grad(data, beta)
        Ajk, h = self._second(parts)
        return (self._third(parts, Ajk) * resid[:, None, None, None]
                - h[:, :, :, None] * g[:, None, None, :]
                - h[:, :, None, :] * g[:, None, :, None]
                - g[:, :, None, None] * h[:, None, :, :])

    def objective(self, data, weights, beta):
        resid = data["y"] - self.f(data, np.asarray(beta, float))
        return float(np.sum(weights * resid ** 2))

    def residual_resampler(self, data, beta):
        return _response_resampler(data, self.f(data, beta))

    def default_init(self, data):
        return np.array([30.0, 0.1, 0.05, 0.2])


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
    group = np.repeat(np.arange(len(N)), N)
    Y = np.bincount(group, weights=y_ind, minlength=len(N))
    return Dataset(n=len(N), meta="glm-sim", arrays={
        "N": N, "X": X, "Y": Y,
        "x_ind": np.repeat(X, N), "y_ind": y_ind, "group": group,
    })


def simulate_linear(beta, n, rng, noise_sd=1.0, x_sd=1.0):
    beta = np.atleast_1d(np.asarray(beta, float))
    p = len(beta)
    X = rng.standard_normal((n, p)) * x_sd
    y = X @ beta + rng.standard_normal(n) * noise_sd
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
    y_ind = np.concatenate([
        np.concatenate([np.ones(int(y)), np.zeros(int(n) - int(y))])
        for n, y in zip(N, Y)])
    group = np.repeat(np.arange(len(N)), N)
    return Dataset(n=len(N), meta=str(path), arrays={
        "N": N, "X": X, "Y": Y,
        "x_ind": np.repeat(X, N), "y_ind": y_ind, "group": group,
    })


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
