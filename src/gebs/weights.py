"""Exchangeable bootstrap weight schemes.

Each scheme draws a nonnegative exchangeable weight vector with unit mean.
Sampling, exact moments and support enumeration branch once per law family.
Count laws (``multinomial``, ``moon``) scale multinomial counts of ``trials``
over n equal cells by ``scale``; Efron's bootstrap is m-out-of-n at m = n.
d-subset laws (``jackknife``, ``downweight``) give d indices drawn without
replacement the weight ``lo`` and the rest ``hi``; delete-d has lo = 0.
``dirichlet``, i.i.d. ``uniform`` and ``exp``, and ``constant`` are one kind
each. Exact mixed moments of the standardized weights are in closed form,
built from raw moments over distinct indices (factorial moments for count
laws, subset membership for d-subset laws, rising factorials for Dirichlet,
products for i.i.d. laws).
"""

import itertools
import math
import numbers
import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ParameterError, ParseError, ShapeError, UnsupportedSchemeError

MULTINOMIAL = "multinomial"
M_OUT_OF_N = "moon"
DELETE_D_JACKKNIFE = "jackknife"
DOWNWEIGHT_D_JACKKNIFE = "downweight"
DIRICHLET = "dirichlet"
IID_UNIFORM = "uniform"
IID_EXPONENTIAL = "exp"
CONSTANT = "constant"

MAX_ATOMS = 10 ** 6   # largest finite support that enumeration walks

THIRD_ORDER_PATTERNS = ((3,), (2, 1), (1, 1, 1))
FOURTH_ORDER_PATTERNS = ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def _index(value):
    """``value`` as an int if it is integral (any ``operator.index`` type but
    bool), else None."""
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def _real(value):
    """``value`` as a float if it is real (any ``numbers.Real`` but bool),
    else NaN, which every check on a real parameter refuses."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return math.nan
    try:
        return float(value)
    except OverflowError:   # an int beyond the float range
        return math.inf


@dataclass(frozen=True)
class WeightScheme:
    """A named exchangeable weight law of length ``n``."""

    kind: str
    n: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        n = _index(self.n)
        if n is None or n < 1:
            raise ParameterError(f"weight-vector length must be an integer >= 1, got {self.n!r}")
        object.__setattr__(self, "n", n)
        p = self.params
        if self.kind in (DELETE_D_JACKKNIFE, DOWNWEIGHT_D_JACKKNIFE):
            d = self._param("d", _index)
            if d is None or not 1 <= d < self.n:
                raise ParameterError(f"need 1 <= d < n, got d={p.get('d')}, n={self.n}")
        elif self.kind == M_OUT_OF_N:
            m = self._param("m", _index)
            if m is None or m < 1:
                raise ParameterError(f"m-out-of-n needs integer m >= 1, got {p.get('m')}")
        elif self.kind == DIRICHLET:
            alpha = self._param("alpha", _real)
            if not (math.isfinite(alpha) and alpha > 0):
                raise ParameterError(
                    f"Dirichlet alpha must be finite and > 0, got {p.get('alpha')!r}")
        elif self.kind == IID_UNIFORM:
            lo, hi = self._param("lo", _real), self._param("hi", _real)
            if not (math.isfinite(lo) and math.isfinite(hi) and 0 <= lo < hi):
                raise ParameterError(f"uniform needs finite 0 <= lo < hi, "
                                     f"got lo={p.get('lo')!r}, hi={p.get('hi')!r}")
            if abs(lo + hi - 2.0) > 1e-12:
                raise ParameterError(
                    f"uniform weights must have mean 1 (lo + hi = 2), got lo={lo}, hi={hi}")
        elif self.kind not in (MULTINOMIAL, IID_EXPONENTIAL, CONSTANT):
            raise ParameterError(f"unknown weight scheme kind {self.kind!r}")

    def _param(self, key, convert):
        """Parameter ``key`` stored as ``convert(value)``, which is returned;
        nothing is stored if that is None."""
        value = convert(self.params.get(key))
        if value is not None:
            object.__setattr__(self, "params", {**self.params, key: value})
        return value

    def label(self):
        if self.params:
            args = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
            return f"{self.kind}({args})"
        return self.kind


def multinomial(n):
    return WeightScheme(MULTINOMIAL, n)


def m_out_of_n(n, m):
    return WeightScheme(M_OUT_OF_N, n, {"m": m})


def delete_d_jackknife(n, d):
    return WeightScheme(DELETE_D_JACKKNIFE, n, {"d": d})


def downweight_d_jackknife(n, d):
    return WeightScheme(DOWNWEIGHT_D_JACKKNIFE, n, {"d": d})


def dirichlet(n, alpha):
    return WeightScheme(DIRICHLET, n, {"alpha": alpha})


def iid_uniform(n, lo, hi):
    return WeightScheme(IID_UNIFORM, n, {"lo": lo, "hi": hi})


def iid_exponential(n):
    return WeightScheme(IID_EXPONENTIAL, n)


def constant(n):
    return WeightScheme(CONSTANT, n)


# the one parameter a kind's specification names, and its type
_PARAMETER = {DELETE_D_JACKKNIFE: ("d", int), DOWNWEIGHT_D_JACKKNIFE: ("d", int),
              M_OUT_OF_N: ("m", int), DIRICHLET: ("alpha", float)}


def parse_scheme(spec, n):
    """Build a scheme from a CLI specification string.

    Grammar: ``multinomial``, ``jackknife:d=2``, ``downweight:d=2``,
    ``dirichlet:alpha=1``, ``uniform:0.5,1.5``, ``exp``, ``moon:m=10``,
    ``constant``.
    """
    head, _, tail = spec.partition(":")
    head = head.strip().lower()
    if tail and head in (MULTINOMIAL, IID_EXPONENTIAL, CONSTANT):
        raise ParseError(f"bad scheme specification {spec!r}: {head} takes no parameters")
    try:
        if head in (MULTINOMIAL, IID_EXPONENTIAL, CONSTANT):
            return WeightScheme(head, n)
        if head in _PARAMETER:
            key, cast = _PARAMETER[head]
            return WeightScheme(head, n, {key: cast(_kv(tail, key))})
        if head == IID_UNIFORM:
            lo, hi = (tail or "0.5,1.5").split(",")
            return iid_uniform(n, float(lo), float(hi))
    except ParameterError:
        raise
    except ValueError as exc:
        raise ParseError(f"bad scheme specification {spec!r}: {exc}") from exc
    raise ParseError(f"unknown weight scheme {spec!r}")


def _kv(tail, key):
    k, _, v = tail.partition("=")
    if k.strip() != key or not v:
        raise ValueError(f"expected {key}=<value>, got {tail!r}")
    return v


# ---------------------------------------------------------------------------
# Law families

def _count_law(scheme):
    """``(trials, scale)`` of a count law, or None for any other kind."""
    if scheme.kind == MULTINOMIAL:
        return scheme.n, 1.0
    if scheme.kind == M_OUT_OF_N:
        return scheme.params["m"], scheme.n / scheme.params["m"]
    return None


def _subset_law(scheme):
    """``(d, lo, hi)`` of a d-subset law, or None for any other kind."""
    n, d = scheme.n, scheme.params.get("d")
    if scheme.kind == DELETE_D_JACKKNIFE:
        return d, 0.0, n / (n - d)
    if scheme.kind == DOWNWEIGHT_D_JACKKNIFE:
        return d, d / n, (n + d) / n
    return None


# ---------------------------------------------------------------------------
# Sampling

def sampler(scheme):
    """``(fill, finish)`` of the scheme's law. ``fill(rng, row)`` draws one
    weight vector's stream values into the float row ``row`` of length n from
    ``rng``; ``finish(R, redraw)`` scales a (B, n) block of such rows in place
    and returns it, or is None where ``fill`` leaves nothing to do. Its
    arithmetic is elementwise, so a row's bits do not depend on the block;
    weight laws never redraw. Everything that does not use the stream (the
    multinomial cell probabilities, the law's constants) is built here, once."""
    n = scheme.n
    finish = None
    if count := _count_law(scheme):
        trials, scale = count
        pvals = np.full(n, 1.0 / n)

        def fill(rng, row):
            row[:] = rng.multinomial(trials, pvals)

        def finish(R, redraw):
            R *= scale
            return R
    elif subset := _subset_law(scheme):
        d, lo, hi = subset

        def fill(rng, row):
            row.fill(hi)
            row[rng.choice(n, size=d, replace=False)] = lo
    elif scheme.kind == DIRICHLET:
        alpha = scheme.params["alpha"]

        # a block's sums need not match the row's to the last bit: normalise here
        def fill(rng, row):
            total = rng.standard_gamma(alpha, out=row).sum()
            row *= n
            row /= total
    elif scheme.kind == IID_UNIFORM:
        lo, span = scheme.params["lo"], scheme.params["hi"] - scheme.params["lo"]

        def fill(rng, row):
            rng.random(out=row)

        def finish(R, redraw):
            R *= span
            R += lo
            return R
    elif scheme.kind == IID_EXPONENTIAL:
        def fill(rng, row):
            rng.standard_exponential(out=row)
    else:   # constant
        def fill(rng, row):
            row.fill(1.0)
    return fill, finish


def sample(scheme, rng):
    """Draw one weight vector from the scheme's law."""
    fill, finish = sampler(scheme)
    R = np.empty((1, scheme.n))
    fill(rng, R[0])
    return (R if finish is None else finish(R, None))[0]


# ---------------------------------------------------------------------------
# Exact moment algebra

@lru_cache(maxsize=None)
def _stirling2(r, k):
    if k == r:
        return 1
    if k == 0 or k > r:
        return 0
    return k * _stirling2(r - 1, k) + _stirling2(r - 1, k - 1)


def _falling(x, k):
    out = 1.0
    for t in range(k):
        out *= x - t
    return out


def _rising(x, k):
    out = 1.0
    for t in range(k):
        out *= x + t
    return out


def raw_moment(scheme, pattern):
    """E[w_a^{k1} w_b^{k2} ...] over distinct indices a, b, ..."""
    pattern = tuple(int(k) for k in pattern if k > 0)
    if not pattern:
        return 1.0
    n = scheme.n
    m = len(pattern)
    if m > n:
        raise ParameterError(f"pattern uses {m} indices but n={n}")
    kind = scheme.kind
    if count := _count_law(scheme):
        # E[prod_j (scale * c_j)^{k_j}] for distinct multinomial cells with p = 1/n
        trials, scale = count
        total = 0.0
        for ls in itertools.product(*[range(1, k + 1) for k in pattern]):
            coef = 1.0
            for k, l in zip(pattern, ls):
                coef *= _stirling2(k, l)
            L = sum(ls)
            total += coef * _falling(trials, L) * float(n) ** (-L)
        return scale ** sum(pattern) * total
    if subset := _subset_law(scheme):
        # sum over which of the m indices fall in the subset of d
        d, lo, hi = subset
        total = 0.0
        for mask in itertools.product((False, True), repeat=m):
            s = sum(mask)
            if d - s < 0 or d - s > n - m:
                continue
            prob = math.comb(n - m, d - s) / math.comb(n, d)
            val = 1.0
            for k, down in zip(pattern, mask):
                val *= (lo if down else hi) ** k
            total += prob * val
        return total
    if kind == DIRICHLET:
        alpha = scheme.params["alpha"]
        tot = sum(pattern)
        num = 1.0
        for k in pattern:
            num *= _rising(alpha, k)
        return n ** tot * num / _rising(n * alpha, tot)
    if kind == IID_UNIFORM:
        lo, hi = scheme.params["lo"], scheme.params["hi"]
        out = 1.0
        for k in pattern:
            out *= (hi ** (k + 1) - lo ** (k + 1)) / ((hi - lo) * (k + 1))
        return out
    if kind == IID_EXPONENTIAL:
        out = 1.0
        for k in pattern:
            out *= math.factorial(k)
        return out
    return 1.0   # constant


def central_moment(scheme, pattern):
    """E[prod_j (w_j - 1)^{i_j}] over distinct indices."""
    pattern = tuple(int(k) for k in pattern if k > 0)
    total = 0.0
    ranges = [range(0, i + 1) for i in pattern]
    for ts in itertools.product(*ranges):
        coef = 1.0
        for i, t in zip(pattern, ts):
            coef *= math.comb(i, t) * (-1.0) ** (i - t)
        total += coef * raw_moment(scheme, tuple(t for t in ts if t > 0))
    return total


@dataclass
class WeightMoments:
    """Exact (or plug-in) moments of standardized weights W = (w - 1)/sigma."""

    sigma2: float
    c11: float
    c22: float
    c4: float
    third_order: dict
    fourth_order: dict


def _standardized(sigma2, n, moment):
    """``WeightMoments`` of weights with variance ``sigma2`` whose standardized
    mixed moment over a pattern's distinct indices is ``moment(pattern)``:
    all zero where sigma2 <= 0, NaN for a pattern of more than n indices."""
    patterns = ((1, 1),) + THIRD_ORDER_PATTERNS + FOURTH_ORDER_PATTERNS
    if sigma2 <= 0:
        c = dict.fromkeys(patterns, 0.0)
    else:
        c = {pat: moment(pat) if len(pat) <= n else math.nan for pat in patterns}
    return WeightMoments(max(sigma2, 0.0), c[(1, 1)], c[(2, 2)], c[(4,)],
                         {pat: c[pat] for pat in THIRD_ORDER_PATTERNS},
                         {pat: c[pat] for pat in FOURTH_ORDER_PATTERNS})


def theoretical_moments(scheme):
    """Exact standardized mixed moments of the scheme."""
    sigma2 = central_moment(scheme, (2,))
    return _standardized(sigma2, scheme.n, lambda pat: central_moment(scheme, pat)
                         / math.sqrt(sigma2) ** sum(pat))


def empirical_moments(draws, probs=None):
    """Plug-in moment estimates from weight draws, averaged over index tuples.

    ``draws`` is a (B, n) array (or list of equal-length vectors); ``probs``
    optionally weights the draws (as with the atoms of :func:`iter_support`).
    Uses the scheme invariant E[w] = 1 for centering.
    """
    if not isinstance(draws, np.ndarray):
        lengths = {len(d) for d in draws}
        if len(lengths) > 1:
            raise ShapeError(f"draws have unequal lengths {sorted(lengths)}")
        draws = np.stack([np.asarray(d, float) for d in draws])
    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 2:
        raise ShapeError(f"draws must be (B, n), got shape {draws.shape}")
    if draws.shape[0] < 2 and probs is None:
        raise ShapeError("need at least 2 draws")
    B, n = draws.shape
    if probs is None:
        probs = np.full(B, 1.0 / B)
    else:
        probs = np.asarray(probs, dtype=float)
        if probs.shape != (B,):
            raise ShapeError("probs length must match number of draws")
        probs = probs / probs.sum()

    centered = draws - 1.0
    sigma2 = float(probs @ np.mean(centered ** 2, axis=1))
    # all-zero centered weights (sigma2 = 0) need no standardizing
    W = centered / math.sqrt(sigma2) if sigma2 > 0 else centered

    p1, p2, p3, p4 = ((W ** k).sum(axis=1) for k in range(1, 5))

    # sums over distinct index tuples, expressed in power sums
    distinct = {
        (1, 1): p1 ** 2 - p2,
        (3,): p3,
        (2, 1): p2 * p1 - p3,
        (1, 1, 1): p1 ** 3 - 3 * p1 * p2 + 2 * p3,
        (4,): p4,
        (3, 1): p3 * p1 - p4,
        (2, 2): p2 ** 2 - p4,
        (2, 1, 1): p2 * p1 ** 2 - p2 ** 2 - 2 * p3 * p1 + 2 * p4,
        (1, 1, 1, 1): p1 ** 4 - 6 * p1 ** 2 * p2 + 3 * p2 ** 2 + 8 * p1 * p3 - 6 * p4,
    }
    return _standardized(sigma2, n, lambda pat: float(probs @ distinct[pat])
                         / _falling(n, len(pat)))


# ---------------------------------------------------------------------------
# Exhaustive support

def support_size(scheme):
    n = scheme.n
    if count := _count_law(scheme):
        return math.comb(count[0] + n - 1, n - 1)
    if subset := _subset_law(scheme):
        return math.comb(n, subset[0])
    return 1 if scheme.kind == CONSTANT else None


def iter_support(scheme):
    """Stream the (weight vector, probability) atoms of a finite-support scheme.

    The scheme is checked here, before the first atom is drawn.
    """
    size = support_size(scheme)
    if size is None:
        raise UnsupportedSchemeError(f"{scheme.label()} has infinite support")
    if size > MAX_ATOMS:
        raise UnsupportedSchemeError(
            f"{scheme.label()} support has {size} atoms, above cap {MAX_ATOMS}")
    return _atoms(scheme)


def _atoms(scheme):
    n = scheme.n
    if count := _count_law(scheme):
        trials, scale = count
        log_t_fact = math.lgamma(trials + 1)
        for counts in _compositions(trials, n):
            logp = log_t_fact - trials * math.log(n)
            for k in counts:
                logp -= math.lgamma(k + 1)
            yield np.array(counts, float) * scale, math.exp(logp)
    elif subset := _subset_law(scheme):
        d, lo, hi = subset
        prob = 1.0 / math.comb(n, d)
        for idx in itertools.combinations(range(n), d):
            w = np.full(n, hi)
            w[list(idx)] = lo
            yield w, prob
    else:
        yield np.ones(n), 1.0


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# Condition checking

SLOPE_TOL = 0.2
MEAN_TOL = 1e-12   # |E[w_i] - 1| allowed by the unit-mean clause
MC_DRAWS = 200     # Monte Carlo draws per n for the bounded-away-from-zero clause

# exponent bounds for the third- and fourth-moment decay clauses; the
# sigma^{-1} factor in the third-moment clause is added per scheme
_THIRD_BOUND = {(3,): 0.0, (2, 1): -1.0, (1, 1, 1): -2.0}
_FOURTH_K = {(4,): 1, (3, 1): 2, (2, 2): 2, (2, 1, 1): 3, (1, 1, 1, 1): 4}


@dataclass
class ClauseVerdict:
    passed: bool
    evidence: dict

    def __bool__(self):
        return self.passed


@dataclass
class ConditionReport:
    """Per-condition verdicts with the per-n moment table behind them."""

    bw: ClauseVerdict
    cltw: ClauseVerdict
    vw_a: ClauseVerdict
    vw_b: ClauseVerdict
    table: list
    slopes: dict


def _fit_slope(ns, values):
    ns = np.asarray(ns, float)
    vals = np.abs(np.asarray(values, float))
    mask = np.isfinite(vals) & (vals > 0)
    if mask.sum() == 0:
        return None  # identically zero: decays trivially
    if mask.sum() < 2 or not mask.all():
        return math.inf if not np.isfinite(vals).all() else None
    return float(np.polyfit(np.log(ns), np.log(vals), 1)[0])


def _slope_ok(slope, bound):
    if slope is None:
        return True
    return slope <= bound + SLOPE_TOL


def _decay(slopes, bounds):
    """Decay clauses: each pattern's slope against its exponent bound.
    Returns ``(all passed, evidence by str(pattern))``."""
    details = {str(pat): {"slope": slopes[pat], "bound": bound,
                          "passed": _slope_ok(slopes[pat], bound)}
               for pat, bound in bounds.items()}
    return all(d["passed"] for d in details.values()), details


def check_conditions(scheme_factory, n_grid, seed=0):
    """Certify the weight conditions over a grid of sample sizes.

    Asymptotic o(.)/O(.) clauses are decided by log-log regression of the
    moment magnitude on n, compared against the target exponent with a
    +-``SLOPE_TOL`` slope margin. The score-scale a_n^2 is taken proportional
    to n (the canonical regime for the models in this package).
    """
    n_grid = sorted(int(n) for n in n_grid)
    if len(n_grid) < 3:
        raise ParameterError("need at least 3 grid points")

    # (2.5): enough weights bounded away from zero, checked by Monte Carlo
    k2, frac_cap = 0.1, 0.05
    rng = np.random.default_rng(seed)
    table, fail_fracs = [], []
    mean_one = True
    for n in n_grid:
        scheme = scheme_factory(n)
        mean_one = mean_one and abs(raw_moment(scheme, (1,)) - 1.0) <= MEAN_TOL
        mom = theoretical_moments(scheme)
        table.append({"n": n, "sigma2": mom.sigma2, "c11": mom.c11,
                      **mom.third_order, **mom.fourth_order})
        m0 = math.ceil(n / 2)
        fails = sum(int(np.count_nonzero(sample(scheme, rng) > k2) < m0)
                    for _ in range(MC_DRAWS))
        fail_fracs.append(fails / MC_DRAWS)
    w_ok = all(f <= frac_cap for f in fail_fracs)

    slopes = {key: _fit_slope(n_grid, [row[key] for row in table])
              for key in table[0] if key != "n"}
    sigma_slope = slopes["sigma2"] if slopes["sigma2"] is not None else -math.inf

    sigma_positive = all(row["sigma2"] > 0 for row in table)
    # (2.2): sigma^2 = o(min(a_n^2 / p, n)) with a_n^2 ~ n and p fixed
    growth_bound = 1.0 - 2 * SLOPE_TOL
    bw_growth = _slope_ok(sigma_slope, growth_bound)
    bw_c11 = _slope_ok(slopes["c11"], -1.0)
    bw = ClauseVerdict(mean_one and sigma_positive and bw_growth and bw_c11, {
        "mean_one": mean_one,
        "sigma2_positive": sigma_positive,
        "sigma2_slope": sigma_slope if sigma_positive else None,
        "sigma2_growth_bound": growth_bound,
        "c11_slope": slopes["c11"],
    })

    c22_last = table[-1][(2, 2)]
    c22_first = table[0][(2, 2)]
    c22_ok = (math.isfinite(c22_last) and abs(c22_last - 1.0) < 0.1
              and abs(c22_last - 1.0) <= abs(c22_first - 1.0) + 0.05)
    c4_ok = all(math.isfinite(row[(4,)]) for row in table) and _slope_ok(slopes[(4,)], 0.0)
    cltw = ClauseVerdict(bool(bw) and c22_ok and c4_ok, {
        "c22_last": c22_last, "c22_first": c22_first, "c4_slope": slopes[(4,)],
    })

    # (2.6): third-moment decay, bound n^{-k+1} sigma^{-1}
    sigma_term = 0.5 * (sigma_slope if math.isfinite(sigma_slope) else 0.0)
    third_ok, third_details = _decay(
        slopes, {pat: bound - sigma_term for pat, bound in _THIRD_BOUND.items()})

    # (2.7)(a): sigma^2 in a compact subset of (0, inf)
    sigma_vals = [row["sigma2"] for row in table]
    sigma_compact = (sigma_positive and min(sigma_vals) > 1e-2
                     and max(sigma_vals) < 1e2
                     and abs(sigma_slope) <= SLOPE_TOL)
    fourth_a_ok, fourth_a = _decay(
        slopes, {pat: min(-k + 2.0, 0.0) for pat, k in _FOURTH_K.items()})
    vw_a = ClauseVerdict(bool(bw) and w_ok and third_ok and sigma_compact and fourth_a_ok, {
        "w_fail_fracs": fail_fracs, "third": third_details,
        "sigma2_compact": sigma_compact, "fourth": fourth_a,
    })

    # (2.7)(b): sigma^2 -> 0
    sigma_vanishes = sigma_positive and sigma_slope <= -SLOPE_TOL
    fourth_b_ok, fourth_b = _decay(slopes, {pat: -k + 2.0 for pat, k in _FOURTH_K.items()})
    vw_b = ClauseVerdict(bool(bw) and w_ok and third_ok and sigma_vanishes and fourth_b_ok, {
        "w_fail_fracs": fail_fracs, "third": third_details,
        "sigma2_vanishes": sigma_vanishes, "fourth": fourth_b,
    })

    return ConditionReport(bw, cltw, vw_a, vw_b, table, slopes)
