"""Weight schemes: construction, parsing, sampling, and exact moments."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gebs import weights as W
from gebs.errors import ParameterError, ParseError, ShapeError, UnsupportedSchemeError


# ---------------------------------------------------------------------------
# Construction and parsing

def test_constructor_validation():
    with pytest.raises(ParameterError):
        W.delete_d_jackknife(5, 5)
    with pytest.raises(ParameterError):
        W.delete_d_jackknife(5, 0)
    with pytest.raises(ParameterError):
        W.dirichlet(5, 0.0)
    with pytest.raises(ParameterError):
        W.iid_uniform(5, 0.5, 0.4)
    with pytest.raises(ParameterError):
        W.iid_uniform(5, 0.3, 1.5)  # lo + hi != 2
    for lo, hi in ((math.nan, 1.5), (0.5, math.nan)):
        with pytest.raises(ParameterError):
            W.iid_uniform(5, lo, hi)   # NaN fails no comparison
    with pytest.raises(ParameterError):
        W.dirichlet(5, math.inf)
    for bad in (True, "2"):   # the helpers pass their values to the same check
        with pytest.raises(ParameterError):
            W.dirichlet(5, bad)
        with pytest.raises(ParameterError):
            W.iid_uniform(5, bad, 1.0)
    with pytest.raises(ParameterError):
        W.WeightScheme("nope", 5)
    with pytest.raises(ParameterError):
        W.multinomial(0)


@pytest.mark.parametrize("make, key", [(W.delete_d_jackknife, "d"),
                                       (W.downweight_d_jackknife, "d"),
                                       (W.m_out_of_n, "m")])
@pytest.mark.parametrize("value", [2, np.int64(2), np.uint8(2)], ids=["int", "int64", "uint8"])
def test_integer_parameters_accept_any_integral_type(make, key, value):
    scheme = make(10, value)
    assert type(scheme.params[key]) is int and scheme.params[key] == 2
    assert scheme.label() == f"{scheme.kind}({key}=2)"
    assert scheme == make(10, 2)


@pytest.mark.parametrize("make", [W.delete_d_jackknife, W.downweight_d_jackknife,
                                  W.m_out_of_n])
@pytest.mark.parametrize("value", [True, np.bool_(True), 2.0, np.array(2.0), "2", None])
def test_integer_parameters_reject_bool_and_non_integers(make, value):
    with pytest.raises(ParameterError):
        make(10, value)


@pytest.mark.parametrize("kind, params", [
    ("dirichlet", {"alpha": "x"}), ("dirichlet", {"alpha": True}),
    ("dirichlet", {"alpha": np.bool_(True)}), ("dirichlet", {}),
    ("dirichlet", {"alpha": 10 ** 400}),
    ("uniform", {"lo": "0.5", "hi": 1.5}), ("uniform", {"lo": False, "hi": 2.0}),
    ("uniform", {"lo": 0.5, "hi": np.array(1.5)}), ("uniform", {"lo": 0.5})])
def test_real_parameters_reject_bool_and_non_reals(kind, params):
    with pytest.raises(ParameterError):
        W.WeightScheme(kind, 5, params)


@pytest.mark.parametrize("kind, params", [
    ("dirichlet", {"alpha": 2}), ("dirichlet", {"alpha": np.float32(0.5)}),
    ("uniform", {"lo": 0, "hi": np.int64(2)})])
def test_real_parameters_are_stored_as_float(kind, params):
    scheme = W.WeightScheme(kind, 5, params)
    assert all(type(v) is float for v in scheme.params.values())
    assert scheme.params == params


@pytest.mark.parametrize("n", [True, np.bool_(True), 2.0, np.float64(2.0), "2", None])
def test_scheme_length_rejects_bool_and_non_integers(n):
    with pytest.raises(ParameterError):
        W.multinomial(n)


def test_scheme_length_accepts_numpy_integers():
    scheme = W.multinomial(np.int64(5))
    assert type(scheme.n) is int and scheme == W.multinomial(5)
    assert W.sample(scheme, np.random.default_rng(0)).shape == (5,)


def test_parse_scheme_grammar():
    assert W.parse_scheme("multinomial", 7) == W.multinomial(7)
    assert W.parse_scheme("jackknife:d=2", 7) == W.delete_d_jackknife(7, 2)
    assert W.parse_scheme("downweight:d=3", 7) == W.downweight_d_jackknife(7, 3)
    assert W.parse_scheme("dirichlet:alpha=4", 7) == W.dirichlet(7, 4.0)
    assert W.parse_scheme("uniform:0.5,1.5", 7) == W.iid_uniform(7, 0.5, 1.5)
    assert W.parse_scheme("uniform", 7) == W.iid_uniform(7, 0.5, 1.5)
    assert W.parse_scheme("exp", 7) == W.iid_exponential(7)
    assert W.parse_scheme("moon:m=3", 7) == W.m_out_of_n(7, 3)
    assert W.parse_scheme("constant", 7) == W.constant(7)


def test_parse_scheme_errors():
    with pytest.raises(ParseError):
        W.parse_scheme("gaussian", 7)
    with pytest.raises(ParseError):
        W.parse_scheme("jackknife:k=2", 7)
    with pytest.raises(ParameterError):
        W.parse_scheme("jackknife:d=9", 7)  # d >= n
    for spec in ("exp:1", "multinomial:2", "constant:1"):
        with pytest.raises(ParseError):
            W.parse_scheme(spec, 7)  # these schemes take no parameters


def test_labels():
    assert W.multinomial(5).label() == "multinomial"
    assert W.delete_d_jackknife(5, 2).label() == "jackknife(d=2)"
    assert W.iid_exponential(5).label() == "exp"


# ---------------------------------------------------------------------------
# Sampling invariants

ALL_SCHEMES = [
    W.multinomial(12),
    W.m_out_of_n(12, 5),
    W.delete_d_jackknife(12, 3),
    W.downweight_d_jackknife(12, 3),
    W.dirichlet(12, 4.0),
    W.iid_uniform(12, 0.5, 1.5),
    W.iid_exponential(12),
    W.constant(12),
]


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.label())
def test_sample_nonnegative_right_length(scheme):
    rng = np.random.default_rng(0)
    for _ in range(20):
        w = W.sample(scheme, rng)
        assert w.shape == (scheme.n,)
        assert np.all(w >= 0)


FIXED_SUM_KINDS = (W.MULTINOMIAL, W.M_OUT_OF_N, W.DELETE_D_JACKKNIFE,
                   W.DOWNWEIGHT_D_JACKKNIFE, W.CONSTANT)


@pytest.mark.parametrize("scheme", [s for s in ALL_SCHEMES if s.kind in FIXED_SUM_KINDS],
                         ids=lambda s: s.label())
def test_fixed_sum_schemes_sum_to_n(scheme):
    rng = np.random.default_rng(1)
    for _ in range(20):
        assert W.sample(scheme, rng).sum() == pytest.approx(scheme.n, abs=1e-9)


def test_jackknife_draw_shape():
    rng = np.random.default_rng(2)
    w = W.sample(W.delete_d_jackknife(10, 3), rng)
    assert np.count_nonzero(w == 0.0) == 3
    assert np.all(w[w > 0] == pytest.approx(10 / 7))


def test_sample_mean_is_one():
    rng = np.random.default_rng(3)
    for scheme in ALL_SCHEMES:
        draws = np.stack([W.sample(scheme, rng) for _ in range(4000)])
        assert draws.mean() == pytest.approx(1.0, abs=0.05)


@given(n=st.integers(2, 30), d_frac=st.floats(0.01, 0.99))
@settings(max_examples=25, deadline=None)
def test_jackknife_weights_always_valid(n, d_frac):
    d = max(1, min(n - 1, int(d_frac * n)))
    scheme = W.delete_d_jackknife(n, d)
    w = W.sample(scheme, np.random.default_rng(0))
    assert w.sum() == pytest.approx(n)
    assert np.count_nonzero(w) == n - d


# ---------------------------------------------------------------------------
# Exact moments vs simulation and enumeration

def test_known_sigma2_values():
    n = 10
    assert W.theoretical_moments(W.multinomial(n)).sigma2 == pytest.approx((n - 1) / n)
    assert W.theoretical_moments(W.delete_d_jackknife(n, 1)).sigma2 == pytest.approx(1 / (n - 1))
    d = 3
    assert W.theoretical_moments(W.delete_d_jackknife(n, d)).sigma2 == pytest.approx(d / (n - d))
    assert W.theoretical_moments(W.iid_uniform(n, 0.5, 1.5)).sigma2 == pytest.approx(1.0 / 12)
    assert W.theoretical_moments(W.iid_exponential(n)).sigma2 == pytest.approx(1.0)
    alpha = 4.0
    # Dirichlet(alpha 1_n) scaled by n: var = n^2 * a(na - a) / ((na)^2 (na+1))
    a, na = alpha, n * alpha
    expect = n * n * (a * (na - a)) / (na * na * (na + 1.0))
    assert W.theoretical_moments(W.dirichlet(n, alpha)).sigma2 == pytest.approx(expect)
    assert W.theoretical_moments(W.constant(n)).sigma2 == 0.0


def test_iid_scheme_moments_factorize():
    mom = W.theoretical_moments(W.iid_exponential(9))
    # standardized exponential: all mixed moments over distinct indices factor
    assert mom.c11 == pytest.approx(0.0, abs=1e-12)
    assert mom.third_order[(2, 1)] == pytest.approx(0.0, abs=1e-12)
    assert mom.third_order[(3,)] == pytest.approx(2.0)  # skewness of Exp(1)
    assert mom.fourth_order[(2, 2)] == pytest.approx(1.0)
    assert mom.fourth_order[(4,)] == pytest.approx(9.0)  # E[(X-1)^4]/var^2 for Exp(1)


@pytest.mark.parametrize("scheme", [
    W.multinomial(6),
    W.m_out_of_n(6, 4),
    W.delete_d_jackknife(6, 2),
    W.downweight_d_jackknife(6, 2),
], ids=lambda s: s.label())
def test_theoretical_moments_match_enumeration(scheme):
    atoms = list(W.iter_support(scheme))
    draws = np.stack([a[0] for a in atoms])
    probs = np.array([a[1] for a in atoms])
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    emp = W.empirical_moments(draws, probs)
    mom = W.theoretical_moments(scheme)
    assert emp.sigma2 == pytest.approx(mom.sigma2, rel=1e-10)
    assert emp.c11 == pytest.approx(mom.c11, abs=1e-10)
    for pat in W.THIRD_ORDER_PATTERNS:
        assert emp.third_order[pat] == pytest.approx(mom.third_order[pat],
                                                     rel=1e-8, abs=1e-8)
    for pat in W.FOURTH_ORDER_PATTERNS:
        assert emp.fourth_order[pat] == pytest.approx(mom.fourth_order[pat],
                                                      rel=1e-8, abs=1e-8)


@pytest.mark.parametrize("scheme", [
    W.dirichlet(8, 2.0),
    W.iid_uniform(8, 0.5, 1.5),
    W.iid_exponential(8),
], ids=lambda s: s.label())
def test_theoretical_moments_match_simulation(scheme):
    rng = np.random.default_rng(7)
    draws = np.stack([W.sample(scheme, rng) for _ in range(60000)])
    emp = W.empirical_moments(draws)
    mom = W.theoretical_moments(scheme)
    assert emp.sigma2 == pytest.approx(mom.sigma2, rel=0.03)
    assert emp.c11 == pytest.approx(mom.c11, abs=0.05)
    assert emp.third_order[(3,)] == pytest.approx(mom.third_order[(3,)], abs=0.15)
    assert emp.fourth_order[(2, 2)] == pytest.approx(mom.fourth_order[(2, 2)], abs=0.2)


def test_raw_moment_pattern_too_long():
    with pytest.raises(ParameterError):
        W.raw_moment(W.multinomial(2), (1, 1, 1))


# ---------------------------------------------------------------------------
# Support enumeration

def test_support_sizes():
    assert W.support_size(W.multinomial(4)) == math.comb(7, 3)
    assert W.support_size(W.delete_d_jackknife(6, 2)) == 15
    assert W.support_size(W.constant(5)) == 1
    assert W.support_size(W.iid_exponential(5)) is None


def test_enumerate_support_rejects_infinite_and_oversized():
    with pytest.raises(UnsupportedSchemeError):
        list(W.iter_support(W.iid_uniform(5, 0.5, 1.5)))
    with pytest.raises(UnsupportedSchemeError):
        list(W.iter_support(W.multinomial(30)))   # about 5.9e16 atoms


@pytest.mark.parametrize("scheme", [
    W.multinomial(4),
    W.m_out_of_n(4, 3),
    W.delete_d_jackknife(4, 2),
    W.downweight_d_jackknife(4, 1),
    W.constant(4),
], ids=lambda s: s.label())
def test_samples_lie_in_support(scheme):
    atoms = [w for w, _ in W.iter_support(scheme)]
    rng = np.random.default_rng(5)
    for _ in range(50):
        w = W.sample(scheme, rng)
        assert any(np.array_equal(w, atom) for atom in atoms), w


def test_enumerate_multinomial_probabilities():
    atoms = list(W.iter_support(W.multinomial(3)))
    assert len(atoms) == math.comb(5, 2)
    probs = {tuple(w): p for w, p in atoms}
    assert sum(probs.values()) == pytest.approx(1.0)
    assert probs[(3.0, 0.0, 0.0)] == pytest.approx((1 / 3) ** 3)
    assert probs[(1.0, 1.0, 1.0)] == pytest.approx(6 * (1 / 3) ** 3)


def test_empirical_moments_input_validation():
    with pytest.raises(ShapeError):
        W.empirical_moments([[1.0, 1.0], [1.0, 1.0, 1.0]])
    with pytest.raises(ShapeError):
        W.empirical_moments([[1.0, 1.0]])
    with pytest.raises(ShapeError):
        W.empirical_moments(np.ones((4, 3)), probs=np.ones(5))


# ---------------------------------------------------------------------------
# Condition checking

def test_check_conditions_needs_grid():
    with pytest.raises(ParameterError):
        W.check_conditions(W.multinomial, [10, 20])


def test_constant_scheme_fails_basic_condition():
    report = W.check_conditions(W.constant, [10, 20, 40, 80])
    assert not report.bw
    assert not report.cltw
    assert not report.vw_a
    assert not report.vw_b


def test_off_mean_scheme_fails_basic_condition():
    def off_mean(n):
        # a uniform law on [0.5, 2.0] has mean 1.25; built past the validator
        scheme = W.iid_uniform(n, 0.5, 1.5)
        object.__setattr__(scheme, "params", {"lo": 0.5, "hi": 2.0})
        return scheme

    report = W.check_conditions(off_mean, [10, 20, 40, 80])
    assert report.bw.evidence["mean_one"] is False
    assert not report.bw
    good = W.check_conditions(lambda n: W.iid_uniform(n, 0.5, 1.5), [10, 20, 40, 80])
    assert good.bw.evidence["mean_one"] is True
    assert good.bw
