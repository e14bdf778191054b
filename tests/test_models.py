"""Models: scores, simulators, CSV loaders, bundled data."""

import numpy as np
import pytest

from gebs import models as M
from gebs.errors import EvaluationError, ParseError, ShapeError


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# Score consistency across the vectorized and per-slot interfaces

def _datasets():
    r = rng(1)
    yield M.MeanModel(), M.Dataset(n=8, arrays={"z": r.standard_normal(8)}), np.array([0.3])
    yield (M.LinearModel(p=2), M.simulate_linear([1.0, -2.0], 12, r),
           np.array([0.9, -1.8]))
    yield M.Ar1Model(), M.simulate_ar1(0.2, 1.0, 4.0, 10, r), np.array([0.15])
    glm = M.simulate_glm([-1.0, 2.0], np.full(5, 6), np.linspace(0, 1, 5), r)
    yield M.LogisticGroupModel(), glm, np.array([-0.8, 1.5])
    yield M.LogisticIndividualModel(), glm, np.array([-0.8, 1.5])
    yield M.IsomerizationModel(), M.load_isomerization(), np.array([35.0, 0.07, 0.04, 0.17])


@pytest.mark.parametrize("model,data,beta", list(_datasets()),
                         ids=lambda v: type(v).__name__ if isinstance(v, M.Model) else None)
def test_per_slot_matches_vectorized(model, data, beta):
    n = model.weight_count(data)
    scores = model.score_all(data, beta)
    jacs = model.jacobian_all(data, beta)
    hess = model.hessian_all(data, beta)
    assert scores.shape == (n, model.p)
    assert jacs.shape == (n, model.p, model.p)
    assert hess.shape == (n, model.p, model.p, model.p)


def test_group_scores_aggregate_individual_scores():
    data = M.simulate_glm([-1.0, 2.0], np.full(5, 7), np.linspace(0, 1, 5), rng(2))
    beta = np.array([-0.5, 1.0])
    ind = M.LogisticIndividualModel().score_all(data, beta)
    grp = M.LogisticGroupModel().score_all(data, beta)
    summed = np.zeros_like(grp)
    np.add.at(summed, data["group"], ind)
    assert summed == pytest.approx(grp)


def test_mean_model_root_is_mean():
    data = M.Dataset(n=5, arrays={"z": np.array([1.0, 2.0, 3.0, 4.0, 10.0])})
    model = M.MeanModel()
    beta = model.default_init(data)
    assert np.sum(model.score_all(data, beta)) == pytest.approx(0.0, abs=1e-12)


def test_isomerization_domain_and_errors():
    data = M.load_isomerization()
    model = M.IsomerizationModel()
    assert model.in_domain(data, [35.0, 0.07, 0.04, 0.17])
    assert not model.in_domain(data, [35.0, np.nan, 0.04, 0.17])
    # denominator 1 + th2 H + th3 P + th4 I can be driven through zero
    bad = [35.0, -1.0 / float(data["H"][0]), 0.0, 0.0]
    assert not model.in_domain(data, bad)
    with pytest.raises(EvaluationError) as exc:
        model.f(data, bad)
    assert exc.value.index == 0


def test_objective_is_weighted_ssr():
    data = M.load_isomerization()
    model = M.IsomerizationModel()
    th = np.array([35.0, 0.07, 0.04, 0.17])
    w = np.linspace(0.5, 1.5, data.n)
    resid = data["y"] - model.f(data, th)
    assert model.objective(data, w, th) == pytest.approx(np.sum(w * resid ** 2))


# ---------------------------------------------------------------------------
# Simulators

def test_simulate_ar1_recursion():
    data = M.simulate_ar1(0.5, 1.0, 1.0, 20, rng(3))
    x = data["x"]
    assert x[0] == 0.0
    assert len(x) == 21
    assert data.n == 20
    with pytest.raises(ShapeError):
        M.simulate_ar1(0.5, 1.0, 1.0, 1, rng(3))


def test_simulate_ar1_heteroscedastic_pattern():
    # with phi = 0 the series is the raw error draw: odd slots small, even large
    data = M.simulate_ar1(0.0, 1.0, 10000.0, 4000, rng(4))
    e = data["x"][1:]
    odd = e[::2]    # t = 1, 3, ...
    even = e[1::2]  # t = 2, 4, ...
    assert np.var(odd) < 2.0
    assert np.var(even) > 5000.0


def test_simulate_glm_counts():
    N = np.array([4, 6, 8])
    X = np.array([0.0, 0.5, 1.0])
    data = M.simulate_glm([0.0, 1.0], N, X, rng(5))
    assert data.n == 3
    assert len(data["y_ind"]) == 18
    assert np.all(np.bincount(data["group"]) == N)
    grouped = np.bincount(data["group"], weights=data["y_ind"])
    assert grouped == pytest.approx(data["Y"])
    with pytest.raises(ShapeError):
        M.simulate_glm([0.0, 1.0], N, X[:2], rng(5))


def test_simulate_linear_shapes():
    data = M.simulate_linear([1.0, 2.0, 3.0], 15, rng(6))
    assert data["X"].shape == (15, 3)
    assert data["y"].shape == (15,)


# ---------------------------------------------------------------------------
# Loaders

def test_load_glm_csv_roundtrip(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text("N,X,Y\n4,0.1,2\n5,0.2,5\n")
    data = M.load_glm_csv(path)
    assert data.n == 2
    assert list(data["N"]) == [4, 5]
    assert list(data["y_ind"]) == [1, 1, 0, 0, 1, 1, 1, 1, 1]


@pytest.mark.parametrize("text,row", [
    ("N,X,Y\n4,0.1,5\n", 0),          # Y > N
    ("N,X,Y\n4,0.1,2\n0,0.2,0\n", 1), # N < 1
    ("N,X,Y\n4.5,0.1,2\n", 0),        # non-integer N
    ("N,X,Y\n4,0.1,2\n5,0.2,2.5\n", 1), # non-integer Y
    ("N,X,Y\nnan,0.1,2\n", 0),        # NaN N
    ("N,X,Y\n4,0.1,nan\n", 0),        # NaN Y
    ("N,X,Y\n4,oops,2\n", 0),         # non-numeric
])
def test_load_glm_csv_bad_rows(tmp_path, text, row):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ParseError) as exc:
        M.load_glm_csv(path)
    assert exc.value.row == row


def test_load_csv_header_and_empty(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ParseError):
        M.load_nls_csv(path)
    path.write_text("H,P,I,y\n")
    with pytest.raises(ParseError):
        M.load_nls_csv(path)


def test_load_ar1_csv(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("x\n0.0\n1.0\n0.5\n")
    data = M.load_ar1_csv(path)
    assert data.n == 2
    path.write_text("x\n0.0\n1.0\n")
    with pytest.raises(ParseError):
        M.load_ar1_csv(path)


def test_bundled_data():
    iso = M.load_isomerization()
    assert iso.n == 24
    assert set(iso.arrays) == {"H", "P", "I", "y"}
    fum = M.load_fumigant()
    assert fum.n == 10
    assert int(np.sum(fum["N"])) == 240
    assert len(fum["y_ind"]) == 240
