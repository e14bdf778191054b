"""The block NLS root against its per-draw reference, ``tests/nls_oracle.py``."""

import numpy as np
import pytest

from gebs import bench
from gebs import models as M
from gebs import weights as W
from gebs.baselines import residual_bootstrap
from gebs.engine import draw_rng, run_bootstrap
from gebs.errors import DegenerateRunError, EvaluationError
from nls_oracle import _gn_step, nls_draw_root as oracle_root
from per_draw import per_draw


@pytest.fixture(scope="module")
def iso():
    data = M.load_isomerization()
    model = M.IsomerizationModel()
    fits = sorted(bench.nls_roots(model, data, np.ones(data.n)), key=lambda f: f[1])
    return model, data, tuple(th for th, _ in fits)


def _hooks(anchors):
    """The block root and the per-draw oracle, both as ``solve_fn`` hooks."""
    def block(model, data, W_, _beta_hat):
        return bench.nls_draw_root(model, data, W_, anchors)

    return block, per_draw(lambda model, data, w, _beta_hat: oracle_root(
        model, data, w, anchors))


def _sample(run, *args):
    try:
        return run(*args)
    except DegenerateRunError as exc:
        return exc.sample


def _resample(method, model, data, beta_hat, seed, hook):
    """1000 draws of ``method`` solved by ``hook``; rb refits rebuilt blocks."""
    if method == "rb":
        return residual_bootstrap(model, data, beta_hat, 1000, seed, solve_fn=hook)
    return run_bootstrap(model, data, beta_hat, W.parse_scheme(method[4:], data.n),
                         1000, seed, solve_fn=hook)


def _picks(betas, anchor):
    return int(np.count_nonzero(np.all(betas == anchor, axis=1)))


@pytest.mark.parametrize("method", ["gbs-multinomial", "gbs-exp", "gbs-uniform", "rb"])
def test_block_root_matches_per_draw_oracle(iso, method):
    model, data, anchors = iso
    beta_hat = anchors[0]
    picks = 0
    for seed in range(3):
        block, ref = (_sample(_resample, method, model, data, beta_hat, seed, hook)
                      for hook in _hooks(anchors))
        assert np.array_equal(block.betas, ref.betas)
        assert np.array_equal(block.outcomes, ref.outcomes)
        assert block.failures == ref.failures
        assert _picks(block.betas, anchors[1]) == _picks(ref.betas, anchors[1])
        picks += _picks(block.betas, anchors[1])
    assert picks > 0   # both anchors are in play


def test_zero_weight_row_keeps_the_primary_root(iso):
    # an all-zero row makes the Gauss-Newton system singular, so its block is
    # solved row by row; that draw keeps the primary root and converges
    model, data, anchors = iso
    Wm = np.vstack([np.zeros(data.n), np.ones(data.n),
                    draw_rng(5, 0).exponential(size=(6, data.n))])
    betas, failures, iterations = bench.nls_draw_root(model, data, Wm, anchors)
    ref_betas, ref_failures, _ = _hooks(anchors)[1](model, data, Wm, anchors[0])
    assert np.array_equal(betas, ref_betas)
    assert list(failures) == list(ref_failures) == [""] * len(Wm)
    assert np.array_equal(betas[0], anchors[0])
    assert iterations is None


def test_blocks_where_every_draw_picks_the_secondary_root(iso):
    model, data, anchors = iso
    rows = []
    for b in range(200):
        w = W.sample(W.multinomial(data.n), draw_rng(8, b))
        if model.objective(data, w, anchors[1]) < model.objective(data, w, anchors[0]):
            rows.append(w)
    assert len(rows) > 1
    for Wm in (np.stack(rows[:1]), np.stack(rows)):
        betas, failures, _ = bench.nls_draw_root(model, data, Wm, anchors)
        assert np.array_equal(betas, np.tile(anchors[1], (len(Wm), 1)))
        assert list(failures) == [""] * len(Wm)


def test_one_anchor_takes_the_gauss_newton_step_on_every_draw(iso):
    model, data, anchors = iso
    Wm = np.stack([W.sample(W.iid_exponential(data.n), draw_rng(9, b))
                   for b in range(40)])
    betas, failures, _ = bench.nls_draw_root(model, data, Wm, anchors[:1])
    assert list(failures) == [""] * len(Wm)
    assert np.array_equal(betas, np.stack([_gn_step(model, data, w, anchors[0])
                                           for w in Wm]))
    # where the primary root wins, one anchor and two give the same root
    two, _, _ = bench.nls_draw_root(model, data, Wm, anchors)
    primary = ~np.all(two == anchors[1], axis=1)
    assert primary.any() and not primary.all()
    assert np.array_equal(betas[primary], two[primary])


def _edge_data():
    """A design whose first slot (H = 0.2, P = I = 0) has D = 1 + 0.2 theta2,
    which vanishes exactly at the lower bound theta2 = -5; the responses pull
    the Gauss-Newton step towards that bound."""
    rng = np.random.default_rng(0)
    H = np.concatenate([[0.2], rng.uniform(0.1, 0.5, 7)])
    P = np.concatenate([[0.0], rng.uniform(0.5, 2.0, 7)])
    I = np.concatenate([[0.0], rng.uniform(0.0, 1.0, 7)])
    design = M.Dataset(n=8, arrays={"H": H, "P": P, "I": I})
    y = M.IsomerizationModel().f(design, np.array([10.0, -4.9, 1.0, 0.2]))
    return M.Dataset(n=8, arrays={**design.arrays, "y": y})


def test_candidate_outside_the_domain_fails_where_the_per_draw_root_raised():
    model, data = M.IsomerizationModel(), _edge_data()
    anchors = (np.array([10.0, 0.5, 1.0, 0.2]), np.array([10.0, 1.0, 1.0, 0.2]))
    Wm = np.random.default_rng(1).exponential(size=(200, data.n))
    betas, failures, _ = bench.nls_draw_root(model, data, Wm, anchors)
    ref_betas, ref_failures, _ = _hooks(anchors)[1](model, data, Wm, anchors[0])
    assert list(failures) == list(ref_failures)
    assert 0 < np.count_nonzero(failures == EvaluationError.__name__) < len(Wm)
    ok = failures == ""
    assert np.array_equal(betas[ok], ref_betas[ok])
    # an anchor outside the domain fails every draw, as each per-draw call did
    bad = (np.array([10.0, -5.0, 0.0, 0.0]),)
    _, failures, _ = bench.nls_draw_root(model, data, Wm[:3], bad)
    assert list(failures) == [EvaluationError.__name__] * 3


def test_batched_f_flags_exactly_the_rows_where_the_denominator_vanishes(iso):
    model, data, anchors = iso
    H = data["H"]
    thetas = np.vstack([anchors[0], anchors[1],
                        [30.0, -1.0 / H[3], 0.0, 0.0],    # D = 0 at slot 3
                        [1.0, 0.0, 0.0, 0.0],
                        draw_rng(2, 0).uniform(-1.0, 1.0, size=(4, 4))])
    F, ok = model.f(data, thetas)
    assert F.shape == (len(thetas), data.n)
    for theta, row, flagged in zip(thetas, F, ~ok):
        vanishes = np.any(np.abs(1.0 + theta[1] * H + theta[2] * data["P"]
                                 + theta[3] * data["I"]) <= 1e-12)
        assert flagged == vanishes
        if flagged:
            with pytest.raises(EvaluationError):
                model.f(data, theta)
        else:
            assert np.array_equal(row, model.f(data, theta))
    assert list(ok) == [True, True, False] + [True] * 5
