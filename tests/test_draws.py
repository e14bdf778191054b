"""Block draws: the rows ``engine.resample`` hands to its block solver against
the per-draw reference ``draw_oracle``, byte for byte, for every weight law
and both baselines, in blocks of 128 rows and in the default cell budget's
single block; bounded integers from raw words against numpy's ``integers``,
rejected rows included; the cell budget itself, and one block per desk run of
every benchmark workload; and the slot reduction is looked up once per solve call."""

import importlib.util
import itertools
from pathlib import Path

import numpy as np
import pytest

from gebs import baselines, cli, engine
from gebs import models as M
from gebs import weights as W
from gebs.baselines import residual_bootstrap, wild_bootstrap
from gebs.engine import BLOCK_CELLS, block_rows, exact_variance_enumeration, run_bootstrap
from gebs.errors import ParameterError
from gebs.solver import solve_weighted
from block_sizes import fixed_rows, spy_blocks
from draw_oracle import oracle_rows, residual_draw, weight_draw, wild_draw

N_BOOT = 300
# block sizes of a run: two full blocks of 128 rows and a partial one, and
# the default budget's one block
SPLITS = ((fixed_rows(128), [128, 128, 44]), (block_rows, [N_BOOT]))
SEED = 2**40 + 11
LAWS = {
    "multinomial": W.multinomial,
    "moon": lambda n: W.m_out_of_n(n, 5),
    "jackknife": lambda n: W.delete_d_jackknife(n, 2),
    "downweight": lambda n: W.downweight_d_jackknife(n, 3),
    "dirichlet": lambda n: W.dirichlet(n, 0.7),
    "constant": W.constant,
    "exp": W.iid_exponential,
    "uniform": lambda n: W.iid_uniform(n, 0.2, 1.8),
}


def rng(seed=0):
    return np.random.default_rng(seed)


def pinned(model, data, W, beta_hat):
    """A block hook that solves nothing: every draw keeps ``beta_hat``."""
    return np.tile(beta_hat, (len(W), 1)), np.full(len(W), "", dtype=object), None


def splits(monkeypatch, blocks):
    """Set each of ``SPLITS``' block sizes in turn, emptying ``blocks``, and
    yield the sizes of the blocks a run of ``N_BOOT`` draws should hand over."""
    for rows, sizes in SPLITS:
        monkeypatch.setattr(engine, "block_rows", rows)
        blocks.clear()
        yield sizes


def assert_blocks_equal_oracle(blocks, ref, sizes):
    assert [len(R) for R in blocks] == sizes
    for a, b in itertools.combinations(blocks, 2):
        assert not np.shares_memory(a, b)
    got = np.concatenate(blocks)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", [7, 50, 240])
@pytest.mark.parametrize("law", sorted(LAWS))
def test_weight_blocks_equal_per_draw_sampling(monkeypatch, law, n):
    scheme = LAWS[law](n)
    data = M.Dataset(n=n, arrays={"z": rng(n).standard_normal(n)})
    blocks = spy_blocks(monkeypatch, engine)
    ref = oracle_rows(weight_draw(scheme), SEED, N_BOOT)
    for sizes in splits(monkeypatch, blocks):
        run_bootstrap(M.MeanModel(), data, np.zeros(1), scheme, N_BOOT, SEED,
                      solve_fn=pinned)
        assert_blocks_equal_oracle(blocks, ref, sizes)
    assert W.sample(scheme, engine.draw_rng(SEED, 3)).tobytes() == ref[3].tobytes()


def _rb_cases():
    ar1 = M.simulate_ar1(0.4, 1.0, 1.0, 60, rng(4))
    linear = M.simulate_linear([2.0, -1.0], 40, rng(1))
    iso = M.load_isomerization()
    return {"ar1": (M.Ar1Model(), ar1, np.array([0.35])),
            "linear": (M.LinearModel(p=2), linear, np.array([1.9, -1.1])),
            "isomerization": (M.IsomerizationModel(), iso,
                              np.array([35.0, 0.07, 0.04, 0.17]))}


@pytest.mark.parametrize("case", sorted(_rb_cases()))
def test_residual_blocks_equal_per_draw_resampling(monkeypatch, case):
    model, data, beta_hat = _rb_cases()[case]
    blocks = spy_blocks(monkeypatch, baselines)
    ref = oracle_rows(residual_draw(model, data, beta_hat), SEED, N_BOOT)
    for sizes in splits(monkeypatch, blocks):
        residual_bootstrap(model, data, beta_hat, N_BOOT, SEED, solve_fn=pinned)
        assert_blocks_equal_oracle(blocks, ref, sizes)


def _wb_cases():
    ar1 = M.simulate_ar1(0.4, 1.0, 9.0, 50, rng(5))
    linear = M.simulate_linear([2.0, -1.0], 40, rng(6))
    fum = M.load_fumigant()
    glm = M.simulate_glm([-1.0, 2.0], np.full(8, 30), np.linspace(-1, 2, 8), rng(13))
    return {"ar1": (M.Ar1Model(), ar1, np.array([0.35])),
            "linear": (M.LinearModel(p=2), linear, np.array([1.9, -1.1])),
            "fumigant": (M.LogisticIndividualModel(), fum,
                         solve_weighted(M.LogisticGroupModel(), fum, np.ones(fum.n)).beta),
            "glm": (M.LogisticIndividualModel(), glm,
                    solve_weighted(M.LogisticGroupModel(), glm, np.ones(glm.n)).beta)}


@pytest.mark.parametrize("case", sorted(_wb_cases()))
def test_wild_blocks_equal_per_draw_multipliers(monkeypatch, case):
    model, data, beta_hat = _wb_cases()[case]
    blocks = spy_blocks(monkeypatch, baselines)
    ref = oracle_rows(wild_draw(model, data, beta_hat), SEED, N_BOOT)
    for sizes in splits(monkeypatch, blocks):
        wild_bootstrap(model, data, beta_hat, N_BOOT, SEED)
        assert_blocks_equal_oracle(blocks, ref, sizes)


# (bound, count) and how many of the 300 rows hold a Lemire rejection: near
# 2^32 most rows reject and are redrawn; small bounds almost never reject
INTEGER_CASES = [(3 * 2**30, 8, 262), (2**31 + 1, 6, 298), (2**32 - 1, 9, 0),
                 (7, 7, 0), (1, 5, 0)]


@pytest.mark.parametrize("bound, count, n_redrawn", INTEGER_CASES)
def test_integer_blocks_equal_numpy_integers(monkeypatch, bound, count, n_redrawn):
    blocks, redrawn = [], []

    def finish(raw, redraw):
        def counting(b):
            redrawn.append(b)
            return redraw(b)
        return engine.integers_block(raw, bound, count, counting)

    def recording(R):
        blocks.append(R)
        return pinned(None, None, R, np.zeros(1))

    draw = engine.Draws((count + 1) // 2, engine.fill_raw, finish, np.uint64)
    ref = np.stack([engine.draw_rng(SEED, b).integers(0, bound, size=count)
                    for b in range(N_BOOT)])
    for sizes in splits(monkeypatch, blocks):
        redrawn.clear()
        engine.resample(np.zeros(1), N_BOOT, SEED, draw, recording, "integers")
        assert_blocks_equal_oracle(blocks, ref, sizes)
        assert len(redrawn) == n_redrawn


@pytest.mark.parametrize("bound", [0, 2**32, 2**40])
def test_integer_blocks_refuse_bounds_outside_numpys_lemire_path(bound):
    with pytest.raises(ParameterError):
        engine.integers_block(np.zeros((1, 1), np.uint64), bound, 2, engine.draw_rng)


def test_block_rows_fill_the_cell_budget():
    widths = np.arange(1, BLOCK_CELLS + 1)
    rows = np.array([block_rows(w) for w in widths.tolist()])
    assert np.all(rows * widths <= BLOCK_CELLS)
    assert np.all((rows + 1) * widths > BLOCK_CELLS)   # as many rows as fit
    for width in (BLOCK_CELLS + 1, 3 * BLOCK_CELLS, 10**9):
        assert block_rows(width) == 1


_spec = importlib.util.spec_from_file_location(
    "gebs_workloads", Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_benchmark_desk_runs_reach_the_solver_in_one_block(monkeypatch, tmp_path, name):
    workload = workloads.WORKLOADS[name]
    blocks = spy_blocks(monkeypatch, baselines, engine)
    argv = workload.argv(workloads.CHECK_SEED, tmp_path / "report.csv")
    assert cli.main(argv) == cli.EXIT_OK
    runs = workload.sims * len(workload.methods)
    assert [len(R) for R in blocks] == [workload.boots] * runs


def test_slot_reduction_is_built_once_per_call(monkeypatch):
    # one ``slots`` lookup per ``solve_weighted_batch`` call, built through
    # ``cell_slots``; the wild bootstrap calls ``cell_slots`` itself, and the
    # lookup on its slot rows finds nothing left to reduce
    calls = []
    for name in ("slots", "cell_slots"):
        def counting(self, data, _name=name, _real=getattr(M.LogisticIndividualModel, name)):
            calls.append(_name)
            return _real(self, data)
        monkeypatch.setattr(M.LogisticIndividualModel, name, counting)
    model, fum = M.LogisticIndividualModel(), M.load_fumigant()
    beta_hat = solve_weighted(M.LogisticGroupModel(), fum, np.ones(fum.n)).beta
    calls.clear()
    run_bootstrap(model, fum, beta_hat, W.multinomial(240), N_BOOT, SEED)
    assert calls == ["slots", "cell_slots"]
    calls.clear()
    wild_bootstrap(model, fum, beta_hat, N_BOOT, SEED)
    assert calls == ["cell_slots", "slots", "cell_slots"]
    # 3 groups of 4 trials: 6 slots for 12 trials; 220 atoms, two blocks
    small = M.simulate_glm([-1.0, 2.0], np.full(3, 4), np.array([-1.0, 0.0, 1.0]), rng(2))
    monkeypatch.setattr(engine, "block_rows", fixed_rows(128))
    assert W.support_size(W.delete_d_jackknife(12, 3)) > 128
    calls.clear()
    exact_variance_enumeration(model, small, np.array([-0.5, 1.5]),
                               W.delete_d_jackknife(12, 3))
    assert calls == ["slots", "cell_slots"] * 2


def test_no_reduction_unless_it_shrinks_the_slots():
    model = M.LogisticIndividualModel()
    fum = M.load_fumigant()
    slot_data, G = model.slots(fum)
    assert model.weight_count(slot_data) < model.weight_count(fum)
    # slot data has two slots per cell already; one trial per cell has two per trial
    assert model.slots(slot_data) is None
    single = M.simulate_glm([-1.0, 2.0], np.ones(5, int), np.linspace(-1, 1, 5), rng(3))
    assert model.slots(single) is None
    assert model.cell_slots(single)[1].shape == (5, 10)
