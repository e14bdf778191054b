"""Block draw streams: ``engine.block_streams`` against numpy's own seeding.

The oracle is written out here, not taken from ``draw_rng``, so a numpy
release that changes ``SeedSequence`` or PCG64 seeding fails this file
instead of silently changing every report. Both ways of setting a stream
are checked against it: the direct write into the bit generator and, with
the layout probe made to fail, the ``bit_gen.state`` setter.
"""

import sys
import threading

import numpy as np
import pytest

from gebs import engine
from gebs import models as M
from gebs import weights as W
from gebs.bench import child_seed
from gebs.baselines import residual_bootstrap
from gebs.engine import block_streams, draw_rng, run_bootstrap
from gebs.errors import ParameterError
from gebs.solver import solve_weighted_batch
from block_sizes import spy_blocks

# 1-, 2-, 3-, 5- and 9-word seeds (past four words SeedSequence's third
# mixing loop takes seed words too, and the spawn word's hash constant
# depends on their count), the word boundaries and 64-bit child seeds
SEEDS = (0, 7, 2**32 - 1, 2**32, 2**64 - 1, 2**70 + 5, 2**130 + 17, 2**270 + 3,
         child_seed(3, 1), child_seed(11, 40, 2), child_seed(2**40, 7))
BLOCKS = ((0, 128), (300, 428), (2**32 - 3, 2**32))
P50 = np.full(50, 1 / 50)


def oracle(seed, b):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(b,)))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("start, stop", BLOCKS)
def test_block_streams_equal_numpy_seeding(seed, start, stop):
    streams = block_streams(seed, start, stop)
    for b, rng in zip(range(start, stop), streams, strict=True):
        ref = oracle(seed, b)
        assert rng.bit_generator.state == ref.bit_generator.state, (seed, b)
        assert np.array_equal(rng.multinomial(50, P50), ref.multinomial(50, P50))


def test_seeding_constants_are_read_only(monkeypatch):
    # _pcg64_words works in place beside its cached hash columns and uint64
    # operands; a write into one would change every later stream
    cached, used = engine._hash_columns, []

    def recording(*key):
        used.extend(cached(*key))
        return cached(*key)

    monkeypatch.setattr(engine, "_hash_columns", recording)
    for seed in SEEDS:
        engine._pcg64_words(seed, 0, 1)
    monkeypatch.undo()
    operands = [v for v in vars(engine).values() if isinstance(v, np.ndarray)]
    assert len(operands) >= 10 and len(used) >= 4
    for constant in (*used, *operands):
        with pytest.raises(ValueError, match="read-only"):
            constant += 1
        with pytest.raises(ValueError, match="read-only"):
            constant[...] = 0
    for seed in SEEDS:
        for b, row in zip(range(300, 304), engine._pcg64_words(seed, 300, 304).tolist()):
            assert engine._state_dict(row) == oracle(seed, b).bit_generator.state, (seed, b)


def test_buffered_uint32_does_not_leak_into_the_next_stream():
    streams = block_streams(child_seed(5, 2), 40, 44)
    for b in range(40, 44):
        rng = next(streams)
        ref = oracle(child_seed(5, 2), b)
        assert rng.bit_generator.state == ref.bit_generator.state, b
        # an odd number of 32-bit draws leaves half a 64-bit output buffered
        rng.integers(0, 2**32, size=3, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == 1


def test_streams_equal_draw_rng_and_accept_numpy_integer_seeds():
    for seed in (np.int64(9), np.uint64(2**63 + 1), True):
        for b, rng in zip(range(5, 9), block_streams(seed, 5, 9), strict=True):
            assert rng.bit_generator.state == draw_rng(seed, b).bit_generator.state


def test_empty_block_and_draw_indices_beyond_one_word():
    assert list(block_streams(1, 4, 4)) == []
    with pytest.raises(ParameterError):
        block_streams(1, 0, 2**32 + 1)
    with pytest.raises(ParameterError):
        block_streams(1, -1, 3)


@pytest.mark.parametrize("seed", [-1, -2**40, 1.5, np.float64(2.0), None, "7"])
def test_bad_seeds_raise_like_draw_rng(seed):
    z = np.linspace(-1.0, 1.0, 8)
    data = M.Dataset(n=8, arrays={"z": z})
    with pytest.raises((TypeError, ValueError)) as streams_error:
        run_bootstrap(M.MeanModel(), data, np.array([0.0]), W.multinomial(8), 5, seed)
    if seed is not None:   # draw_rng(None, b) draws fresh OS entropy instead
        with pytest.raises(streams_error.type):
            draw_rng(seed, 0)


@pytest.fixture
def probe_fails(monkeypatch):
    """Direct writes land in a scratch buffer instead of the bit generator, as
    they would where numpy lays out the PCG64 state otherwise; the probe must
    then choose the ``bit_gen.state`` setter. A fresh per-thread cache makes
    the probe run again instead of reusing this thread's verdict."""
    monkeypatch.setattr(engine, "_THREAD", threading.local())
    monkeypatch.setattr(engine, "_state_memory",
                        lambda bit_gen: (memoryview(bytearray(32)), memoryview(bytearray(8))))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("start, stop", BLOCKS)
def test_probe_falls_back_to_the_state_setter(probe_fails, seed, start, stop):
    assert block_streams(seed, start, stop).__name__ == "by_setter"
    test_block_streams_equal_numpy_seeding(seed, start, stop)


def test_setter_fallback_clears_buffered_uint32(probe_fails):
    assert block_streams(0, 0, 1).__name__ == "by_setter"
    test_buffered_uint32_does_not_leak_into_the_next_stream()


@pytest.mark.skipif(sys.byteorder != "little" or sys.platform == "win32",
                    reason="the direct write assumes little-endian GCC/Clang uint128 words")
def test_probe_accepts_the_direct_write_on_little_endian_hosts():
    assert block_streams(7, 0, 3).__name__ == "written"


def _ar1_runs(seed):
    """Roots, outcomes and iterations of a gbs and an rb run on one AR(1) series."""
    data = M.simulate_ar1(0.4, 1.0, 1.0, 40, np.random.default_rng(seed))
    x = data["x"]
    beta_hat = np.array([np.sum(x[:-1] * x[1:]) / np.sum(x[:-1] ** 2)])
    gbs = run_bootstrap(M.Ar1Model(), data, beta_hat, W.multinomial(40), 60, seed)
    rb = residual_bootstrap(M.Ar1Model(), data, beta_hat, 60, seed + 1)
    return [(s.betas.tobytes(), s.outcomes.tolist(), s.iterations.tobytes())
            for s in (gbs, rb)]


def test_threads_running_bootstraps_at_once_match_serial_runs():
    # each thread has its own stream generator; more threads than cores and a
    # short switch interval make them interleave inside the draw loops
    seeds = range(6)
    expect = {seed: _ar1_runs(seed) for seed in seeds}
    got, errors = {}, []

    def work(seed):
        try:
            for _ in range(5):
                got.setdefault(seed, []).append(_ar1_runs(seed))
        except Exception as exc:   # re-raised below from the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in seeds]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert got == {seed: [expect[seed]] * 5 for seed in seeds}


def test_inner_bootstrap_between_blocks_leaves_the_outer_sample_exact(monkeypatch):
    z = np.random.default_rng(4).standard_normal(30)
    data = M.Dataset(n=30, arrays={"z": z})
    model, beta_hat, scheme = M.MeanModel(), np.array([z.mean()]), W.multinomial(30)
    # roots depend on the block size in the last bits: compare like blocks
    monkeypatch.setattr(engine, "block_rows", lambda width: 7)
    spied = spy_blocks(monkeypatch, engine)
    expect = run_bootstrap(model, data, beta_hat, scheme, 50, 12)
    expect_rows = np.concatenate(spied)
    blocks = []

    def nested(mdl, dat, W_block, init):
        # the inner run re-seeds this thread's generator before the outer
        # loop draws its next block
        run_bootstrap(mdl, dat, init, scheme, 9, 99)
        blocks.append(W_block)
        return solve_weighted_batch(mdl, dat, W_block, init)

    got = run_bootstrap(model, data, beta_hat, scheme, 50, 12, solve_fn=nested)
    assert [len(R) for R in blocks] == [7] * 7 + [1]
    assert got.betas.tobytes() == expect.betas.tobytes()
    assert np.concatenate(blocks).tobytes() == expect_rows.tobytes()
