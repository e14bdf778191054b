"""Generalized-bootstrap driver: one resample loop over blocks of draws, the
variance and distribution estimates, percentile intervals, KS distances and
the enumeration oracle.

Only ``resample`` knows the per-draw streams, each equal to ``draw_rng(seed,
b)`` bit for bit. Per draw it does only what needs draw b's own stream; what
does not use the stream runs once per block (``Draws``). A block holds
``block_rows(width)`` rows, as many as fit in ``BLOCK_CELLS`` cells, so a
desk-scale run is one block. A block is solved by a ``solve_fn`` hook, by
default ``solver.solve_weighted_batch``."""

import ctypes
import functools
import itertools
import math
import operator
import threading
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import weights as wmod
from .errors import (DegenerateRunError, InsufficientSampleError, ParameterError,
                     ShapeError)
from .solver import solve_weighted_batch
from .solver import solve_weighted  # noqa: F401  (public name; tracers patch it here)

MAX_FALLBACK_FRAC = 0.2
# cells (rows x width) of one block of draws or support atoms, 2 MiB of
# float64: it bounds the (block, n) working set for any n
BLOCK_CELLS = 1 << 18


# numpy's SeedSequence (bit_generator.pyx): pool size and hash constants
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier (pcg64.h)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _u64(value):
    """Read-only uint64 array of ``value``. numpy's ufuncs take a 0-d array
    operand faster than a Python int or a uint64 scalar."""
    array = np.array(value, np.uint64)
    array.flags.writeable = False
    return array


# _pcg64_words' operands: masks and shifts, -MIX_MULT_R mod 2^32 (so that no
# unsigned array underflows), and the LCG multiplier's high and low limbs and
# the low limb's 32-bit halves
_M32, _S16, _S32, _S63, _ONE = map(_u64, (_MASK32, 16, 32, 63, 1))
_MIX_L, _MIX_NEG_R = _u64(_MIX_MULT_L), _u64(-_MIX_MULT_R & _MASK32)
_MULT_HI, _MULT_LO = _u64(_PCG64_MULT >> 64), _u64(_PCG64_MULT & (1 << 64) - 1)
_MULT_Y0, _MULT_Y1 = _u64(_PCG64_MULT & _MASK32), _u64(_PCG64_MULT >> 32 & _MASK32)
# memory order of a row of _pcg64_words in numpy's pcg_state_setseq_128: two
# native uint128 words, low limb first on little-endian hosts
_LIMBS = (1, 0, 3, 2)
_NO_BUFFER = bytes(8)
# each thread's stream generator (``_thread_stream``)
_THREAD = threading.local()


def block_rows(width):
    """Rows of a block of ``width``-wide rows: as many as ``BLOCK_CELLS``
    holds, and at least one."""
    return max(1, BLOCK_CELLS // width)


def draw_rng(seed, *path):
    """Independent stream for one resample draw; deterministic in (seed, path)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=path))


@functools.cache
def _hash_columns(const, mult, m):
    """Read-only (m, 1) uint64 columns of ``_hashmix``'s m steps from the
    running hash constant ``const``: the constant each row xors in, and the
    stepped one it is then multiplied by."""
    consts = [const]
    for _ in range(m):
        consts.append(consts[-1] * mult & _MASK32)
    return tuple(_u64(c)[:, None] for c in (consts[:-1], consts[1:]))


def _fold(value, tmp):
    """``value`` mod 2^32, xored with itself shifted right by 16, in place:
    the last step of SeedSequence's hash and mix. ``tmp`` is scratch of
    value's shape."""
    value &= _M32
    np.right_shift(value, _S16, out=tmp)
    value ^= tmp


def _hashmix(value, const, mult, tmp):
    """SeedSequence's ``hashmix``, in place, of the m rows of ``value``, uint64
    arrays of 32-bit words, from the running hash constant ``const``: row j
    xors in the constant, steps it and is multiplied by the new one. A product
    of two 32-bit words stays below 2^64."""
    xor, times = _hash_columns(const, mult, len(value))
    value ^= xor
    value *= times
    _fold(value, tmp)


def _add128(a, b):
    """``a += b`` (mod 2^128) in place on (2, k) uint64 (high, low) limbs;
    unsigned arrays wrap mod 2^64."""
    a += b
    a[0] += a[1] < b[1]


def _mul128(a, tmp):
    """``a *= MULT`` (mod 2^128) in place on (2, k) uint64 (high, low) limbs:
    the low limb is the low limbs' wrapped product; the high limb adds the
    cross terms and that product's high word, from 32-bit halves (Hacker's
    Delight's mulhu). ``tmp`` holds 6 rows of scratch."""
    hi, lo = a
    halves, by_y0, by_y1 = tmp[:2], tmp[2:4], tmp[4:6]
    np.bitwise_and(lo, _M32, out=halves[0])
    np.right_shift(lo, _S32, out=halves[1])
    np.multiply(halves, _MULT_Y0, out=by_y0)
    np.multiply(halves, _MULT_Y1, out=by_y1)
    low, mid = by_y0          # x0 y0, x1 y0
    cross, high = by_y1       # x0 y1, x1 y1
    low >>= _S32
    mid += low                # below 2^64
    np.bitwise_and(mid, _M32, out=low)
    low += cross
    low >>= _S32
    mid >>= _S32
    high += mid
    high += low               # the high word of lo MULT_LO
    np.multiply(lo, _MULT_HI, out=cross)
    high += cross
    a *= _MULT_LO
    hi += high


def _pcg64_words(seed, start, stop):
    """(k, 4) uint64 PCG64 words of draws ``start .. stop - 1``: each row is
    (state high, state low, inc high, inc low) of ``draw_rng(seed, b)``.

    ``SeedSequence(entropy=seed, spawn_key=(b,))`` mixes the spawn word b
    last, into ``SeedSequence(seed).pool``, after the hash constant has
    stepped once per word hashed before: ``_POOL_SIZE`` per seed word padded
    to at least ``_POOL_SIZE`` words, the cross mixes included. That mixing,
    ``generate_state(4, uint64)`` and ``pcg64_set_seed`` run in place over one
    (8, k) uint64 block of the b, with another as scratch.
    """
    seed_words = max(1, -(-seed.bit_length() // 32))
    const = _INIT_A * pow(_MULT_A, _POOL_SIZE * max(_POOL_SIZE, seed_words), 1 << 32) & _MASK32
    state, tmp = np.empty((2, 2 * _POOL_SIZE, stop - start), np.uint64)
    # b < 2^32 is one spawn word, hashed and mixed into every pool word:
    # MIX_MULT_L pool - MIX_MULT_R hash (mod 2^32)
    mixed = state[:_POOL_SIZE]
    mixed[:] = np.arange(start, stop, dtype=np.uint64)
    _hashmix(mixed, const, _MULT_A, tmp[:_POOL_SIZE])
    mixed *= _MIX_NEG_R
    mixed += np.random.SeedSequence(seed).pool.astype(np.uint64)[:, None] * _MIX_L
    _fold(mixed, tmp[:_POOL_SIZE])
    # generate_state hashes the mixed pool twice over into 8 words, which pair
    # up low word first into (s high, s low, i high, i low) on the odd rows
    state[_POOL_SIZE:] = mixed
    _hashmix(state, _INIT_B, _MULT_B, tmp)
    words = state[1::2]
    words <<= _S32
    words |= state[::2]
    # pcg64_set_seed: inc = 2 i + 1, state = (inc + s) MULT + inc
    s, inc = words[:2], words[2:]
    np.right_shift(inc[1], _S63, out=tmp[0])
    inc <<= _ONE
    inc[0] |= tmp[0]
    inc[1] |= _ONE
    _add128(s, inc)
    _mul128(s, tmp)
    _add128(s, inc)
    return words.T


def _state_memory(bit_gen):
    """Writable byte views of a PCG64's 32 bytes of (state, inc) words and of
    its 8 bytes of buffered-uint32 flags. numpy's ``pcg64_state`` holds a
    pointer to the words, then the int ``has_uint32`` and the uint32
    ``uinteger``; ``_thread_stream`` checks this layout before relying on it."""
    address = bit_gen.ctypes.state_address
    words = ctypes.c_void_p.from_address(address).value
    flags = address + ctypes.sizeof(ctypes.c_void_p)
    return (memoryview((ctypes.c_uint8 * 32).from_address(words)).cast("B"),
            memoryview((ctypes.c_uint8 * 8).from_address(flags)).cast("B"))


def _state_dict(words, buffered=0):
    """``bit_gen.state`` of one row of ``_pcg64_words``; ``buffered`` sets both
    ``has_uint32`` and ``uinteger``."""
    s_hi, s_lo, i_hi, i_lo = words
    return {"bit_generator": "PCG64", "has_uint32": buffered, "uinteger": buffered,
            "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo}}


def _thread_stream():
    """This thread's stream generator, built on its first call: ``(rng, state,
    flags, direct)`` with ``_state_memory``'s views and the layout probe's
    verdict ``direct``. The probe writes known words, distinct in every limb,
    over a state with a buffered uint32 and compares the result with
    ``bit_gen.state``; where they differ (128-bit words stored high limb
    first), ``block_streams`` uses the ``bit_gen.state`` setter. Threads never
    share a generator."""
    stream = getattr(_THREAD, "stream", None)
    if stream is None:
        bit_gen = np.random.PCG64(0)
        state, flags = _state_memory(bit_gen)
        probe = np.array([[1, 2, 3, 5]], np.uint64)
        bit_gen.state = _state_dict([0, 1, 0, 1], buffered=1)
        state[:], flags[:] = probe[:, _LIMBS].tobytes(), _NO_BUFFER
        direct = bit_gen.state == _state_dict(probe[0].tolist())
        stream = _THREAD.stream = (np.random.Generator(bit_gen), state, flags, direct)
    return stream


def block_streams(seed, start, stop):
    """Streams of draws ``start .. stop - 1``; stream b equals ``draw_rng(seed, b)``.

    Every stream is this thread's one ``Generator``, given draw b's whole state
    and an empty uint32 buffer just before it is yielded, so a consumer must
    be done with it before asking for the next one and must not keep it.
    ``_pcg64_words`` computes the states of all of them at once;
    ``_thread_stream`` decides how they are set.
    """
    seed = operator.index(seed)   # TypeError for floats, None, strings
    if seed < 0:
        raise ValueError("expected non-negative integer")
    if start < 0 or stop > 1 << 32:
        raise ParameterError(f"draw indices must lie in [0, 2^32), got {start}..{stop}")
    words = _pcg64_words(seed, start, stop)
    if not len(words):
        return iter(())
    rng, state, flags, direct = _thread_stream()

    def written():
        raw = memoryview(words[:, _LIMBS].tobytes())
        for i in range(0, len(raw), 32):
            state[:] = raw[i:i + 32]
            flags[:] = _NO_BUFFER
            yield rng

    def by_setter():
        for row in words.tolist():
            rng.bit_generator.state = _state_dict(row)
            yield rng

    return written() if direct else by_setter()


def fill_raw(rng, row):
    """Write the stream's next ``len(row)`` raw 64-bit words into the uint64 ``row``."""
    row[:] = rng.bit_generator.random_raw(len(row))


def integers_block(raw, bound, count, redraw):
    """(B, count) int64 block whose row b equals ``rng.integers(0, bound,
    size=count)`` on draw b's stream, from the (B, ceil(count / 2)) block
    ``raw`` of each stream's first raw words (``fill_raw``).

    numpy draws such a value by Lemire's multiply-shift rejection on the
    stream's next 32-bit half, the low half of a PCG64 word before its high
    half: with ``m = u * bound`` it yields ``m >> 32`` unless ``m mod 2^32 <
    (2^32 - bound) mod bound``, when it rejects u and takes the next half. A
    row with a rejection among its first ``count`` halves needs halves past
    its words, so it is drawn again from ``redraw(b)``, a fresh stream equal to
    draw b's. Bounds from 2^32 up take another path in numpy and are refused.
    """
    if not 1 <= bound < 1 << 32:
        raise ParameterError(f"integer bound must lie in [1, 2^32), got {bound}")
    halves = np.stack([raw & _MASK32, raw >> 32], axis=2).reshape(len(raw), -1)
    m = halves[:, :count] * np.uint64(bound)
    out = (m >> 32).astype(np.int64)
    rejected = (m & _MASK32) < ((1 << 32) - bound) % bound
    for b in np.flatnonzero(rejected.any(axis=1)).tolist():
        out[b] = redraw(b).integers(0, bound, size=count)
    return out


@dataclass
class BootstrapSample:
    """B resampled estimates plus each draw's outcome."""

    beta_hat: np.ndarray
    betas: np.ndarray          # (B, p); a draw that fell back holds beta_hat
    outcomes: np.ndarray       # (B,) error class per draw, "" where it solved
    sigma2: float
    iterations: np.ndarray = None     # (B,) Newton steps per draw, Newton solves only

    @property
    def n_draws(self):
        return self.betas.shape[0]

    @property
    def fallback_count(self):
        return int(np.count_nonzero(self.outcomes != ""))

    @property
    def failures(self):
        """Fallback count by error class."""
        return dict(sorted(Counter(self.outcomes[self.outcomes != ""]).items()))

    def deltas(self):
        return self.betas - self.beta_hat[None, :]


@dataclass
class VarianceEstimate:
    v_gbs: object              # scalar for p = 1, (p, p) matrix otherwise
    mc_stderr: object
    degenerate: bool = False
    fallback_frac: float = 0.0    # share (or probability mass) of draws that fell back


@dataclass
class EmpiricalDistribution:
    """Equal-mass scalar distribution (sorted support)."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.sort(np.asarray(self.values, float))
        if vals.size == 0 or not np.all(np.isfinite(vals)):
            raise ParameterError("empirical distribution needs finite values")
        self.values = vals

    def cdf(self, x):
        return np.searchsorted(self.values, x, side="right") / len(self.values)

    def quantile(self, q):
        return np.quantile(self.values, q)


@dataclass(frozen=True)
class Draws:
    """How ``resample`` draws its rows, a block at a time.

    ``fill(rng, row)`` writes draw b's raw row into row b of a fresh
    (B, ``width``) block of ``dtype``, using only draw b's own stream ``rng``;
    B is ``block_rows(width)``, or fewer in a run's last block, so ``width``
    also sets how many draws share one block solve;
    ``finish(R, redraw)``, when given, maps the whole raw block at once to the
    rows the block solver gets (it may work in place and return ``R``).
    ``redraw(b)`` returns a fresh ``Generator`` equal to the stream of the
    block's row b, for a row whose raw words did not suffice. Everything that
    does not need a draw's stream belongs in ``finish`` or in what ``fill``
    closes over.
    """

    width: int
    fill: object
    finish: object = None
    dtype: object = float


def resample(beta_hat, n_boot, seed, draw, solve_block, label, sigma2=1.0):
    """Draw ``n_boot`` resamples, solve them in blocks and collect the sample.

    Draw b's row comes from ``draw`` (a ``Draws``) on its own stream, equal to
    ``draw_rng(seed, b)``, so the sample does not depend on the block size.
    Each block ``R`` of ``block_rows(draw.width)`` rows goes to ``solve_block(R) ->
    (betas, failures, iterations or None)``; ``failures`` holds each draw's
    error class ("" if it solved) and becomes the sample's ``outcomes``. Other
    shapes than (len(R), p) roots and len(R) failures raise ``ShapeError``.
    Failed draws are pinned to ``beta_hat``. ``sigma2`` is the weight
    variance (1 for the baselines). More than ``MAX_FALLBACK_FRAC`` fallbacks
    raise ``DegenerateRunError`` carrying the (still inspectable) sample.
    """
    if wmod._index(n_boot) is None or n_boot < 1:   # bools refused, numpy ints kept
        raise ParameterError(f"need an integer n_boot >= 1, got {n_boot!r}")
    blocks = []
    streams = block_streams(seed, 0, n_boot)
    rows = block_rows(draw.width)
    for start in range(0, n_boot, rows):
        # a fresh block each time: the solver may hold on to it
        R = np.empty((min(rows, n_boot - start), draw.width), draw.dtype)
        for row, rng in zip(R, streams):   # R first: zip takes exactly len(R) streams
            draw.fill(rng, row)
        if draw.finish is not None:
            R = draw.finish(R, lambda b: draw_rng(seed, start + b))
        block = solve_block(R)
        if (np.shape(block[0]) != (len(R), len(beta_hat))
                or np.shape(block[1]) != (len(R),)):
            raise ShapeError(
                f"{label}: a block of {len(R)} draws needs ({len(R)}, "
                f"{len(beta_hat)}) roots and {len(R)} failures, got shapes "
                f"{np.shape(block[0])} and {np.shape(block[1])}")
        blocks.append(block)
    betas, outcomes, iterations = zip(*blocks)
    betas, outcomes = np.concatenate(betas), np.concatenate(outcomes)
    iterations = None if iterations[0] is None else np.concatenate(iterations)
    betas[outcomes != ""] = beta_hat
    sample = BootstrapSample(beta_hat, betas, outcomes, sigma2, iterations)
    if sample.fallback_count > MAX_FALLBACK_FRAC * n_boot:
        raise DegenerateRunError(
            f"{label}: {sample.fallback_count}/{n_boot} resamples fell back to the "
            "full-data root", sample=sample)
    return sample


def run_bootstrap(model, data, beta_hat, scheme, n_boot, seed, solve_fn=None):
    """Draw ``n_boot`` weight vectors and solve the reweighted equations.

    Non-converged draws fall back to ``beta_hat`` and are counted; a run with
    more than ``MAX_FALLBACK_FRAC`` fallbacks raises ``DegenerateRunError``
    carrying the (still inspectable) sample.

    ``solve_fn(model, data, W, beta_hat) -> (betas, failures, iterations or
    None)`` solves each (B, n) block of weight rows; the default is the
    batched Newton solve from ``beta_hat``, ``solve_weighted_batch``.
    """
    beta_hat = np.atleast_1d(np.asarray(beta_hat, float))
    hook = solve_fn or solve_weighted_batch
    return resample(beta_hat, n_boot, seed, Draws(scheme.n, *wmod.sampler(scheme)),
                    lambda W: hook(model, data, W, beta_hat), "generalized bootstrap",
                    wmod.central_moment(scheme, (2,)))


def _estimate(v, mc_stderr=None, **flags):
    """``VarianceEstimate`` of a (p, p) estimate and its Monte Carlo standard
    error (zeros if None), both as scalars when p = 1."""
    mc_stderr = np.zeros_like(v) if mc_stderr is None else mc_stderr
    if v.shape == (1, 1):
        v, mc_stderr = float(v[0, 0]), float(mc_stderr[0, 0])
    return VarianceEstimate(v, mc_stderr, **flags)


def variance_estimate(sample, scale=1.0):
    """Monte Carlo resampling variance, scaled by 1/sigma_n^2.

    Fallback draws contribute exactly zero by construction; ``fallback_frac``
    reports their share. ``scale`` multiplies the estimate (pass n to target
    the sqrt(n)-scaled variance).
    """
    B, p = sample.betas.shape
    if B < 2:
        raise InsufficientSampleError("need at least 2 draws")
    if sample.sigma2 <= 0:
        return _estimate(np.zeros((p, p)), degenerate=True)
    d = sample.deltas()
    outer = scale / sample.sigma2 * (d[:, :, None] * d[:, None, :])
    fallback = sample.fallback_count
    return _estimate(outer.mean(axis=0), outer.std(axis=0, ddof=1) / math.sqrt(B),
                     degenerate=fallback == B, fallback_frac=fallback / B)


def exact_variance_enumeration(model, data, beta_hat, scheme, scale=1.0):
    """Resampling variance as an exact expectation over the scheme's support.

    Atoms are solved ``block_rows(n)`` at a time. Atoms whose solve fails
    contribute zero; ``fallback_frac`` is their probability mass.
    """
    beta_hat = np.atleast_1d(np.asarray(beta_hat, float))
    sigma2 = wmod.central_moment(scheme, (2,))
    p = len(beta_hat)
    if sigma2 <= 0:
        return _estimate(np.zeros((p, p)), degenerate=True)
    acc = np.zeros((p, p))
    failed_mass = 0.0
    atoms = wmod.iter_support(scheme)
    rows = block_rows(scheme.n)
    while block := list(itertools.islice(atoms, rows)):
        W = np.stack([w for w, _ in block])
        probs = np.array([prob for _, prob in block])
        betas, failures, _ = solve_weighted_batch(model, data, W, beta_hat)
        ok = failures == ""   # definitional fallback contributes zero
        d = betas[ok] - beta_hat
        acc += (probs[ok, None] * d).T @ d
        failed_mass += float(np.sum(probs[~ok]))
    return _estimate(scale / sigma2 * acc, fallback_frac=failed_mass)


def empirical_distribution(model, data, sample, contrast=None):
    """Plug-in normalized bootstrap distribution of the resampled estimates.

    For p = 1 the scaling is sqrt(|sum_i phi_1ni(beta_hat)|) / sigma_n; for
    p > 1 a unit (p,) contrast vector projects through the plug-in studentizer.
    """
    beta_hat = sample.beta_hat
    p = len(beta_hat)
    if sample.sigma2 <= 0:
        raise ParameterError("degenerate scheme has no distribution estimate")
    if p > 1:
        if contrast is None:
            raise ParameterError("p > 1 needs a contrast vector")
        c = np.asarray(contrast, float)
        if c.shape != (p,):
            raise ShapeError(f"contrast shape {c.shape} != ({p},) parameters")
        if abs(np.linalg.norm(c) - 1.0) > 1e-8:
            raise ParameterError("contrast must have unit norm")
    J_total = np.sum(model.jacobian_all(data, beta_hat), axis=0)
    deltas = sample.deltas()
    if p == 1:
        s = math.sqrt(abs(float(J_total[0, 0])))
        vals = s / math.sqrt(sample.sigma2) * deltas[:, 0]
        return EmpiricalDistribution(vals)
    scores = model.score_all(data, beta_hat)
    v = np.linalg.solve(J_total, c)
    s_hat2 = float(v @ (scores.T @ scores) @ v)
    vals = (deltas @ c) / (math.sqrt(s_hat2) * math.sqrt(sample.sigma2))
    return EmpiricalDistribution(vals)


def percentile_ci(draws, level):
    """Equal-tail percentile interval using the (B+1) order-statistic rule."""
    vals = np.asarray(draws, float).ravel()
    lo, hi = percentile_cis_batch(vals[:, None], level)
    return float(lo[0]), float(hi[0])


def percentile_cis_batch(draw_matrix, level):
    """Equal-tail intervals column-by-column; vectorized order-statistic rule."""
    if not 0 < level < 1:
        raise ParameterError("level must be in (0, 1)")
    vals = np.sort(np.asarray(draw_matrix, float), axis=0)
    B = vals.shape[0]
    if B < 10:
        raise InsufficientSampleError(f"need >= 10 draws, got {B}")
    alpha = 1.0 - level
    k_lo = max(1, math.ceil((B + 1) * alpha / 2.0))
    k_hi = min(B, math.floor((B + 1) * (1.0 - alpha / 2.0)))
    return vals[k_lo - 1], vals[k_hi - 1]


def ks_distance(a, b="normal"):
    """Sup distance between empirical CDFs, or against the standard normal."""
    if isinstance(a, EmpiricalDistribution):
        a = a.values
    a = np.sort(np.asarray(a, float))
    na = a.size
    if na == 0 or not np.all(np.isfinite(a)):
        raise ParameterError("first sample is empty or not finite")
    if isinstance(b, str):
        if b != "normal":
            raise ParameterError(f"unknown reference distribution {b!r}")
        # the standard normal CDF 0.5 erfc(-x / sqrt 2), through math: no scipy
        cdf = 0.5 * np.array([math.erfc(x) for x in (-a / math.sqrt(2.0)).tolist()])
        hi = np.arange(1, na + 1) / na - cdf
        lo = cdf - np.arange(0, na) / na
        return float(max(hi.max(), lo.max()))
    if isinstance(b, EmpiricalDistribution):
        b = b.values
    b = np.sort(np.asarray(b, float))
    if b.size == 0 or not np.all(np.isfinite(b)):
        raise ParameterError("second sample is empty or not finite")
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / na
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))
