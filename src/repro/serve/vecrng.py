"""Vectorized re-derivation of the per-coordinate answer generators.

The serving tier's determinism contract pins every answer to its own
``np.random.default_rng([seed, object, crc32(attr), index])`` — one
:class:`~numpy.random.Generator` per coordinate, so generation order,
batching and thread scheduling cannot change a single draw.  That
contract is also why the scalar hot path is slow: constructing a
``SeedSequence`` + ``PCG64`` + ``Generator`` per answer costs ~10µs,
dwarfing the worker math it feeds.

This module re-implements the *derivation chain* those constructions
perform — SeedSequence entropy mixing, PCG64 stream seeding, the
generator's bounded-integer / normal / exponential / uniform draws —
as ndarray kernels over a whole batch of coordinates at once.  The
scalar generators remain the source of truth: every kernel reproduces
numpy's output bit for bit on its accept path and reports a mask of
lanes it could not finish (ziggurat wedge/tail, Lemire rejection),
which the caller replays through a real per-coordinate ``Generator``.
Batched and scalar streams are therefore byte-identical by
construction, and the property suite (``tests/property/
test_property_serve_batched.py``) plus the bench identity gates
enforce it.

Algorithms mirrored here (numpy 1.24+ / 2.x, ``PCG64`` XSL-RR):

* ``SeedSequence.mix_entropy`` / ``generate_state`` — the hash
  constants advance independently of the data, so the per-call
  constants are precomputed once and each mixing round becomes one
  vector op over the batch.
* ``pcg64_srandom_r`` — 128-bit LCG state kept as ``(hi, lo)`` uint64
  array pairs; the 128-bit multiply uses 32-bit limb products.
* ``Generator.integers(0, n)`` — Lemire 32-bit rejection sampling on
  the low half of one ``next64`` draw.
* ``Generator.standard_normal`` / ``.exponential`` — the 256-layer
  ziggurat accept path (tables in :mod:`repro.serve._ziggurat`);
  ~98% of lanes accept on the first draw.
* ``Generator.random`` / ``.uniform`` — 53-bit mantissa doubles.
"""

from __future__ import annotations

import numpy as np

from repro.serve._ziggurat import (
    EXP_KE,
    EXP_WE,
    NORMAL_KI,
    NORMAL_WI,
)

__all__ = [
    "CoordinateStreams",
    "lemire_integers",
    "ziggurat_normals",
    "ziggurat_exponentials",
    "uniform_doubles",
]

# SeedSequence mixing constants (numpy _seed_seq).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint64(0xCA01F9DD)
_MIX_MULT_R = np.uint64(0x4973F715)
_XSHIFT = np.uint64(16)
_POOL_SIZE = 4

_MASK32 = np.uint64(0xFFFFFFFF)
_U32_BOUND = 1 << 32

# PCG64 128-bit LCG multiplier, split into 64-bit halves.
_PCG_MULT_HI = np.uint64(2549297995355413924)
_PCG_MULT_LO = np.uint64(4865540595714422341)

# random() / uniform() mantissa scale: 2**-53.
_TO_DOUBLE = 1.0 / 9007199254740992.0


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """``count + 1`` successive hash constants ``init * mult**j mod 2^32``.

    ``hashmix`` call ``j`` XORs with constant ``j`` and multiplies by
    constant ``j + 1``; the sequence never depends on the data being
    mixed, which is what makes the mixing rounds vectorizable.
    """
    out = np.empty(count + 1, dtype=np.uint64)
    value = init
    for j in range(count + 1):
        out[j] = value
        value = (value * mult) & 0xFFFFFFFF
    return out


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence ``mix``: combine two uint32 lanes (vector form)."""
    result = (((x * _MIX_MULT_L) & _MASK32) - ((y * _MIX_MULT_R) & _MASK32)) & _MASK32
    result ^= result >> _XSHIFT
    return result


class _HashMixer:
    """One vectorized ``hashmix`` stream with its precomputed constants."""

    def __init__(self, init: int, mult: int, calls: int) -> None:
        self._consts = _hash_consts(init, mult, calls)
        self._call = 0

    def __call__(self, value: np.ndarray) -> np.ndarray:
        mixed = value ^ self._consts[self._call]
        mixed = (mixed * self._consts[self._call + 1]) & _MASK32
        mixed ^= mixed >> _XSHIFT
        self._call += 1
        return mixed


def _mix_pools(entropy: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence.mix_entropy`` across the batch.

    ``entropy`` is ``(n, k)`` uint64 with every element ``< 2**32`` —
    one uint32 entropy word per column, exactly what
    ``_coerce_to_uint32_array`` produces for a list of ints below
    ``2**32``.  Returns the four pool lanes, each shape ``(n,)``.
    """
    n, k = entropy.shape
    calls = _POOL_SIZE + _POOL_SIZE * (_POOL_SIZE - 1)
    calls += max(0, k - _POOL_SIZE) * _POOL_SIZE
    hashmix = _HashMixer(_INIT_A, _MULT_A, calls)
    zeros = np.zeros(n, dtype=np.uint64)

    pool = [
        hashmix(entropy[:, i] if i < k else zeros) for i in range(_POOL_SIZE)
    ]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(_POOL_SIZE, k):
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], hashmix(entropy[:, i_src]))
    return pool


def _generate_state4(pool: list[np.ndarray]) -> list[np.ndarray]:
    """``SeedSequence.generate_state(4, uint64)`` across the batch.

    Eight uint32 output words, paired little-endian into four uint64
    words — the exact seed material ``PCG64`` consumes.
    """
    hashmix = _HashMixer(_INIT_B, _MULT_B, 8)
    words = [hashmix(pool[i % _POOL_SIZE]) for i in range(8)]
    return [
        words[2 * i] | (words[2 * i + 1] << np.uint64(32)) for i in range(4)
    ]


def _mulhi64(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """High 64 bits of a 64x64→128 multiply, via 32-bit limbs."""
    a_lo = a & _MASK32
    a_hi = a >> np.uint64(32)
    b_lo = b & _MASK32
    b_hi = b >> np.uint64(32)
    cross = a_hi * b_lo + ((a_lo * b_lo) >> np.uint64(32))
    low_sum = a_lo * b_hi + (cross & _MASK32)
    return a_hi * b_hi + (cross >> np.uint64(32)) + (low_sum >> np.uint64(32))


class CoordinateStreams:
    """A batch of independent PCG64 streams, one per coordinate tuple.

    ``entropy`` is the ``(n, k)`` matrix whose row ``i`` is the integer
    list that would seed coordinate ``i``'s scalar generator, e.g.
    ``[seed, object_id, attr_key, index]`` (``k = 5`` with a trailing
    attempt column for the fault-injected stream).  Every element must
    be one uint32 entropy word: a seed of ``2**32`` or more is laid out
    as the several words ``SeedSequence`` splits it into
    (:func:`repro.serve.stream.seed_words`); a word of ``2**32`` or more
    is a ``ValueError``.

    After construction, :meth:`next64` advances all ``n`` streams one
    step and returns their raw 64-bit outputs — the same sequence each
    scalar ``Generator``'s bit generator would produce.
    """

    def __init__(self, entropy: np.ndarray) -> None:
        if entropy.ndim != 2:
            raise ValueError("entropy must be a 2-D (n, words) matrix")
        entropy = np.ascontiguousarray(entropy, dtype=np.uint64)
        if entropy.size and int(entropy.max()) >= _U32_BOUND:
            raise ValueError("entropy words must fit in uint32")
        words = _generate_state4(_mix_pools(entropy))
        # pcg64_set_seed: initstate = words[0]<<64 | words[1],
        # initseq = words[2]<<64 | words[3]; inc = (initseq << 1) | 1.
        self._inc_hi = (words[2] << np.uint64(1)) | (words[3] >> np.uint64(63))
        self._inc_lo = (words[3] << np.uint64(1)) | np.uint64(1)
        # srandom: state = 0; step (-> inc); state += initstate; step.
        state_lo = self._inc_lo + words[1]
        carry = (state_lo < self._inc_lo).astype(np.uint64)
        state_hi = self._inc_hi + words[0] + carry
        self._hi = state_hi
        self._lo = state_lo
        self._step()

    def _step(self) -> None:
        """128-bit LCG step: ``state = state * MULT + inc``."""
        new_lo = self._lo * _PCG_MULT_LO
        new_hi = (
            self._hi * _PCG_MULT_LO
            + self._lo * _PCG_MULT_HI
            + _mulhi64(self._lo, _PCG_MULT_LO)
        )
        out_lo = new_lo + self._inc_lo
        carry = (out_lo < new_lo).astype(np.uint64)
        self._hi = new_hi + self._inc_hi + carry
        self._lo = out_lo

    def next64(self) -> np.ndarray:
        """One XSL-RR output per stream (advances every stream)."""
        self._step()
        rot = self._hi >> np.uint64(58)
        xored = self._hi ^ self._lo
        return (xored >> rot) | (xored << ((np.uint64(64) - rot) & np.uint64(63)))


def lemire_integers(draws: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``Generator.integers(0, n)`` from one raw draw per lane.

    Returns ``(values, accepted)``.  The generator consumes the *low*
    32 bits of one 64-bit draw and multiplies by ``n``; lanes whose
    leftover falls below Lemire's threshold are rejected (the scalar
    path would redraw) and must be replayed by the caller.  ``n == 1``
    consumes nothing — callers skip the draw entirely.
    """
    if not 1 < n <= _U32_BOUND:
        raise ValueError("lemire_integers expects 1 < n <= 2**32")
    product = (draws & _MASK32) * np.uint64(n)
    values = (product >> np.uint64(32)).astype(np.int64)
    threshold = (_U32_BOUND - n) % n
    accepted = (product & _MASK32) >= np.uint64(threshold)
    return values, accepted


def ziggurat_normals(draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``Generator.standard_normal`` accept path from one draw per lane.

    Returns ``(values, accepted)``; rejected lanes hit the ziggurat
    wedge or tail and must be replayed scalar.
    """
    idx = (draws & np.uint64(0xFF)).astype(np.intp)
    rest = draws >> np.uint64(8)
    sign = (rest & np.uint64(1)).astype(bool)
    rabs = (rest >> np.uint64(1)) & np.uint64(0x000FFFFFFFFFFFFF)
    values = rabs.astype(np.float64) * NORMAL_WI[idx]
    np.negative(values, out=values, where=sign)
    accepted = rabs < NORMAL_KI[idx]
    return values, accepted


def ziggurat_exponentials(draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``Generator.standard_exponential`` accept path (ziggurat method)."""
    shifted = draws >> np.uint64(3)
    idx = (shifted & np.uint64(0xFF)).astype(np.intp)
    shifted = shifted >> np.uint64(8)
    values = shifted.astype(np.float64) * EXP_WE[idx]
    accepted = shifted < EXP_KE[idx]
    return values, accepted


def uniform_doubles(draws: np.ndarray) -> np.ndarray:
    """``Generator.random()`` from one draw per lane (never rejects)."""
    return (draws >> np.uint64(11)).astype(np.float64) * _TO_DOUBLE
