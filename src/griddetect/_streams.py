"""Per-trial uniform streams for a block of trial indices, computed in numpy.

Trial i's stream is ``Generator(PCG64(SeedSequence((master_seed, i)))).random()``.
Since each stream is a pure function of (master_seed, i), a whole block of
them can be computed at once: this module repeats numpy's SeedSequence pool
mixing and ``generate_state(4, uint64)`` in uint32 array arithmetic, then
PCG64's seeding, 128-bit LCG and XSL-RR output with uint64 limbs. Column j
of the result holds the (j+1)-th ``random()`` value of every trial, bit for
bit. References: O'Neill 2014 (PCG); Salmon et al. 2011 (counter-based
seeding); numpy's ``bit_generator.pyx`` and ``pcg64.h``.
"""

from __future__ import annotations

import functools

import numpy as np

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
# SeedSequence hashing constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# PCG64's default 128-bit multiplier
_PCG_MULT = (2549297995355413924 << 64) | 4865540595714422341


def _int_words(n: int) -> list[int]:
    """SeedSequence's little-endian uint32 words of a non-negative int (0 -> [0])."""
    words = [n & _M32]
    while n > _M32:
        n >>= 32
        words.append(n & _M32)
    return words


def _consts(init: int, mult: int, n: int) -> np.ndarray:
    """init, init * mult, init * mult**2, ... (mod 2**32) as a uint32 column."""
    out = [init]
    for _ in range(n - 1):
        out.append(out[-1] * mult & _M32)
    return np.array(out, dtype=np.uint32)[:, None]


def _hashed(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of each row of ``value``, row r using consts[r] and consts[r + 1]."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> np.uint32(16))


def _pool(words: np.ndarray) -> np.ndarray:
    """SeedSequence.mix_entropy of four entropy words (rows); missing words hash as 0.

    Within one source word the three mixes read the same source value, so
    they run as one array operation.
    """
    consts = _consts(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE + 1)
    pool = _hashed(words, consts[: _POOL_SIZE + 1])
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        first = _POOL_SIZE + (_POOL_SIZE - 1) * src
        h = _hashed(pool[src], consts[first : first + _POOL_SIZE])
        mixed = pool[dst] * np.uint32(_MIX_L) - h * np.uint32(_MIX_R)
        pool[dst] = mixed ^ (mixed >> np.uint32(16))
    return pool


def _mulhi(a: np.ndarray, b_lo: np.ndarray, b_hi: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit product of a and b, b given as its 32-bit halves."""
    m32 = np.uint64(_M32)
    a_lo, a_hi = a & m32, a >> np.uint64(32)
    p00, p01, p10 = a_lo * b_lo, a_lo * b_hi, a_hi * b_lo
    mid = (p00 >> np.uint64(32)) + (p01 & m32) + (p10 & m32)
    return a_hi * b_hi + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32)) + (mid >> np.uint64(32))


@functools.lru_cache(maxsize=16)
def _jumps(n_draws: int) -> tuple[np.ndarray, np.ndarray]:
    """M**(j+1) and 1 + M + ... + M**j (mod 2**128) for j < n_draws, each as read-only uint64
    rows: the high 64 bits, the low 64 bits, and the low's low and high 32 bits."""
    mult, geom = [], []
    power, total = _PCG_MULT, 1
    for _ in range(n_draws):
        total = (total + power) % (1 << 128)
        power = power * _PCG_MULT % (1 << 128)
        mult.append(power)
        geom.append(total)
    hi = np.array([v >> 64 for v in mult + geom], dtype=np.uint64)
    lo = np.array([v & _M64 for v in mult + geom], dtype=np.uint64)
    limbs = np.stack([hi, lo, lo & np.uint64(_M32), lo >> np.uint64(32)])
    limbs.flags.writeable = False
    return limbs[:, :n_draws], limbs[:, n_draws:]


def _mul128(x_hi, x_lo, c) -> tuple[np.ndarray, np.ndarray]:
    """(x * c) mod 2**128 for per-trial x (column vectors) and per-draw constants c."""
    c_hi, c_lo, c_lo32, c_hi32 = c
    return _mulhi(x_lo, c_lo32, c_hi32) + x_hi * c_lo + x_lo * c_hi, x_lo * c_lo


def uniforms(master_seed: int, indices: np.ndarray, n_draws: int) -> np.ndarray:
    """The first ``n_draws`` ``random()`` values of each trial's stream, shape (len(indices), n_draws).

    ``master_seed`` must be below 2**64 and ``indices`` a uint64 array.
    Each index enters as two words: a zero high word hashes exactly as
    SeedSequence's zero padding, because seed and index words never exceed
    the pool size of four.
    """
    idx = np.asarray(indices, dtype=np.uint64)
    words = [np.full(idx.shape, w, dtype=np.uint32) for w in _int_words(master_seed)]
    words += [(idx & np.uint64(_M32)).astype(np.uint32), (idx >> np.uint64(32)).astype(np.uint32)]
    words += [np.zeros(idx.shape, dtype=np.uint32)] * (_POOL_SIZE - len(words))
    pool = _pool(np.stack(words))

    # generate_state(4, uint64): eight hashed pool words, paired little-endian
    state = _hashed(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _consts(_INIT_B, _MULT_B, 9)).astype(np.uint64)
    s = state[0::2] | (state[1::2] << np.uint64(32))

    # PCG64 seeding: inc = 2 * s[2:4] + 1; state = (inc + s[0:2]) * M + inc.
    # The j-th output comes from M**(j+1) * x + (1 + M + ... + M**j) * inc with
    # x = inc + seed, so every draw is one jump from the seeding state.
    inc_hi = ((s[2] << np.uint64(1)) | (s[3] >> np.uint64(63)))[:, None]
    inc_lo = ((s[3] << np.uint64(1)) | np.uint64(1))[:, None]
    x_lo = inc_lo + s[1][:, None]
    x_hi = inc_hi + s[0][:, None] + (x_lo < inc_lo)
    mult, geom = _jumps(n_draws)
    a_hi, a_lo = _mul128(x_hi, x_lo, mult)
    g_hi, g_lo = _mul128(inc_hi, inc_lo, geom)
    lo = a_lo + g_lo
    hi = a_hi + g_hi + (lo < a_lo)

    # XSL-RR output, then numpy's next_double
    folded = hi ^ lo
    rot = hi >> np.uint64(58)
    out = (folded >> rot) | (folded << ((np.uint64(64) - rot) & np.uint64(63)))
    return (out >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)
