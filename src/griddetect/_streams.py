"""Per-trial uniform streams for a block of trial indices, computed in numpy.

Trial i's stream is ``Generator(PCG64(SeedSequence((master_seed, i)))).random()``.
Since each stream is a pure function of (master_seed, i), a whole block of
them can be computed at once: this module repeats numpy's SeedSequence pool
mixing and ``generate_state(4, uint64)`` in uint32 array arithmetic, then
PCG64's seeding, 128-bit LCG and XSL-RR output with uint64 limbs. Column j
of the result holds the (j+1)-th ``random()`` value of every trial, bit for
bit. References: O'Neill 2014 (PCG); Salmon et al. 2011 (counter-based
seeding); numpy's ``bit_generator.pyx`` and ``pcg64.h``.

Every draw is one jump from the trial's pre-seeding value x = inc + seed:
state_j = M**(j+2) * x + (1 + M + ... + M**(j+1)) * inc (mod 2**128). The
two products are computed as one stacked multiply, (x, inc) times
(M**(j+2), 1 + ... + M**(j+1)), over a draw-major (2, draws, rows) array,
then added.

A thread's workspace holds the arrays of the last block shape it computed;
blocks of the same shape reuse them, so a run of equal blocks allocates
nothing large, and a new shape frees the old arrays before allocating its
own. The array ``uniforms`` returns is part of that workspace: it is valid
only until the next call on the same thread. This module sets no bound on
a block's size; the simulator sizes blocks (``simulator._block_rows``).
"""

from __future__ import annotations

import functools
import threading

import numpy as np

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
# SeedSequence hashing constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_SIZE = 4
# PCG64's default 128-bit multiplier
_PCG_MULT = (2549297995355413924 << 64) | 4865540595714422341

_U32_16 = np.uint32(16)
_U64_1, _U64_11, _U64_32 = np.uint64(1), np.uint64(11), np.uint64(32)
_U64_58, _U64_63, _U64_64 = np.uint64(58), np.uint64(63), np.uint64(64)
_U64_M32 = np.uint64(_M32)
_TO_DOUBLE = 1.0 / 9007199254740992.0


def _int_words(n: int) -> list[int]:
    """SeedSequence's little-endian uint32 words of a non-negative int (0 -> [0])."""
    words = [n & _M32]
    while n > _M32:
        n >>= 32
        words.append(n & _M32)
    return words


def _consts(init: int, mult: int, n: int) -> np.ndarray:
    """init, init * mult, init * mult**2, ... (mod 2**32) as a read-only uint32 column."""
    out = [init]
    for _ in range(n - 1):
        out.append(out[-1] * mult & _M32)
    consts = np.array(out, dtype=np.uint32)[:, None]
    consts.flags.writeable = False
    return consts


# SeedSequence.mix_entropy: the four pool words hash with the first five
# constants; then each source word, hashed with the next constants in turn,
# is mixed into the three other words. The three mixes of one source read
# the same source value, so they run as one array operation.
_POOL_HASH = _consts(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE + 1)
_MIX_STEPS = tuple(
    (src, consts[:-1], consts[1:], np.array([d for d in range(_POOL_SIZE) if d != src]))
    for src in range(_POOL_SIZE)
    for consts in [_POOL_HASH[_POOL_SIZE + (_POOL_SIZE - 1) * src :][:_POOL_SIZE]]
)
# generate_state(4, uint64): eight hashed pool words, paired little-endian
_STATE_HASH = _consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE + 1)
_STATE_WORDS = np.array([0, 1, 2, 3, 0, 1, 2, 3])


def _hash(value: np.ndarray, init: np.ndarray, mult: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """SeedSequence's hash of each row of ``value`` into ``out``, row r using init[r] and mult[r]."""
    np.bitwise_xor(value, init, out=out)
    np.multiply(out, mult, out=out)
    np.right_shift(out, _U32_16, out=tmp)
    np.bitwise_xor(out, tmp, out=out)


def _seed(master_seed: int, idx: np.ndarray, ws: _Workspace) -> None:
    """Fill ws.limbs with each trial's (x, inc) as 64-bit and 32-bit limbs."""
    pool, h, t = ws.pool, ws.h, ws.t
    words = _int_words(master_seed)
    for r, w in enumerate(words):
        pool[r].fill(w)
    r = len(words)
    # each index enters as two words: a zero high word hashes exactly as
    # SeedSequence's zero padding, because seed and index words never
    # exceed the pool size of four
    np.bitwise_and(idx, _U64_M32, out=pool[r])
    np.right_shift(idx, _U64_32, out=pool[r + 1])
    pool[r + 2 :].fill(0)
    _hash(pool, _POOL_HASH[:_POOL_SIZE], _POOL_HASH[1 : _POOL_SIZE + 1], pool, t)
    for src, init, mult, dst in _MIX_STEPS:
        _hash(pool[src], init, mult, h, t[1:])
        np.multiply(h, _MIX_R, out=h)
        mixed = np.take(pool, dst, axis=0, out=t[1:], mode="clip")
        np.multiply(mixed, _MIX_L, out=mixed)
        np.subtract(mixed, h, out=mixed)
        np.right_shift(mixed, _U32_16, out=h)
        np.bitwise_xor(mixed, h, out=mixed)
        pool[dst] = mixed

    st, s = ws.st, ws.s
    np.take(pool, _STATE_WORDS, axis=0, out=st, mode="clip")
    _hash(st, _STATE_HASH[:-1], _STATE_HASH[1:], st, ws.st_tmp)
    np.left_shift(st[1::2], _U64_32, out=s, dtype=np.uint64)
    np.bitwise_or(s, st[0::2], out=s)

    # PCG64 seeding: inc = 2 * s[2:4] + 1 and x = inc + s[0:2], each as
    # (high, low) words; the seeded state is M * x + inc
    lo, hi = ws.limbs[0], ws.limbs[1]  # [x, inc] per row
    np.left_shift(s[3], _U64_1, out=lo[1])
    np.bitwise_or(lo[1], _U64_1, out=lo[1])
    np.right_shift(s[3], _U64_63, out=hi[1])
    np.left_shift(s[2], _U64_1, out=s[3])
    np.bitwise_or(hi[1], s[3], out=hi[1])
    np.add(lo[1], s[1], out=lo[0])
    np.less(lo[0], lo[1], out=s[1])  # carry
    np.add(hi[1], s[0], out=hi[0])
    np.add(hi[0], s[1], out=hi[0])
    np.bitwise_and(lo, _U64_M32, out=ws.limbs[2])
    np.right_shift(lo, _U64_32, out=ws.limbs[3])


@functools.lru_cache(maxsize=16)
def _jumps(n_draws: int) -> np.ndarray:
    """M**(j+2) and 1 + M + ... + M**(j+1) (mod 2**128) for j < n_draws, stacked as a
    read-only (4, 2, n_draws, 1) uint64 array of limbs: the high 64 bits, the low 64
    bits, and the low's low and high 32 bits."""
    mult, geom = [], []
    power, total = _PCG_MULT, 1
    for _ in range(n_draws):
        total = (total + power) % (1 << 128)
        power = power * _PCG_MULT % (1 << 128)
        mult.append(power)
        geom.append(total)
    hi = np.array([[v >> 64 for v in mult], [v >> 64 for v in geom]], dtype=np.uint64)
    lo = np.array([[v & _M64 for v in mult], [v & _M64 for v in geom]], dtype=np.uint64)
    limbs = np.stack([hi, lo, lo & _U64_M32, lo >> _U64_32])[..., None]
    limbs.flags.writeable = False
    return limbs


def _draws(n_draws: int, ws: _Workspace) -> np.ndarray:
    """XSL-RR doubles of every jump from ws.limbs, as a (rows, n_draws) view.

    The arrays are draw-major, (2, n_draws, rows), so that each operation's
    inner loop runs over rows; axis 0 stacks the (x, M**(j+2)) and
    (inc, 1 + ... + M**(j+1)) products, computed as one 128-bit multiply.
    """
    c_hi, c_lo, c_lo32, c_hi32 = _jumps(n_draws)
    a_lo, a_hi, a_lo32, a_hi32 = ws.limbs[:, :, None, :]
    p, q, r = ws.p, ws.q, ws.r
    # high 64 bits of a_lo * c_lo from 32-bit halves (Hacker's Delight mulhu)
    np.multiply(a_lo32, c_lo32, out=p)
    np.right_shift(p, _U64_32, out=p)
    np.multiply(a_hi32, c_lo32, out=q)
    np.add(q, p, out=q)
    np.multiply(a_lo32, c_hi32, out=p)
    np.bitwise_and(q, _U64_M32, out=r)
    np.add(p, r, out=p)
    np.right_shift(p, _U64_32, out=p)
    np.right_shift(q, _U64_32, out=q)
    np.add(p, q, out=p)
    np.multiply(a_hi32, c_hi32, out=q)
    np.add(p, q, out=p)
    # (a * c) mod 2**128: p holds the high words, q the low words
    np.multiply(a_hi, c_lo, out=q)
    np.add(p, q, out=p)
    np.multiply(a_lo, c_hi, out=q)
    np.add(p, q, out=p)
    np.multiply(a_lo, c_lo, out=q)

    # state = M**(j+2) * x + (1 + ... + M**(j+1)) * inc
    hi, lo, tmp = p[0], q[1], r[0]
    np.add(q[0], q[1], out=lo)
    np.less(lo, q[0], out=tmp)  # carry
    np.add(p[0], p[1], out=hi)
    np.add(hi, tmp, out=hi)

    # XSL-RR output, then numpy's next_double; numpy shifts a uint64 by 64 to 0
    folded, rot, left, right = q[0], p[1], tmp, r[1]
    np.bitwise_xor(hi, lo, out=folded)
    np.right_shift(hi, _U64_58, out=rot)
    np.subtract(_U64_64, rot, out=left)
    np.right_shift(folded, rot, out=right)
    np.left_shift(folded, left, out=folded)
    np.bitwise_or(folded, right, out=folded)
    np.right_shift(folded, _U64_11, out=folded)
    out = right.view(np.float64)
    np.multiply(folded, _TO_DOUBLE, out=out)
    return out.T


class _Workspace(threading.local):
    """A thread's arrays for the last block shape it computed; blocks of that shape reuse them."""

    shape: tuple[int, int] | None = None

    def fit(self, rows: int, n_draws: int) -> _Workspace:
        if (rows, n_draws) != self.shape:
            # free the last shape's arrays before allocating the new shape's
            vars(self).clear()
            self.pool = np.empty((_POOL_SIZE, rows), np.uint32)
            self.h = np.empty((_POOL_SIZE - 1, rows), np.uint32)
            self.t = np.empty((_POOL_SIZE, rows), np.uint32)
            self.st = np.empty((2 * _POOL_SIZE, rows), np.uint32)
            self.st_tmp = np.empty((2 * _POOL_SIZE, rows), np.uint32)
            self.s = np.empty((_POOL_SIZE, rows), np.uint64)
            self.limbs = np.empty((4, 2, rows), np.uint64)
            self.p, self.q, self.r = (np.empty((2, n_draws, rows), np.uint64) for _ in range(3))
            self.shape = (rows, n_draws)
        return self


_workspace = _Workspace()


def uniforms(master_seed: int, indices: np.ndarray, n_draws: int) -> np.ndarray:
    """The first ``n_draws`` ``random()`` values of each trial's stream, shape (len(indices), n_draws).

    ``master_seed`` must be below 2**64 and ``indices`` a uint64 array. The
    result is a view of this thread's workspace, overwritten by the next
    call on the same thread.
    """
    idx = np.asarray(indices, dtype=np.uint64)
    ws = _workspace.fit(len(idx), n_draws)
    _seed(master_seed, idx, ws)
    return _draws(n_draws, ws)
