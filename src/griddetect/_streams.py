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
own; each starts on a 64-byte boundary (``_empty``). The array
``uniforms`` returns is part of that workspace: it is valid only until the
next call on the same thread. This module sets no bound on a block's size;
the simulator sizes blocks (``simulator._block_rows``).

At a few hundred rows most of a numpy call's time is its fixed cost, and
that cost depends on the operands. A ufunc over 250 elements took 1.25 us
with a numpy scalar operand, 0.99 us with a Python int, 0.69 us with a 0-d
array and 0.56 us with an operand of the output's shape (2 vCPU Xeon,
numpy 2.4). So every constant operand is a read-only 0-d array: the shift
counts, masks, mixing multipliers and the double scale. The SeedSequence
hash constants differ from pool word to pool word, and a hash against
(k, 1) constant columns took 4.2-4.4 us; so each workspace widens them to
its block's rows, read-only, when it is fitted to a new shape (about 48 KB
at 250 rows). They live and die with the thread's last block shape, like
its other arrays. The jump constants of ``_jumps`` stay (2, draws, 1)
columns, shared by every shape: widened to the block's rows they cost more
at 4096 rows than they saved at 250.

The first ``uniforms`` call in a process checks the kernel: it computes
the first three draws of two trials, one with a one-word seed and a small
index and one with a seed and an index past 2**32, and raises a DomainError
naming numpy's version if any bit differs from ``_PINNED_DRAWS``, the draws
numpy's own generator gives. The check uses a workspace of its own and takes
about 0.2 ms, once; later calls only read the flag it sets. It compares with
recorded draws rather than running numpy's generator, because importing
``numpy.random`` (and the ``hashlib`` it imports) adds 6 MB to a process
that does not otherwise use it. NEP 19 lets numpy change a Generator's
stream between releases; tests/test_simulator.py compares the pinned draws
with the installed numpy's generator.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

from .model import DomainError

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
# SeedSequence hashing constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_POOL_SIZE = 4
# PCG64's default 128-bit multiplier
_PCG_MULT = (2549297995355413924 << 64) | 4865540595714422341


def _scalar(value: int | float, dtype: type) -> np.ndarray:
    """A read-only 0-d array: numpy's cheapest operand for a constant."""
    a = np.array(value, dtype)
    a.flags.writeable = False
    return a


_MIX_L, _MIX_R = _scalar(0xCA01F9DD, np.uint32), _scalar(0x4973F715, np.uint32)
_U32_16 = _scalar(16, np.uint32)
_U64_1, _U64_11, _U64_32 = _scalar(1, np.uint64), _scalar(11, np.uint64), _scalar(32, np.uint64)
_U64_58, _U64_63, _U64_64 = _scalar(58, np.uint64), _scalar(63, np.uint64), _scalar(64, np.uint64)
_U64_M32 = _scalar(_M32, np.uint64)
_TO_DOUBLE = _scalar(1.0 / 9007199254740992.0, np.float64)


def _int_words(n: int) -> list[int]:
    """SeedSequence's little-endian uint32 words of a non-negative int (0 -> [0])."""
    words = [n & _M32]
    while n > _M32:
        n >>= 32
        words.append(n & _M32)
    return words


def _chain(init: int, mult: int, n: int) -> list[int]:
    """init, init * mult, init * mult**2, ... (mod 2**32): n hash constants in the order SeedSequence uses them."""
    out = [init]
    for _ in range(n - 1):
        out.append(out[-1] * mult & _M32)
    return out


def _hash_pairs(chain: list[int], uses: list[int]) -> list[int]:
    """The init then the mult constant of each hash in ``uses``: hash k xors chain[k] and multiplies by chain[k + 1]."""
    return [chain[k] for k in uses] + [chain[k + 1] for k in uses]


# SeedSequence.mix_entropy hashes the four pool words with the first five
# constants; then each source word, hashed with the next constants in turn,
# is mixed into the three other words. _seed keeps the pool in seven rows,
# word k in row k and, for k < 3, in row k + 4 as well once source k + 1 is
# reached: source s is row s, and the words it mixes into, s + 1, s + 2 and
# s + 3 (mod 4), are the slice of rows s + 1 to s + 3, so that each step
# reads and writes a view, not an indexed copy. The constants of each step
# are ordered to match. The mixed words 0, 1, 2 and 3 end in rows 4, 5, 6
# and 3; generate_state(4, uint64) then hashes the words 0, 1, 2, 3, 0, 1,
# 2, 3 with constants of its own.
_POOL_CHAIN = _chain(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE + 1)
# source s mixes into the j-th other word, in ascending order, with the hash of chain[4 + 3 * s + j]; its rows hold
# the words s + 1, s + 2, s + 3 (mod 4), so each source's hashes are listed in that order
_MIX_USES = [[4 + 3 * s + d - (d > s) for d in ((s + k) % _POOL_SIZE for k in (1, 2, 3))] for s in range(_POOL_SIZE)]
# each mixing source's row three times, copied out so that its hash runs on operands of one shape (a broadcast
# row costs more than the copy); the pool rows of the eight state words, in little-endian pairs. Both are left
# writable: ndarray.take copies a read-only index array on every call.
_SRC_ROWS = np.repeat(np.arange(_POOL_SIZE)[:, None], _POOL_SIZE - 1, axis=1)
_STATE_ROWS = np.array([[4, 5], [6, 3]] * 2)
# the init then the mult constants of each hash _seed runs, in its order: the 4 pool words, 3 words per mixing
# source, then the 8 state words; 48 in all, which a workspace widens to its block's rows (_Workspace.fit)
_SEED_HASH = np.array(
    _hash_pairs(_POOL_CHAIN, list(range(_POOL_SIZE)))
    + [c for uses in _MIX_USES for c in _hash_pairs(_POOL_CHAIN, uses)]
    + _hash_pairs(_chain(_INIT_B, _MULT_B, 2 * _POOL_SIZE + 1), list(range(2 * _POOL_SIZE))),
    dtype=np.uint32,
)
_SEED_HASH.flags.writeable = False


def _hash(words: np.ndarray, init: np.ndarray, mult: np.ndarray, tmp: np.ndarray, out: np.ndarray) -> None:
    """SeedSequence's hash of each element of ``words``, using the same element of init and mult: computed in place,
    its last step written to ``out``, which may be ``words``."""
    np.bitwise_xor(words, init, out=words)
    np.multiply(words, mult, out=words)
    np.right_shift(words, _U32_16, out=tmp)
    np.bitwise_xor(words, tmp, out=out)


def _seed(master_seed: int, idx: np.ndarray, ws: _Workspace) -> None:
    """Fill ws.limbs with each trial's (x, inc) as 64-bit and 32-bit limbs; ``idx`` is a contiguous little-endian
    uint64 array."""
    pool, h, t = ws.pool, ws.h, ws.t
    words = _int_words(master_seed)
    for r, w in enumerate(words):
        pool[r].fill(w)
    r = len(words)
    # each index enters as two words, its little-endian halves: a zero high
    # word hashes exactly as SeedSequence's zero padding, because seed and
    # index words never exceed the pool size of four
    pool[r : r + 2] = idx.view("<u4").reshape(-1, 2).T
    pool[r + 2 : _POOL_SIZE].fill(0)
    _hash(pool[:_POOL_SIZE], *ws.pool_hash, t, pool[:_POOL_SIZE])
    for src, (init, mult) in enumerate(ws.mix_hash):
        if src:
            pool[src + 3] = pool[src - 1]  # word src - 1: the slice below reads it from row src + 3
        mixed = pool[src + 1 : src + 4]
        pool.take(_SRC_ROWS[src], axis=0, out=h, mode="clip")
        _hash(h, init, mult, t[1:], h)
        np.multiply(h, _MIX_R, out=h)
        np.multiply(mixed, _MIX_L, out=mixed)
        np.subtract(mixed, h, out=mixed)
        np.right_shift(mixed, _U32_16, out=h)
        np.bitwise_xor(mixed, h, out=mixed)

    # the eight hashed words pair up little-endian into the four uint64 words of ws.s
    s = ws.s
    pool.take(_STATE_ROWS, axis=0, out=ws.st, mode="clip")
    _hash(ws.st, *ws.state_hash, ws.st_tmp, ws.s_words)

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


def _empty(shape: tuple[int, ...], dtype: type | str) -> np.ndarray:
    """An uninitialized array whose data starts on a 64-byte boundary.

    malloc aligns to 16 bytes only. numpy's vector loops ran ``_draws``
    1-21% slower with its products and limbs 16 bytes past a 32-byte
    boundary (11% at 4096 x 13, 3-5% at 250 x 25; best of 9 rounds, 2 vCPU
    Xeon), so where each array landed moved a block's cost from process to
    process.
    """
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    buf = np.empty(nbytes + 64, np.uint8)
    start = -buf.ctypes.data % 64
    return buf[start : start + nbytes].view(dtype).reshape(shape)


class _Workspace(threading.local):
    """A thread's arrays for the last block shape it computed; blocks of that shape reuse them."""

    shape: tuple[int, int] | None = None

    def fit(self, rows: int, n_draws: int) -> _Workspace:
        if (rows, n_draws) != self.shape:
            # free the last shape's arrays before allocating the new shape's
            vars(self).clear()
            self.pool = _empty((2 * _POOL_SIZE - 1, rows), np.uint32)
            self.h = _empty((_POOL_SIZE - 1, rows), np.uint32)
            self.t = _empty((_POOL_SIZE, rows), np.uint32)
            self.st = _empty((_POOL_SIZE, 2, rows), np.uint32)
            self.st_tmp = _empty((_POOL_SIZE, 2, rows), np.uint32)
            self.s = _empty((_POOL_SIZE, rows), "<u8")
            # (word, half, row): the little-endian uint32 halves of s
            self.s_words = self.s.view("<u4").reshape(_POOL_SIZE, rows, 2).transpose(0, 2, 1)
            # the seeding's hash constants, one row of the block's width each (see the module docstring)
            hashes = _empty((len(_SEED_HASH), rows), np.uint32)
            hashes[...] = _SEED_HASH[:, None]
            hashes.flags.writeable = False
            self.pool_hash = hashes[: 2 * _POOL_SIZE].reshape(2, _POOL_SIZE, rows)
            self.mix_hash = hashes[2 * _POOL_SIZE : 8 * _POOL_SIZE].reshape(_POOL_SIZE, 2, _POOL_SIZE - 1, rows)
            self.state_hash = hashes[8 * _POOL_SIZE :].reshape(2, _POOL_SIZE, 2, rows)
            self.limbs = _empty((4, 2, rows), np.uint64)
            self.p, self.q, self.r = (_empty((2, n_draws, rows), np.uint64) for _ in range(3))
            self.shape = (rows, n_draws)
        return self


_workspace = _Workspace()
# the first three random() values of Generator(PCG64(SeedSequence((master_seed, index)))) under numpy 2.4.6,
# keyed on (master_seed, index): the draws the first uniforms call in a process requires of this module
_PINNED_DRAWS = {
    (12345, 7): (0.9649993313711044, 0.4550254143263811, 0.9564295527021338),
    (2**63 + 12345, 2**40 + 3): (0.770589685891149, 0.7389304103357326, 0.675359968130809),
}
_checked = False


def _check_streams() -> None:
    """Raise a DomainError unless this module draws _PINNED_DRAWS bit for bit."""
    global _checked
    ws = _Workspace().fit(1, 3)  # not this thread's workspace, which stays fitted to the caller's block
    for (master_seed, index), pinned in _PINNED_DRAWS.items():
        _seed(master_seed, np.array([index], dtype="<u8"), ws)
        if _draws(3, ws)[0].tobytes() != np.array(pinned).tobytes():
            raise DomainError(f"under numpy {np.__version__} the simulator's stream kernel does not draw "
                              f"numpy's PCG64 stream (master seed {master_seed}, trial {index}), so simulated "
                              "numbers would not be the pinned ones")
    _checked = True


def uniforms(master_seed: int, indices: np.ndarray, n_draws: int) -> np.ndarray:
    """The first ``n_draws`` ``random()`` values of each trial's stream, shape (len(indices), n_draws).

    ``master_seed`` must be below 2**64 and ``indices`` a uint64 array. The
    result is a view of this thread's workspace, overwritten by the next
    call on the same thread.
    """
    if not _checked:
        _check_streams()
    idx = np.ascontiguousarray(indices, dtype="<u8")
    ws = _workspace.fit(len(idx), n_draws)
    _seed(master_seed, idx, ws)
    return _draws(n_draws, ws)
