"""Exact distribution of the weighted alarm score.

The base station sums one weight per alarming sensor, grouped by class:
X = sum_i w_i * x_i where x_i is the alarm count of class i. Under either
hypothesis the x_i are independent binomials, so every exact quantity is
a sum over a cell's grid of count tuples (:func:`count_tuples`), weighted by
each tuple's probability under a law (:func:`cell_masses`). Its score
(:func:`tuple_scores`) is the one definition that atoms, decision rules and
the simulator all compare. :func:`cell_ranking` sorts a cell's tuples by
score once per weight vector and merges near-equal scores into atoms;
:func:`score_distribution` reads a law's masses in that order and adds
them up per atom (:func:`score_law_walk` adds their running sum, which a
most-powerful walk searches). A score law is held as arrays: atom values and
masses, the grid rows in score order and each atom's first row. The count
tuples in that order and ``ScoreAtom`` objects are built on request.

One thread-safe least-recently-used store of ``STORE_BYTES`` keeps read-only
arrays of four kinds, each in one entry keyed by its builder's name and
arguments and charged its bytes plus a fixed overhead. Each holds only what a
warm read needs; the grid is never kept, but built afresh where an entry is.
A cell's ranking under a weight vector (:func:`cell_ranking`): the int32 stable
score order, the scores in that order, and each atom's int32 first rank and
value; a law is tied where it has fewer atoms than ranks. A law's masses in
that order, with its checkpoint limbs and stride, from which :func:`ranked_sum`
adds any prefix reading fewer than one stride of masses (``_ranked_law``). A
positive law's walk (``_law_walk``): its mass per atom where it is tied, and
their running sum. A simulated rule set's verdict table on a cell
(``simulator._plan``). No command on a ``MAX_COUNT_TUPLES`` cell builds an
entry twice.

:func:`exact_sum` gives the bits of ``math.fsum``, which rounds the exact sum
once (Shewchuk 1997), by summing exactly per exponent first (after Rump,
Ogita and Oishi 2008): a term m * 2**e splits into a float32 head of m and
an exact tail m - head, up to 2**25 heads or tails of one e add without
rounding (53 bits at most), ``np.ldexp`` scales each of those sums exactly
(to a multiple of 2**-1074), and one fsum rounds their total. So any exact
split of the terms gives the same bits: ``_checkpoint_limbs`` keeps one
every stride ranks. A law's masses are integers below 2**85 times
2**(low - 53), low the exponent of the least positive one; each falls into
three 32-bit limbs at fixed positions, a column of at most 2**20 limbs sums
exactly below 2**52, and its sum times its limb's power of two is a double (a
multiple of 2**-1074, as every mass is). A row is width = (high - low) // 32 + 3
limbs, high the exponent of the largest mass, at most 36; a law's stride is the
least power of two of at least 4 * width ranks, 16 to 256, so its rows take at
most a quarter of its masses' bytes.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .model import ClassAlarmLaw, DomainError, _check_weights

__all__ = [
    "MERGE_REL_TOL", "BRUTE_FORCE_MAX_SENSORS", "MAX_COUNT_TUPLES", "STORE_BYTES", "MAX_BINOMIAL_COUNT",
    "VECTOR_SUM_MIN_LENGTH", "atom_tolerance", "exact_sum", "ClassAlarmLaw", "ScoreAtom", "ScoreDistribution",
    "count_tuples", "tuple_scores", "cell_masses", "cell_ranking", "score_distribution", "score_law_walk", "ranked_sum",
    "brute_force_distribution",
]

# Relative tolerance under which two scores count as the same atom. Equal
# scores from distinct count tuples (common with integer-approximated
# weights) must merge so boundary randomization sees the whole atom.
MERGE_REL_TOL = 1e-9

# 2**n response vectors; keep the exhaustive oracle at desk scale.
BRUTE_FORCE_MAX_SENSORS = 20

# Rows of the count-tuple grid; about 9x a cell of six classes of six sensors.
MAX_COUNT_TUPLES = 2**20

# Largest class count whose binomial coefficients all convert to a float:
# math.comb(1030, 515) exceeds the float range.
MAX_BINOMIAL_COUNT = 1029

# exact_sum calls math.fsum below this length: on a 2-vCPU Intel Xeon both take 15-20 us at 400-500 masses.
VECTOR_SUM_MIN_LENGTH = 512


def atom_tolerance(value: float) -> float:
    return MERGE_REL_TOL * max(1.0, abs(value))


def exact_sum(*parts: np.ndarray) -> float:
    """``math.fsum`` of the terms of all ``parts`` bit for bit: finite nonnegative float64s, at most 2**25 a part."""
    terms = []
    for a in parts:
        if len(a) >= VECTOR_SUM_MIN_LENGTH:  # a long part adds its exact sums per exponent instead
            m, e = np.frexp(a)
            head = m.astype(np.float32).astype(float)
            m -= head
            e -= (low := int(e.min()))
            sums = np.stack((np.bincount(e, weights=head), np.bincount(e, weights=m)))
            a = np.ldexp(sums, np.arange(low, low + sums.shape[1])).ravel()
        terms += a.tolist()
    return math.fsum(terms)


@dataclass(frozen=True)
class ScoreAtom:
    """One point of positive probability, with the count tuples that land on it."""

    value: float
    prob: float
    support: tuple[tuple[int, ...], ...]


@dataclass(frozen=True, eq=False)
class ScoreDistribution:
    """Atoms of the score in ascending order; probabilities sum to one.

    Atom i has value ``values[i]`` and mass ``probs[i]``; its count tuples
    are ``tuples[starts[i]:starts[i + 1]]``. ``order`` lists the rows of
    the grid of ``counts`` of positive mass, sorted by score; ``tuples``
    gathers them.
    """

    values: np.ndarray
    probs: np.ndarray
    starts: np.ndarray
    order: np.ndarray
    counts: tuple[int, ...]

    @functools.cached_property
    def tuples(self) -> np.ndarray:  # gathered on first use
        return count_tuples(self.counts)[self.order]

    @functools.cached_property
    def atoms(self) -> tuple[ScoreAtom, ...]:
        """The atoms with their count tuples, built on first use."""
        support = list(map(tuple, self.tuples.tolist()))
        bounds = [*self.starts.tolist(), len(support)]
        return tuple(
            ScoreAtom(value=v, prob=p, support=tuple(support[a:b]))
            for v, p, a, b in zip(self.values.tolist(), self.probs.tolist(), bounds, bounds[1:])
        )

    def prob_below(self, value: float) -> float:
        """P(X < value), counting atoms within tolerance of ``value`` as equal, not below."""
        cut = value - atom_tolerance(value)
        return exact_sum(self.probs[self.values < cut])

    def prob_at(self, value: float) -> float:
        """Mass of the atom matching ``value`` within tolerance, else 0 (also for value = -inf)."""
        tol = atom_tolerance(value)
        return exact_sum(self.probs[(value - tol <= self.values) & (self.values <= value + tol)])

    def mean(self) -> float:
        return exact_sum(self.values * self.probs)

    @property
    def min_value(self) -> float:
        return float(self.values[0])

    @property
    def max_value(self) -> float:
        return float(self.values[-1])


def _check_cap(counts: Sequence[int]) -> tuple[int, ...]:
    """The grid's size per class, once the cell is found to have at most MAX_COUNT_TUPLES count tuples."""
    dims = tuple(int(n) + 1 for n in counts)
    if (n_tuples := math.prod(dims)) > MAX_COUNT_TUPLES:
        raise DomainError(f"the cell has {n_tuples} count tuples; exact analysis is capped at {MAX_COUNT_TUPLES}")
    return dims


def count_tuples(counts: Sequence[int]) -> np.ndarray:
    """(N, K) row-major array of every count tuple with 0 <= x_i <= counts[i], in lexicographic order, in the
    smallest unsigned dtype that holds the largest count."""
    dims = _check_cap(counts)
    grid = np.empty(dims + (len(dims),), np.min_scalar_type(max(dims) - 1))
    for i, d in enumerate(dims):  # filled one column at a time, so the grid is held once
        grid[..., i] = np.arange(d, dtype=grid.dtype).reshape((d,) + (1,) * (len(dims) - 1 - i))
    return grid.reshape(-1, len(dims))


def tuple_scores(weights: Sequence[float] | np.ndarray, tuples: np.ndarray) -> np.ndarray:
    """Score sum(w_i * x_i) of each row of an (N, K) count array, summed class by class.

    A (K, R) weight array scores every row under each of its R columns at
    once, shape (N, R), with the same products added in the same order.
    """
    weights = np.asarray(weights, dtype=float)  # an int weight times a uint8 column would wrap
    columns = tuples.T[(...,) + (None,) * (weights.ndim - 1)]
    scores = np.zeros(columns.shape[1:2] + weights.shape[1:])
    for w, x in zip(weights, columns):
        scores += w * x
    return scores


# The least budget at which no command on a cell under the cap builds an entry twice, 44 MiB, and 8 MiB to spare: what
# a design's rates read together, a ranking of distinct scores (24 MiB: its order and atom starts int32, its scores and
# values float64) and two laws' masses (16 MiB) with their checkpoint limbs (at most a quarter of the masses). A walk's
# running sum (8 MiB) is read before the rates, and may make way for them.
STORE_BYTES = 52 * 2**20
# what tracemalloc sees an entry hold besides its arrays' data, the most of any kind: over 242 small cells, 770 bytes
# a ranking, 590 a ranked law and 520 a walk
_ENTRY_BYTES = 800
_store: OrderedDict[tuple, tuple] = OrderedDict()  # (kind, *arguments): (result, bytes charged), least recent first
_store_lock = threading.Lock()  # guards every insertion and eviction, and _store_bytes, their total
_store_bytes = 0


def _in_store(build):
    """``build`` with its results, read-only arrays or tuples of them and of ints, kept in the store under its name
    and its arguments; a result of more than ``STORE_BYTES``, or a list (what a build sums afresh on each call), is
    returned, not kept."""
    kind = (build.__name__,)

    def fetch(*args):
        global _store_bytes
        key = kind + args
        try:  # a hit takes no lock: the lookup and the move are each atomic under the GIL
            value = _store[key][0]
            _store.move_to_end(key)
            return value
        except KeyError:  # not kept, or evicted by another thread since the lookup
            pass
        value = build(*args)
        if isinstance(value, list):
            return value
        arrays = [a for a in (value if isinstance(value, tuple) else (value,)) if isinstance(a, np.ndarray)]
        for a in arrays:
            a.flags.writeable = False
        nbytes = _ENTRY_BYTES + sum(a.nbytes for a in arrays)
        with _store_lock:
            _store_bytes -= _store.pop(key, (None, 0))[1]  # what another thread built meanwhile, if it did
            if nbytes <= STORE_BYTES:
                _store[key] = value, nbytes
                _store_bytes += nbytes
            while _store_bytes > STORE_BYTES:
                _store_bytes -= _store.popitem(last=False)[1][1]
        return value
    return functools.wraps(build)(fetch)


def cell_masses(law: ClassAlarmLaw) -> np.ndarray:
    """Probability of each count tuple of the cell, in grid order: its binomial masses multiplied in class order."""
    _check_cap(law.counts)
    masses = np.ones(1)  # times each class's masses, an outer product in grid order
    for i, (n, q) in enumerate(zip(law.counts, law.alarm_probs)):
        if n > MAX_BINOMIAL_COUNT:
            raise DomainError(
                f"class {i}: count {n} is too large for the exact score law (at most {MAX_BINOMIAL_COUNT})"
            )
        masses = np.multiply.outer(masses, [math.comb(n, x) * q**x * (1.0 - q) ** (n - x) for x in range(n + 1)])
    return masses.ravel()


@_in_store
def cell_ranking(counts: tuple[int, ...], weights: tuple[float, ...]) -> tuple[np.ndarray, ...]:
    """(order, scores, starts, values): the cell's int32 stable ascending score order, the scores in that order,
    and each atom's int32 first rank and value, near-equal scores merged over the whole grid."""
    scores = tuple_scores(weights, count_tuples(counts))
    order = np.argsort(scores, kind="stable").astype(np.int32)
    ranked = scores[order]
    starts = _atom_starts(ranked)
    return order, ranked, starts, ranked[starts]


@_in_store
def _ranked_law(counts, alarm_probs, weights) -> tuple:
    """(masses, limbs, stride): a law's masses in the stable score order of one weight vector, their checkpoint
    limbs and the ranks between them."""
    masses = cell_masses(ClassAlarmLaw(counts, alarm_probs))[cell_ranking(counts, weights)[0]]
    return masses, *_checkpoint_limbs(masses)


def _atom_starts(scores: np.ndarray) -> np.ndarray:
    """First row of each atom of ascending ``scores``, int32: a head and every later score within its tolerance.

    Scores are >= 0, so no head has a wider tolerance than a later score: a gap wider than the
    tolerance of the score before it starts an atom. A run between such gaps is one atom unless its
    last score is out of its first's tolerance; only those runs are split, one bisection per atom.
    """
    tol = MERGE_REL_TOL * np.maximum(1.0, scores)
    runs = np.append(0, np.flatnonzero(np.diff(scores) > tol[:-1]) + 1)
    ends = np.append(runs[1:], len(scores))
    chained = scores[ends - 1] - scores[runs] > tol[runs]
    heads = []
    for head, end in zip(runs[chained].tolist(), ends[chained].tolist()):
        while True:
            h = float(scores[head])
            head = bisect.bisect_right(scores, atom_tolerance(h), head + 1, end, key=lambda v: v - h)
            if head == end:
                break
            heads.append(head)
    return (np.sort(np.append(runs, heads)) if heads else runs).astype(np.int32)


def _assemble(ranking: tuple[np.ndarray, ...], masses: np.ndarray, counts: tuple[int, ...]) -> ScoreDistribution:
    """Add up a law's ranked masses per atom; ties keep the grid's order.

    Zero-mass tuples (alarm probabilities of 0 or 1) are no atoms: the rest keeps its order, merged afresh.
    """
    order, scores, starts, values = ranking
    if np.count_nonzero(masses) < masses.size:
        keep = masses > 0.0
        order, scores, masses = order[keep], scores[keep], masses[keep]
        starts = _atom_starts(scores)
        values = scores[starts]
    probs = masses  # when every atom is one row
    if len(starts) < len(masses):
        bounds = np.append(starts, len(masses))
        multi = np.flatnonzero(np.diff(bounds) > 1)
        probs = masses[starts]
        probs[multi] = _atom_sums(masses, zip(bounds[multi].tolist(), bounds[multi + 1].tolist()))
    return ScoreDistribution(values=values, probs=probs, starts=starts, order=order, counts=counts)


def _atom_sums(masses: np.ndarray, spans: Iterable[tuple[int, int]]) -> list[float]:
    """The exact sum of ``masses[a:b]`` for each first and end rank (a, b) of ``spans``."""
    flat = memoryview(masses)  # fsum reads a slice's floats straight from the buffer
    return [exact_sum(masses[a:b]) if b - a >= VECTOR_SUM_MIN_LENGTH else math.fsum(flat[a:b]) for a, b in spans]


def score_distribution(weights: Iterable[float], law: ClassAlarmLaw) -> ScoreDistribution:
    """Exact score distribution over all prod(counts[i] + 1) count tuples of ``law``."""
    weights = tuple(float(w) for w in weights)
    _check_weights(weights, law.counts)
    ranking = cell_ranking(law.counts, weights)
    masses = _ranked_law(law.counts, law.alarm_probs, weights)[0]
    if np.count_nonzero(masses) < masses.size:  # merged afresh on each call, not kept
        return _assemble(ranking, masses, law.counts)
    order, _, starts, values = ranking
    probs = _law_walk(law.counts, law.alarm_probs, weights)[0] if len(starts) < len(order) else masses
    return ScoreDistribution(values=values, probs=probs, starts=starts, order=order, counts=law.counts)


def score_law_walk(weights: Iterable[float], law: ClassAlarmLaw) -> tuple[np.ndarray, ...]:
    """(values, probs, cum, scores): score_distribution's atom values and masses and their np.cumsum, which the
    most-powerful walk reads, kept once for a law of positive masses, and the cell's ranked scores."""
    key = law.counts, law.alarm_probs, tuple(float(w) for w in weights)
    walk = _law_walk(*key)  # first: it checks the weights before any ranking under them is read
    ranking = cell_ranking(key[0], key[2])
    if isinstance(walk, list):  # zero masses: summed afresh
        return *walk, ranking[1]
    return ranking[3], walk[0] if len(walk) == 2 else _ranked_law(*key)[0], walk[-1], ranking[1]


@_in_store
def _law_walk(counts, alarm_probs, weights) -> tuple[np.ndarray, ...] | list[np.ndarray]:
    """(mass per atom, running sum) of a law of positive masses, the first left out where the law is not tied;
    checks the weights, so a kept walk needs none. A law with zero masses gives [values, probs, cum], not kept."""
    _check_weights(weights, counts)
    ranking, masses = cell_ranking(counts, weights), _ranked_law(counts, alarm_probs, weights)[0]
    dist = _assemble(ranking, masses, counts)
    cum = np.cumsum(dist.probs)
    if np.count_nonzero(masses) < masses.size:
        return [dist.values, dist.probs, cum]
    return (dist.probs, cum) if len(dist.starts) < len(masses) else (cum,)


def ranked_sum(law: ClassAlarmLaw, weights: tuple[float, ...], i: int, j: int = 0, k: float = 0.0) -> float:
    """exact_sum of a law's first i masses in the score order of ``weights``, plus k times those of ranks i to j: the
    stored limbs of the last checkpoint at or below i, and the fewer than one stride of masses after it."""
    masses, rows, stride = _ranked_law(law.counts, law.alarm_probs, weights)
    c, tail = divmod(i, stride)
    parts = (masses[i - tail:i], masses[i:j] * k) if j > i else (masses[i - tail:i],)
    return exact_sum(rows[c - 1], *parts) if c else exact_sum(*parts)


def _checkpoint_limbs(masses: np.ndarray) -> tuple[np.ndarray, int]:
    """(rows, stride): row c's terms add up exactly to the first (c + 1) * stride of ``masses``, at most 2**20 finite
    nonnegative float64s (the module docstring says why the sums are exact)."""
    low, high = np.frexp([np.min(masses, where=masses > 0.0, initial=1.0), masses.max()])[1].tolist()
    width = (max(high, low) - low) // 32 + 3  # 32-bit limbs from 2**(low - 53) up, 3 per mass
    # a row per 16 to 256 masses, the least power of two of at least 4 * width, so that the rows take at most a
    # quarter of the masses' bytes; 2**14 masses a pass, so that the temporaries stay small
    block, step = 1 << (4 * width - 1).bit_length(), 2**14
    rows = np.zeros((len(masses) // block, width))
    end = len(rows) * block
    rows_at = np.repeat(width * np.arange(step // block), block)  # the first limb of each mass's row in a pass
    for a in range(0, end, step):
        x = masses[a:min(a + step, end)]
        first = np.clip((np.frexp(x)[1] - low) // 32, 0, width - 3)  # each mass's lowest limb; a zero is 0 in all
        t = np.ldexp(x, 53 - low - 32 * first)  # the mass in units of that limb: an integer below 2**85
        part = rows[a // block:(a + len(x)) // block]  # these blocks' rows, a view
        at = first + rows_at[:len(x)]
        for d in range(3):  # the low 32 bits of t into limb first + d, the rest shifted down
            rest = np.floor(t * 2.0**-32)
            part += np.bincount(at + d, t - rest * 2.0**32, part.size).reshape(part.shape)
            t = rest
    scale = np.arange(low - 53, low - 53 + 32 * width, 32, dtype=np.int32)  # ldexp casts int64 exponents first
    return np.ldexp(np.cumsum(rows, axis=0, out=rows), scale, out=rows), block


def brute_force_distribution(weights: Iterable[float], law: ClassAlarmLaw) -> ScoreDistribution:
    """Independent oracle: enumerate every individual response vector.

    Walks all 2**total_count alarm patterns with per-sensor Bernoulli
    masses and aggregates them into count tuples, never using the binomial
    closed form. Must match :func:`score_distribution` atom for atom.
    """
    weights = tuple(float(w) for w in weights)
    _check_weights(weights, law.counts)
    total = law.total_count
    if total > BRUTE_FORCE_MAX_SENSORS:
        raise DomainError(
            f"brute force enumeration capped at {BRUTE_FORCE_MAX_SENSORS} sensors, got {total}"
        )
    sensor_class = [i for i, n in enumerate(law.counts) for _ in range(n)]
    sensor_prob = [law.alarm_probs[c] for c in sensor_class]
    k = len(law.counts)
    tuple_probs: dict[tuple[int, ...], float] = {}
    for bits in itertools.product((0, 1), repeat=total):
        p = 1.0
        xs = [0] * k
        for j, b in enumerate(bits):
            q = sensor_prob[j]
            p *= q if b else 1.0 - q
            xs[sensor_class[j]] += b
        key = tuple(xs)
        tuple_probs[key] = tuple_probs.get(key, 0.0) + p
    # every count tuple is reachable, so the sorted keys are the rows of the cell's grid
    masses = np.array([tuple_probs[key] for key in sorted(tuple_probs)])
    ranking = cell_ranking(law.counts, weights)
    return _assemble(ranking, masses[ranking[0]], law.counts)
