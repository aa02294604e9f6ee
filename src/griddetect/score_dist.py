"""Exact distribution of the weighted alarm score.

The base station sums one weight per alarming sensor, grouped by class:
X = sum_i w_i * x_i where x_i is the alarm count of class i. Under either
hypothesis the x_i are independent binomials, so every exact quantity is
a sum over a cell's grid of count tuples (:func:`cell_grid`), weighted by
each tuple's probability under a law (:func:`cell_masses`). Its score
(:func:`tuple_scores`) is the one definition that atoms, decision rules and
the simulator all compare. :func:`cell_ranking` sorts a cell's tuples by
score once per weight vector and merges near-equal scores into atoms;
:func:`score_distribution` reads a law's masses in that order and adds
them up per atom (:func:`score_law_prefix` only as far as a most-powerful
walk reads). A score law is held as arrays: atom values and masses,
the grid rows in score order and each atom's first row. The count tuples
in that order and ``ScoreAtom`` objects are built on request.

The grid functions keep read-only arrays in least-recently-used caches: the
tuples of ``GRID_CACHE_SIZE`` cells, in the smallest unsigned dtype that holds
the largest count (so also ``ScoreDistribution.tuples``), and the rankings of
twice as many weight vectors: the int32 stable score order, the scores in that
order, each atom's first rank and value, and the int32 index and first and end
ranks of each atom of more than one row. :func:`ranked_masses` keeps 32 MiB of
laws' masses in a ranking's order, so that score laws, most-powerful walks and
error rates slice them, and no command on a ``MAX_COUNT_TUPLES`` cell gathers
a law's masses twice.

:func:`exact_sum` gives the bits of ``math.fsum``, which rounds the exact sum
once (Shewchuk 1997), by summing exactly per exponent first (after Rump,
Ogita and Oishi 2008): a term m * 2**e splits into a float32 head of m and
an exact tail m - head, up to 2**25 heads or tails of one e add without
rounding (53 bits at most), ``np.ldexp`` scales each of those sums exactly
(to a multiple of 2**-1074), and one fsum rounds their total.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import threading
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .model import ClassAlarmLaw, DomainError, _check_weights

__all__ = [
    "MERGE_REL_TOL",
    "BRUTE_FORCE_MAX_SENSORS",
    "MAX_COUNT_TUPLES",
    "GRID_CACHE_SIZE",
    "MAX_BINOMIAL_COUNT",
    "VECTOR_SUM_MIN_LENGTH",
    "atom_tolerance",
    "exact_sum",
    "ClassAlarmLaw",
    "ScoreAtom",
    "ScoreDistribution",
    "count_tuples",
    "tuple_scores",
    "cell_grid",
    "cell_masses",
    "cell_ranking",
    "ranked_masses",
    "score_distribution",
    "score_law_prefix",
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

# Count-tuple grids cached; rankings are cached for twice as many weight vectors.
GRID_CACHE_SIZE = 4

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
    ``grid`` of positive mass, sorted by score; ``tuples`` gathers them.
    """

    values: np.ndarray
    probs: np.ndarray
    starts: np.ndarray
    order: np.ndarray
    grid: np.ndarray

    @functools.cached_property
    def tuples(self) -> np.ndarray:  # gathered on first use
        return np.take(self.grid, self.order, axis=0)

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


def count_tuples(counts: Sequence[int]) -> np.ndarray:
    """(N, K) array of every count tuple with 0 <= x_i <= counts[i], in lexicographic order."""
    dims = tuple(int(n) + 1 for n in counts)
    n_tuples = math.prod(dims)
    if n_tuples > MAX_COUNT_TUPLES:
        raise DomainError(f"the cell has {n_tuples} count tuples; exact analysis is capped at {MAX_COUNT_TUPLES}")
    return np.indices(dims, dtype=np.min_scalar_type(max(dims) - 1)).reshape(len(dims), -1).T


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


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=GRID_CACHE_SIZE)
def cell_grid(counts: tuple[int, ...]) -> np.ndarray:
    """count_tuples of a cell, row-major so that rows gather whole."""
    return _frozen(np.ascontiguousarray(count_tuples(counts)))


def cell_masses(law: ClassAlarmLaw) -> np.ndarray:
    """Probability of each count tuple of the cell, in grid order: its binomial masses multiplied in class order."""
    cell_grid(law.counts)  # refuses a cell of too many tuples
    masses = np.ones(1)  # times each class's masses, an outer product in grid order
    for i, (n, q) in enumerate(zip(law.counts, law.alarm_probs)):
        if n > MAX_BINOMIAL_COUNT:
            raise DomainError(
                f"class {i}: count {n} is too large for the exact score law (at most {MAX_BINOMIAL_COUNT})"
            )
        masses = np.multiply.outer(masses, [math.comb(n, x) * q**x * (1.0 - q) ** (n - x) for x in range(n + 1)])
    return masses.ravel()


@functools.lru_cache(maxsize=2 * GRID_CACHE_SIZE)
def cell_ranking(counts: tuple[int, ...], weights: tuple[float, ...]) -> tuple[np.ndarray, ...]:
    """(order, ranked, starts, values, multi, spans): the cell's int32 stable ascending score order, the
    scores in that order, each atom's first rank and value, near-equal scores merged over the whole
    grid, and _multi_row_atoms of those atoms."""
    scores = tuple_scores(weights, cell_grid(counts))
    order = np.argsort(scores, kind="stable").astype(np.int32)
    ranked = scores[order]
    starts = _atom_starts(ranked)
    multi = _multi_row_atoms(starts, len(ranked))
    return tuple(map(_frozen, (order, ranked, starts, ranked[starts], *multi)))


_RANKED_BYTES = GRID_CACHE_SIZE * MAX_COUNT_TUPLES * 8  # ranked_masses' budget; an entry counts at least 64 KiB
_ranked: dict[tuple, tuple[np.ndarray, bool]] = {}  # its entries, least recently used first
_ranked_lock = threading.Lock()


def ranked_masses(law: ClassAlarmLaw, weights: tuple[float, ...]) -> tuple[np.ndarray, bool]:
    """(masses, all positive): a law's read-only masses in the stable score order of one weight vector, kept by
    (law, weights) in a thread-safe store of at most ``_RANKED_BYTES``; a larger array is returned, not kept."""
    key = law.counts, law.alarm_probs, weights  # hashed in C, unlike the law
    with _ranked_lock:
        if (entry := _ranked.pop(key, None)) is not None:
            _ranked[key] = entry
            return entry
    ranked = _frozen(cell_masses(law)[cell_ranking(law.counts, weights)[0]])
    entry = ranked, bool(ranked.all())
    with _ranked_lock:
        if max(ranked.nbytes, 2**16) <= _RANKED_BYTES:
            _ranked[key] = entry
        while sum(max(a.nbytes, 2**16) for a, _ in _ranked.values()) > _RANKED_BYTES:
            _ranked.pop(next(iter(_ranked)))
    return entry


def _atom_starts(scores: np.ndarray) -> np.ndarray:
    """First row of each atom of ascending ``scores``: a head and every later score within its tolerance.

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
    return np.sort(np.append(runs, heads)) if heads else runs


def _multi_row_atoms(starts: np.ndarray, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The atoms of more than one of ``n_rows`` ranks: their int32 indices and (M, 2) int32 first and end ranks."""
    bounds = np.append(starts, n_rows)
    multi = np.flatnonzero(np.diff(bounds) > 1)
    return multi.astype(np.int32), np.stack((bounds[multi], bounds[multi + 1]), axis=1).astype(np.int32)


def _assemble(ranking: tuple[np.ndarray, ...], ranked: np.ndarray, grid: np.ndarray) -> ScoreDistribution:
    """Add up a law's masses in rank order per atom; ties keep the order of ``grid``.

    Zero-mass tuples (alarm probabilities of 0 or 1) are no atoms: the rest keeps its order, merged afresh.
    """
    order, scores, starts, values, multi, spans = ranking
    if not ranked.all():
        keep = ranked > 0.0
        order, scores, ranked = order[keep], scores[keep], ranked[keep]
        starts = _atom_starts(scores)
        values = scores[starts]
        multi, spans = _multi_row_atoms(starts, len(ranked))
    probs = ranked  # when every atom is one row
    if len(multi):
        probs = ranked[starts]
        probs[multi] = _atom_sums(ranked, spans)
    return ScoreDistribution(values=values, probs=probs, starts=starts, order=order, grid=grid)


def _atom_sums(ranked: np.ndarray, spans: np.ndarray) -> list[float]:
    """The exact sum of ``ranked[a:b]`` for each first and end rank (a, b) of ``spans``."""
    flat = memoryview(ranked)  # fsum reads a slice's floats straight from the buffer
    return [exact_sum(ranked[a:b]) if b - a >= VECTOR_SUM_MIN_LENGTH else math.fsum(flat[a:b])
            for a, b in spans.tolist()]


def score_distribution(weights: Iterable[float], law: ClassAlarmLaw) -> ScoreDistribution:
    """Exact score distribution over all prod(counts[i] + 1) count tuples of ``law``."""
    weights = tuple(float(w) for w in weights)
    _check_weights(weights, law.counts)
    return _assemble(cell_ranking(law.counts, weights), ranked_masses(law, weights)[0], cell_grid(law.counts))


def score_law_prefix(weights: Iterable[float], law: ClassAlarmLaw, size: float) -> tuple[np.ndarray, ...]:
    """score_distribution's atom values and masses and their np.cumsum through the first atom whose running sum
    passes ``size``, prefixes of the whole law's arrays bit for bit: a law of positive masses is summed over 4**k
    times 4,096 one-row atoms, or to one atom past where rounded atom sums pass ``size``; else the whole law."""
    weights = tuple(float(w) for w in weights)
    _check_weights(weights, law.counts)
    _, _, starts, values, multi, spans = ranking = cell_ranking(law.counts, weights)
    ranked, positive = ranked_masses(law, weights)
    if positive and not len(multi):
        n = 4096
        while (cum := np.cumsum(ranked[:n]))[-1] <= size and n < len(ranked):
            n *= 4
        return values[:n], ranked[:n], cum
    if positive:
        n = int(np.cumsum(np.add.reduceat(ranked, starts)).searchsorted(size, "right")) + 2  # atoms kept
        probs = ranked[starts[:n]]
        m = int(multi.searchsorted(n))
        probs[multi[:m]] = _atom_sums(ranked, spans[:m])
        cum = np.cumsum(probs)
        if n >= len(starts) or cum[-1] > size:
            return values[:n], probs, cum
    dist = _assemble(ranking, ranked, cell_grid(law.counts))
    return dist.values, dist.probs, np.cumsum(dist.probs)


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
    return _assemble(ranking, masses[ranking[0]], cell_grid(law.counts))
