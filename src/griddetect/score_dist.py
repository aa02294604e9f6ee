"""Exact distribution of the weighted alarm score.

The base station sums one weight per alarming sensor, grouped by class:
X = sum_i w_i * x_i where x_i is the alarm count of class i. Under either
hypothesis the x_i are independent binomials, so every exact quantity is
a sum over the grid of count tuples: :func:`count_tuples` builds it,
:func:`tuple_masses` gives each tuple's probability under a law and
:func:`tuple_scores` its score, the one definition of a score that atoms,
decision rules and the simulator all compare. :func:`score_distribution`
sorts the grid by score and merges near-equal scores into atoms, held as
arrays: atom values and masses, the sorted tuples and each atom's first
row. ``ScoreAtom`` objects with their count tuples are built on request.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .model import DomainError

__all__ = [
    "MERGE_REL_TOL",
    "BRUTE_FORCE_MAX_SENSORS",
    "MAX_COUNT_TUPLES",
    "atom_tolerance",
    "ClassAlarmLaw",
    "ScoreAtom",
    "ScoreDistribution",
    "count_tuples",
    "tuple_scores",
    "tuple_masses",
    "score_distribution",
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


def atom_tolerance(value: float) -> float:
    return MERGE_REL_TOL * max(1.0, abs(value))


@dataclass(frozen=True)
class ClassAlarmLaw:
    """Independent per-class alarm counts: x_i ~ Binomial(counts[i], alarm_probs[i])."""

    counts: tuple[int, ...]
    alarm_probs: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", tuple(self.counts))
        object.__setattr__(self, "alarm_probs", tuple(float(q) for q in self.alarm_probs))
        if len(self.counts) != len(self.alarm_probs):
            raise DomainError(
                f"law has {len(self.counts)} counts but {len(self.alarm_probs)} alarm probabilities"
            )
        if not self.counts:
            raise DomainError("alarm law needs at least one class")
        for i, n in enumerate(self.counts):
            if int(n) != n or n < 1:
                raise DomainError(f"class {i}: count must be a positive integer, got {n}")
        for i, q in enumerate(self.alarm_probs):
            if not (0.0 <= q <= 1.0):
                raise DomainError(f"class {i}: alarm probability out of [0, 1], got {q}")

    @property
    def total_count(self) -> int:
        return sum(self.counts)


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
    are ``tuples[starts[i]:starts[i + 1]]``, the tuples sorted by score.
    """

    values: np.ndarray
    probs: np.ndarray
    tuples: np.ndarray
    starts: np.ndarray

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
        return math.fsum(self.probs[self.values < cut].tolist())

    def prob_at(self, value: float) -> float:
        """Mass of the atom matching ``value`` within tolerance, else 0 (also for value = -inf)."""
        tol = atom_tolerance(value)
        return math.fsum(self.probs[(value - tol <= self.values) & (self.values <= value + tol)].tolist())

    def mean(self) -> float:
        return math.fsum((self.values * self.probs).tolist())

    @property
    def min_value(self) -> float:
        return float(self.values[0])

    @property
    def max_value(self) -> float:
        return float(self.values[-1])


def _check_weights(weights: tuple[float, ...], n_classes: int) -> None:
    if len(weights) != n_classes:
        raise DomainError(f"{len(weights)} weights for {n_classes} classes")
    for i, w in enumerate(weights):
        if not math.isfinite(w):
            raise DomainError(f"class {i}: weight must be finite, got {w}")
        if w <= 0.0:
            raise DomainError(f"class {i}: weight must be positive, got {w}")


def count_tuples(counts: Sequence[int]) -> np.ndarray:
    """(N, K) array of every count tuple with 0 <= x_i <= counts[i], in lexicographic order."""
    dims = tuple(int(n) + 1 for n in counts)
    n_tuples = math.prod(dims)
    if n_tuples > MAX_COUNT_TUPLES:
        raise DomainError(f"the cell has {n_tuples} count tuples; exact analysis is capped at {MAX_COUNT_TUPLES}")
    return np.indices(dims, dtype=np.int32).reshape(len(dims), -1).T


def tuple_scores(weights: Iterable[float], tuples: np.ndarray) -> np.ndarray:
    """Score sum(w_i * x_i) of each row of an (N, K) count array, summed class by class."""
    scores = np.zeros(len(tuples))
    for i, w in enumerate(weights):
        scores += w * tuples[:, i]
    return scores


def tuple_masses(law: ClassAlarmLaw, tuples: np.ndarray) -> np.ndarray:
    """Probability of each row of an (N, K) count array: its binomial masses multiplied in class order."""
    masses = np.ones(len(tuples))
    for i, (n, q) in enumerate(zip(law.counts, law.alarm_probs)):
        pmf = np.array([math.comb(n, x) * q**x * (1.0 - q) ** (n - x) for x in range(n + 1)])
        masses *= pmf[tuples[:, i]]
    return masses


def _assemble(weights: tuple[float, ...], tuples: np.ndarray, masses: np.ndarray) -> ScoreDistribution:
    """Score each count tuple, sort, and merge near-equal scores into atoms.

    Ties keep the (lexicographic) order of ``tuples``. An atom's value is the
    score of its first tuple, its head; it takes every later score within
    tolerance of the head, and its mass is the fsum of their masses.
    """
    # zero-mass tuples (alarm probabilities of exactly 0 or 1) are not atoms
    positive = masses > 0.0
    tuples, masses = tuples[positive], masses[positive]
    scores = tuple_scores(weights, tuples)
    order = np.argsort(scores, kind="stable")
    tuples, scores, masses = tuples[order], scores[order], masses[order]

    # Scores are >= 0, so no head has a wider tolerance than a later score: a
    # gap wider than the tolerance of the score before it starts an atom. A
    # run between such gaps is one atom unless its last score is out of its
    # first's tolerance; only those runs are split, one bisection per atom.
    tol = MERGE_REL_TOL * np.maximum(1.0, scores)
    runs = np.r_[0, np.flatnonzero(np.diff(scores) > tol[:-1]) + 1]
    ends = np.r_[runs[1:], len(scores)]
    chained = scores[ends - 1] - scores[runs] > tol[runs]
    heads = []
    for head, end in zip(runs[chained].tolist(), ends[chained].tolist()):
        while True:
            h = float(scores[head])
            head = bisect.bisect_right(scores, atom_tolerance(h), head + 1, end, key=lambda v: v - h)
            if head == end:
                break
            heads.append(head)
    starts = np.sort(np.r_[runs, heads]) if heads else runs

    probs = masses[starts]
    bounds = np.r_[starts, len(scores)]
    for i in np.flatnonzero(np.diff(bounds) > 1).tolist():
        probs[i] = math.fsum(masses[bounds[i] : bounds[i + 1]].tolist())
    return ScoreDistribution(values=scores[starts], probs=probs, tuples=tuples, starts=starts)


def score_distribution(weights: Iterable[float], law: ClassAlarmLaw) -> ScoreDistribution:
    """Exact score distribution over all prod(counts[i] + 1) count tuples of ``law``."""
    weights = tuple(float(w) for w in weights)
    _check_weights(weights, len(law.counts))
    tuples = count_tuples(law.counts)
    return _assemble(weights, tuples, tuple_masses(law, tuples))


def brute_force_distribution(weights: Iterable[float], law: ClassAlarmLaw) -> ScoreDistribution:
    """Independent oracle: enumerate every individual response vector.

    Walks all 2**total_count alarm patterns with per-sensor Bernoulli
    masses and aggregates them into count tuples, never using the binomial
    closed form. Must match :func:`score_distribution` atom for atom.
    """
    weights = tuple(float(w) for w in weights)
    _check_weights(weights, len(law.counts))
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
    keys = sorted(tuple_probs)
    return _assemble(weights, np.array(keys), np.array([tuple_probs[key] for key in keys]))
