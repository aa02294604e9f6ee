"""Exact distribution of the weighted alarm score.

The base station sums one weight per alarming sensor, grouped by class:
X = sum_i w_i * x_i where x_i is the alarm count of class i. Under either
hypothesis the x_i are independent binomials, so the full distribution is
a finite list of atoms obtained by enumerating every count tuple. Both
decision tests reduce to comparing X against a threshold, which makes
this module the computational core of the package.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .model import DomainError

__all__ = [
    "MERGE_REL_TOL",
    "BRUTE_FORCE_MAX_SENSORS",
    "atom_tolerance",
    "ClassAlarmLaw",
    "ScoreAtom",
    "ScoreDistribution",
    "score_distribution",
    "brute_force_distribution",
]

# Relative tolerance under which two scores count as the same atom. Equal
# scores from distinct count tuples (common with integer-approximated
# weights) must merge so boundary randomization sees the whole atom.
MERGE_REL_TOL = 1e-9

# 2**n response vectors; keep the exhaustive oracle at desk scale.
BRUTE_FORCE_MAX_SENSORS = 20


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


@dataclass(frozen=True)
class ScoreDistribution:
    """Sorted atoms of the score; probabilities sum to one."""

    atoms: tuple[ScoreAtom, ...]

    def prob_below(self, value: float) -> float:
        """P(X < value), counting atoms within tolerance of ``value`` as equal, not below."""
        cut = value - atom_tolerance(value)
        return math.fsum(a.prob for a in self.atoms if a.value < cut)

    def prob_at(self, value: float) -> float:
        """Mass of the atom matching ``value`` within tolerance, else 0 (also for value = -inf)."""
        tol = atom_tolerance(value)
        return math.fsum(a.prob for a in self.atoms if value - tol <= a.value <= value + tol)

    def mean(self) -> float:
        return math.fsum(a.value * a.prob for a in self.atoms)

    @property
    def min_value(self) -> float:
        return self.atoms[0].value

    @property
    def max_value(self) -> float:
        return self.atoms[-1].value


def _check_weights(weights: tuple[float, ...], law: ClassAlarmLaw) -> None:
    if len(weights) != len(law.counts):
        raise DomainError(f"{len(weights)} weights for {len(law.counts)} classes")
    for i, w in enumerate(weights):
        if not math.isfinite(w):
            raise DomainError(f"class {i}: weight must be finite, got {w}")
        if w <= 0.0:
            raise DomainError(f"class {i}: weight must be positive, got {w}")


def _assemble(weights: tuple[float, ...], tuple_probs: Mapping[tuple[int, ...], float]) -> ScoreDistribution:
    """Score each count tuple, sort, and merge near-equal scores into atoms.

    Shared by both enumeration routes so they produce bit-comparable atom
    values: the score of a tuple is always sum(w*x) over classes.
    """
    # zero-mass tuples (alarm probabilities of exactly 0 or 1) are not atoms
    scored = sorted(
        (math.fsum(w * x for w, x in zip(weights, xs)), xs, p)
        for xs, p in tuple_probs.items()
        if p > 0.0
    )
    atoms: list[ScoreAtom] = []
    group_value = None
    group_probs: list[float] = []
    group_support: list[tuple[int, ...]] = []

    def flush() -> None:
        if group_value is not None:
            atoms.append(
                ScoreAtom(
                    value=group_value,
                    prob=math.fsum(group_probs),
                    support=tuple(group_support),
                )
            )

    for value, xs, p in scored:
        if group_value is None or value - group_value > atom_tolerance(group_value):
            flush()
            group_value = value
            group_probs = [p]
            group_support = [xs]
        else:
            group_probs.append(p)
            group_support.append(xs)
    flush()
    return ScoreDistribution(atoms=tuple(atoms))


def score_distribution(weights: Iterable[float], law: ClassAlarmLaw) -> ScoreDistribution:
    """Exact score distribution via per-class binomial enumeration.

    Enumerates all prod(counts[i] + 1) count tuples; each tuple's
    probability is the product of binomial masses.
    """
    weights = tuple(float(w) for w in weights)
    _check_weights(weights, law)
    pmfs = []
    for n, q in zip(law.counts, law.alarm_probs):
        pmfs.append([math.comb(n, x) * q**x * (1.0 - q) ** (n - x) for x in range(n + 1)])
    tuple_probs: dict[tuple[int, ...], float] = {}
    for xs in itertools.product(*[range(n + 1) for n in law.counts]):
        p = 1.0
        for i, x in enumerate(xs):
            p *= pmfs[i][x]
        tuple_probs[xs] = p
    return _assemble(weights, tuple_probs)


def brute_force_distribution(weights: Iterable[float], law: ClassAlarmLaw) -> ScoreDistribution:
    """Independent oracle: enumerate every individual response vector.

    Walks all 2**total_count alarm patterns with per-sensor Bernoulli
    masses and aggregates them into count tuples, never using the binomial
    closed form. Must match :func:`score_distribution` atom for atom.
    """
    weights = tuple(float(w) for w in weights)
    _check_weights(weights, law)
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
    return _assemble(weights, tuple_probs)
