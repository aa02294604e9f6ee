"""Most-powerful and Bayes decision rules for the base station.

Every rule here has one form: reject the event hypothesis when the
weighted alarm score is below a threshold t, reject with probability k
when the score equals t, accept above it (few alarms point at a normal
cell). The most-powerful rule calibrates an exact size through k; the
Bayes rule derives t from the prior and the loss ratio and takes k = 0.
When p_w = 0 both are the same rule on unit weights with t = 0: reject
only the all-silent observation, with the MP rule's k, or with k = 1 for
an applicable Bayes rule and k = 0 otherwise. That (weights, t, k) form
gives each count tuple a reject probability, which decides observations.
Those tuples form a prefix of the cell's stable score order, so an exact
error rate sums the masses of the reject prefix, the boundary rows' times
k, under the event law (type I error) or the normal law (power). Only the
most-powerful rule builds a score law: the event law it walks to t.

Hypothesis convention: H0 = event occurred, H1 = normal. Rejecting H0
declares the cell normal, so the type I error (missing a real event) is
the rejection probability under the event.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, NamedTuple, Protocol, Sequence

import numpy as np

from .model import DomainError, LossRatio, Prior, ValidatedScenario
from .score_dist import (
    ClassAlarmLaw,
    ScoreDistribution,
    atom_tolerance,
    cell_masses,
    cell_ranking,
    exact_sum,
    score_distribution,
    tuple_scores,
)

__all__ = [
    "Verdict",
    "Decision",
    "Observation",
    "MPTest",
    "BayesTest",
    "OperatingCharacteristics",
    "UniformSource",
    "solve_mp_test",
    "solve_mp_tests",
    "mp_decide",
    "bayes_test",
    "bayes_decide",
    "operating_characteristics",
    "np_optimality_check",
    "NP_CHECK_MAX_SENSORS",
]

NP_CHECK_MAX_SENSORS = 20


class UniformSource(Protocol):
    """Anything with random() -> float in [0, 1); random.Random and numpy Generators qualify."""

    def random(self) -> float: ...


class Verdict(Enum):
    ACCEPT_H0 = "declare-event"
    REJECT_H0 = "declare-normal"


@dataclass(frozen=True)
class Decision:
    """Outcome of applying a rule to one observation.

    ``randomized`` is True only when a boundary coin was actually drawn.
    """

    verdict: Verdict
    randomized: bool = False

    @property
    def declared_event(self) -> bool:
        return self.verdict is Verdict.ACCEPT_H0


@dataclass(frozen=True)
class Observation:
    """Per-class alarm counts reported to the base station."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", tuple(self.counts))
        for i, x in enumerate(self.counts):
            if int(x) != x or x < 0:
                raise DomainError(f"class {i}: alarm count must be a non-negative integer, got {x}")


def _check_observation(obs: Observation, class_counts: tuple[int, ...]) -> None:
    if len(obs.counts) != len(class_counts):
        raise DomainError(
            f"observation has {len(obs.counts)} classes, rule expects {len(class_counts)}"
        )
    for i, (x, n) in enumerate(zip(obs.counts, class_counts)):
        if x > n:
            raise DomainError(f"class {i}: alarm count {x} exceeds class size {n}")


@dataclass(frozen=True)
class MPTest:
    """A solved most-powerful test of a given size.

    Reject H0 when the score is below ``threshold``; on the boundary atom
    reject with probability ``boundary_prob``. ``exact_size`` is the
    rejection probability under the law the test was solved against and
    ``exact_power`` the rejection probability under the normal hypothesis.
    In the degenerate p_w = 0 regime (``degenerate`` set) the rule ignores
    weights entirely and rejects, with probability ``boundary_prob``, only
    when every sensor stayed silent.
    """

    weights: tuple[float, ...]
    class_counts: tuple[int, ...]
    threshold: float
    boundary_prob: float
    requested_size: float
    exact_size: float
    exact_power: float
    degenerate: bool = False


@dataclass(frozen=True)
class BayesTest:
    """The minimum-risk rule for a prior and loss ratio.

    Reject H0 when the score is strictly below ``threshold``. When the
    threshold is not positive the rule accepts H0 for every observation
    and ``applicable`` is False. ``normalized_weights`` rescales the
    weights by the threshold (defined only when applicable), so the rule
    reads: reject when the normalized score is below one.
    """

    weights: tuple[float, ...]
    class_counts: tuple[int, ...]
    threshold: float
    applicable: bool
    normalized_weights: tuple[float, ...] | None
    degenerate: bool = False


class OperatingCharacteristics(NamedTuple):
    type1: float
    power: float


def _normal_law(scenario: ValidatedScenario) -> ClassAlarmLaw:
    counts = scenario.topology.counts
    return ClassAlarmLaw(counts, (scenario.channel.p_w,) * len(counts))


def _require_finite_weights(scenario: ValidatedScenario) -> tuple[float, ...]:
    stats = scenario.derived()
    for cls, w in zip(scenario.topology.classes, stats.weights):
        if math.isinf(w):
            raise DomainError(
                f"class {cls.label!r}: alarm is certain under the event "
                "(p_c = 1 with detect_prob = 1 and p_w > 0); no finite score weight exists"
            )
    return stats.weights


def _walk_to_threshold(dist: ScoreDistribution, size: float) -> tuple[float, float, float]:
    """Find the unique atom v with P(X < v) <= size < P(X <= v).

    Returns (threshold, boundary_prob, exact size). The boundary
    probability absorbs whatever part of the size the strict region does
    not reach, so P(X < v) + boundary_prob * P(X = v) equals the size.
    """
    # cumsum adds the masses one by one, so cum[i] is P(X < v_i) + P(X = v_i)
    # rounded as a running sum rounds it
    cum = np.cumsum(dist.probs)
    i = min(int(np.searchsorted(cum, size, side="right")), len(cum) - 1)
    below, prob = (float(cum[i - 1]) if i else 0.0), float(dist.probs[i])
    k = min(1.0, max(0.0, (size - below) / prob))
    return float(dist.values[i]), k, below + k * prob


def solve_mp_test(
    scenario: ValidatedScenario, size: float, *,
    weights: Iterable[float] | None = None, event_alarm_probs: Iterable[float] | None = None,
) -> MPTest:
    """The most-powerful test of one size: see solve_mp_tests."""
    return solve_mp_tests(scenario, (size,), weights=weights, event_alarm_probs=event_alarm_probs)[0]


def solve_mp_tests(
    scenario: ValidatedScenario, sizes: Iterable[float], *,
    weights: Iterable[float] | None = None, event_alarm_probs: Iterable[float] | None = None,
) -> list[MPTest]:
    """Construct the most-powerful test of each given size, in turn, on one event score law.

    ``weights`` and ``event_alarm_probs`` override the exact
    log-likelihood-ratio weights and event-alarm probabilities, which is
    how the integer-approximated rules from the reference tables are
    reproduced; omitted, the exact values are used and the solved size is
    exact to machine precision.

    With p_w = 0 silence is certain under the normal hypothesis, so the
    likelihood ratio is positive only on the all-silent observation: the
    rule rejects there, deterministically when that point's event
    probability fits inside the size, else with the calibrated coin.
    """
    counts = scenario.topology.counts
    stats = scenario.derived()
    degenerate = scenario.channel.silent_when_undetected
    normal = _normal_law(scenario)
    h0, tests = None, []
    for size in map(float, sizes):
        if not (0.0 < size < 1.0):
            raise DomainError(f"test size must lie in (0, 1), got {size}")
        if degenerate:
            if weights is not None or event_alarm_probs is not None:
                raise DomainError("weight/probability overrides are meaningless when p_w = 0")
            all_silent = math.prod(q**n for q, n in zip(stats.silence_probs, counts))
            w, threshold = stats.weights, 0.0
            k, exact_size = (1.0, all_silent) if all_silent <= size else (size / all_silent, size)
        else:
            if h0 is None:
                w = _require_finite_weights(scenario) if weights is None else tuple(float(x) for x in weights)
                q0 = stats.alarm_probs if event_alarm_probs is None else tuple(event_alarm_probs)
                h0 = score_distribution(w, ClassAlarmLaw(counts, q0))
            threshold, k, exact_size = _walk_to_threshold(h0, size)
        test = MPTest(weights=w, class_counts=counts, threshold=threshold, boundary_prob=k, requested_size=size,
                      exact_size=exact_size, exact_power=math.nan, degenerate=degenerate)
        tests.append(replace(test, exact_power=_rejection_rates(test, normal)[0]))
    return tests


def _rule_form(rule: MPTest | BayesTest) -> tuple[tuple[float, ...], float, float, float]:
    """A rule as (weights, lo, hi, k): reject with probability 1 for a score below lo, k up to hi, else 0.

    lo and hi are the threshold t less and plus its atom tolerance. Bayes
    rules take k = 0.
    """
    mp = isinstance(rule, MPTest)
    if rule.degenerate:
        # p_w = 0: the all-silent tuple is the only one scoring 0 on unit weights
        weights, t = (1.0,) * len(rule.class_counts), 0.0
        k = rule.boundary_prob if mp else float(rule.applicable)
    else:
        weights, t = rule.weights, rule.threshold
        k = rule.boundary_prob if mp else 0.0
    tol = atom_tolerance(t)
    # a threshold of -inf has infinite tolerance: lo is -inf and hi nan, so
    # no score rejects
    return weights, t - tol, t + tol, k


def _threshold_probs(score: np.ndarray, lo, hi, k) -> np.ndarray:
    return np.where(score < lo, 1.0, np.where(score <= hi, k, 0.0))


class _RuleForms(NamedTuple):
    """Several rules' (weights, lo, hi, k) forms side by side, one column per rule.

    ``weights`` is (K, R); ``lo``, ``hi`` and ``k`` are (R,).
    """

    weights: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    k: np.ndarray

    @classmethod
    def of(cls, rules: Sequence[MPTest | BayesTest], n_classes: int) -> _RuleForms:
        forms = [_rule_form(rule) for rule in rules]
        weights = np.array([f[0] for f in forms], dtype=float).reshape(len(forms), n_classes)
        return cls(weights.T, *(np.array([f[i] for f in forms], dtype=float) for i in (1, 2, 3)))

    def reject_probs(self, counts: np.ndarray) -> np.ndarray:
        """Per row of an (N, K) count array, every rule's probability of rejecting H0: shape (N, R).

        Scores come from score_dist.tuple_scores and compare as on the grid.
        """
        return _threshold_probs(tuple_scores(self.weights, counts), self.lo, self.hi, self.k)


def _rejection_rates(rule: MPTest | BayesTest, *laws: ClassAlarmLaw) -> list[float]:
    """P(reject H0) under each law: the masses of ranks below i, plus k times those of ranks i to j."""
    # scores of rank below i are under lo, up to j at most hi; a nan bound compares false, as in _threshold_probs
    weights, lo, hi, k = _rule_form(rule)
    order, ranked = cell_ranking(rule.class_counts, weights)[:2]
    i = 0 if math.isnan(lo) else int(ranked.searchsorted(lo, "left"))
    j = i if k == 0.0 or math.isnan(hi) else max(i, int(ranked.searchsorted(hi, "right")))
    rates = []
    for law in laws:
        masses = cell_masses(law)[order[:j]]
        masses[i:] *= k
        rates.append(exact_sum(masses))
    return rates


def _decide(rule: MPTest | BayesTest, obs: Observation, coin: UniformSource | None) -> Decision:
    _check_observation(obs, rule.class_counts)
    weights, lo, hi, k = _rule_form(rule)
    p = float(_threshold_probs(tuple_scores(weights, np.array([obs.counts])), lo, hi, k)[0])
    if 0.0 < p < 1.0:
        verdict = Verdict.REJECT_H0 if coin.random() < p else Verdict.ACCEPT_H0
        return Decision(verdict, randomized=True)
    return Decision(Verdict.REJECT_H0 if p >= 1.0 else Verdict.ACCEPT_H0)


def mp_decide(test: MPTest, obs: Observation, coin: UniformSource) -> Decision:
    """Apply a most-powerful rule to one observation.

    ``coin`` supplies the single uniform draw used on the boundary atom;
    the caller owns it, so decisions stay reproducible under seeded use.
    It is drawn only when the boundary probability lies strictly inside
    (0, 1).
    """
    return _decide(test, obs, coin)


def bayes_test(scenario: ValidatedScenario, prior: Prior, loss: LossRatio) -> BayesTest:
    """Construct the Bayes rule for two-point losses.

    The threshold is log(p_n / (l * p_e)) plus one log term per sensor
    comparing silence probabilities under the two hypotheses. A
    non-positive threshold means no observation can favor the normal
    hypothesis strongly enough, and the rule accepts H0 everywhere.

    With p_w = 0 the rule collapses to rejecting on the all-silent
    observation, applicable exactly when the loss ratio is below
    (p_n / p_e) * prod(silence_probs[i] ** -count[i]).
    """
    counts = scenario.topology.counts
    stats = scenario.derived()
    p_e, p_n, l = prior.event_prob, prior.normal_prob, loss.value

    if scenario.channel.silent_when_undetected:
        all_silent = math.prod(q**n for q, n in zip(stats.silence_probs, counts))
        bound = math.inf if all_silent == 0.0 else (p_n / p_e) / all_silent
        return BayesTest(
            weights=stats.weights,
            class_counts=counts,
            threshold=math.nan,
            applicable=l < bound,
            normalized_weights=None,
            degenerate=True,
        )

    w = _require_finite_weights(scenario)
    p_w = scenario.channel.p_w
    threshold = math.log(p_n / (l * p_e)) + math.fsum(
        n * math.log((1.0 - p_w) / q)
        for n, q in zip(counts, stats.silence_probs)
    )
    applicable = threshold > 0.0
    return BayesTest(
        weights=w,
        class_counts=counts,
        threshold=threshold,
        applicable=applicable,
        normalized_weights=tuple(x / threshold for x in w) if applicable else None,
    )


def bayes_decide(test: BayesTest, obs: Observation) -> Decision:
    """Apply a Bayes rule: reject H0 when the score is strictly below the threshold.

    A score within atom tolerance of the threshold counts as equal and is
    accepted; equality has probability zero for generic real weights.
    """
    return _decide(test, obs, None)


def operating_characteristics(
    rule: MPTest | BayesTest, scenario: ValidatedScenario
) -> OperatingCharacteristics:
    """Exact type I error and power of a rule under a scenario's true laws.

    The rule may have been built with approximated weights or even for a
    different channel; both rates are re-derived from the scenario's
    event/normal alarm laws, so a rule solved on approximate
    probabilities reports its true size here.
    """
    counts = scenario.topology.counts
    if rule.class_counts != counts:
        raise DomainError(
            f"rule was built for class counts {rule.class_counts}, scenario has {counts}"
        )
    event = ClassAlarmLaw(counts, scenario.derived().alarm_probs)
    return OperatingCharacteristics(*_rejection_rates(rule, event, _normal_law(scenario)))


def _response_vector_masses(
    scenario: ValidatedScenario,
) -> list[tuple[float, float, float]]:
    """Per response vector possible under the normal hypothesis:
    (log likelihood ratio of normal vs event, event mass, normal mass).

    A vector of normal mass 0 would add no power wherever the greedy fill
    placed it, so it is left out.
    """
    counts = scenario.topology.counts
    stats = scenario.derived()
    p_w = scenario.channel.p_w
    sensor_q0 = [stats.alarm_probs[i] for i, n in enumerate(counts) for _ in range(n)]
    out = []
    for bits in itertools.product((0, 1), repeat=sum(counts)):
        p0 = 1.0
        p1 = 1.0
        for b, q0 in zip(bits, sensor_q0):
            p0 *= q0 if b else 1.0 - q0
            p1 *= p_w if b else 1.0 - p_w
        if p1 <= 0.0:
            continue
        llr = math.inf if p0 <= 0.0 else math.log(p1) - math.log(p0)
        out.append((llr, p0, p1))
    return out


def np_optimality_check(scenario: ValidatedScenario, size: float) -> bool:
    """Verify the solved test against a direct likelihood-ratio construction.

    Sorts every individual response vector by the likelihood ratio of
    normal over event, fills the rejection region greedily to the exact
    size (randomizing the boundary group of tied ratios), and compares
    the resulting power with the solved test's. Independent of the score
    machinery: masses come from per-sensor Bernoulli products.
    """
    if scenario.topology.total_count > NP_CHECK_MAX_SENSORS:
        raise DomainError(
            f"optimality check enumerates response vectors and is capped at "
            f"{NP_CHECK_MAX_SENSORS} sensors, got {scenario.topology.total_count}"
        )
    if not scenario.channel.silent_when_undetected:
        _require_finite_weights(scenario)
    vectors = sorted(_response_vector_masses(scenario), key=lambda v: -v[0])

    # group ties in the ratio; tolerance mirrors score-atom merging
    groups: list[tuple[float, float]] = []
    head = None
    g0 = g1 = 0.0
    for llr, p0, p1 in vectors:
        same = head is not None and (
            (head == llr)
            or (math.isfinite(head) and math.isfinite(llr) and head - llr <= atom_tolerance(head))
        )
        if same:
            g0 += p0
            g1 += p1
        else:
            if head is not None:
                groups.append((g0, g1))
            head, g0, g1 = llr, p0, p1
    groups.append((g0, g1))

    used = 0.0
    power = 0.0
    for g0, g1 in groups:
        if used + g0 <= size:
            used += g0
            power += g1
        else:
            power += (size - used) / g0 * g1
            break

    solved = solve_mp_test(scenario, size)
    return abs(power - solved.exact_power) <= 1e-10
