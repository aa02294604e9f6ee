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
error rate sums a prefix of the law's masses in that order (``ranked_masses``),
the boundary rows' times k, under the event law (type I error) or the normal
law (power). Only the most-powerful rule builds a score law: the event law it
walks to t, summed only through the threshold of its largest size. Its power
is summed once, when solved, and reused under an equal normal law.

Hypothesis convention: H0 = event occurred, H1 = normal. Rejecting H0
declares the cell normal, so the type I error (missing a real event) is
the rejection probability under the event.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, NamedTuple, Protocol, Sequence

import numpy as np

from .model import ClassAlarmLaw, DomainError, LossRatio, Prior, ValidatedScenario
from .score_dist import atom_tolerance, cell_ranking, exact_sum, ranked_masses, score_law_prefix, tuple_scores
from .score_dist import score_distribution  # not called here; the benchmark traces decision_tests.score_distribution

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
    ``exact_power`` the one under ``normal_law``, the scenario's normal law,
    which only the solver records: a copy or a hand-built rule holds None.
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
    normal_law: ClassAlarmLaw | None = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class BayesTest:
    """The minimum-risk rule for a prior and loss ratio.

    Reject H0 when the score is strictly below ``threshold``. When the
    threshold is not positive the rule accepts H0 for every observation
    and ``applicable`` is False. ``normalized_weights`` rescales the
    weights by the threshold (defined only when applicable), so the rule
    reads: reject when the normalized score is below one. A p_w = 0 rule
    (``degenerate`` set) reports threshold nan and no normalized weights,
    and when applicable rejects only the all-silent observation.
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


def _require_finite_weights(scenario: ValidatedScenario) -> tuple[float, ...]:
    stats = scenario.derived()
    for cls, w in zip(scenario.topology.classes, stats.weights):
        if math.isinf(w):
            raise DomainError(
                f"class {cls.label!r}: alarm is certain under the event "
                "(p_c = 1 with detect_prob = 1 and p_w > 0); no finite score weight exists"
            )
    return stats.weights


def _mp_law(scenario: ValidatedScenario, weights: Iterable[float] | None = None,
            event_alarm_probs: Iterable[float] | None = None) -> tuple[tuple[float, ...], ClassAlarmLaw]:
    """The weights and event law an MP rule is solved on: each override where given, else the exact one."""
    w = _require_finite_weights(scenario) if weights is None else tuple(float(x) for x in weights)
    law = scenario.derived().event_law
    return w, law if event_alarm_probs is None else ClassAlarmLaw(law.counts, event_alarm_probs)


def _walk_to_threshold(values: np.ndarray, probs: np.ndarray, cum: np.ndarray, size: float) -> tuple[float, ...]:
    """Find the unique atom v with P(X < v) <= size < P(X <= v), given the running sum ``cum`` of the masses.

    Returns (threshold, boundary_prob, exact size). The boundary
    probability absorbs whatever part of the size the strict region does
    not reach, so P(X < v) + boundary_prob * P(X = v) equals the size.
    """
    i = min(int(np.searchsorted(cum, size, side="right")), len(cum) - 1)
    below, prob = (float(cum[i - 1]) if i else 0.0), float(probs[i])
    k = min(1.0, max(0.0, (size - below) / prob))
    return float(values[i]), k, below + k * prob


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
    sizes = [float(size) for size in sizes]
    h0, tests = None, []
    for size in sizes:
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
                w, law = _mp_law(scenario, weights, event_alarm_probs)
                # atoms up to the largest size, and cum[i], P(X < v_i) + P(X = v_i) as a sequential sum rounds it
                h0 = score_law_prefix(w, law, max(sizes))
            threshold, k, exact_size = _walk_to_threshold(*h0, size)
        power = _rejection_rates(counts, _threshold_form(w, threshold, k, degenerate), stats.normal_law)[0]
        tests.append(MPTest(weights=w, class_counts=counts, threshold=threshold, boundary_prob=k,
                            requested_size=size, exact_size=exact_size, exact_power=power, degenerate=degenerate))
        object.__setattr__(tests[-1], "normal_law", stats.normal_law)
    return tests


def _rule_form(rule: MPTest | BayesTest) -> tuple[tuple[float, ...], float, float, float]:
    """A rule as (weights, lo, hi, k): reject with probability 1 for a score below lo, k up to hi, else 0.

    lo and hi are the threshold t less and plus its atom tolerance. Bayes
    rules take k = 0, except an applicable p_w = 0 rule, which takes 1.
    """
    if isinstance(rule, MPTest):
        k = rule.boundary_prob
    else:
        k = float(rule.applicable) if rule.degenerate else 0.0
    return _threshold_form(rule.weights, rule.threshold, k, rule.degenerate)


def _threshold_form(weights: tuple[float, ...], t: float, k: float, degenerate: bool) -> tuple:
    """The form of a rule with these weights, threshold t, boundary k and p_w = 0 flag."""
    if degenerate:
        # p_w = 0: the all-silent tuple is the only one scoring 0 on unit weights
        weights, t = (1.0,) * len(weights), 0.0
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


def _rejection_rates(counts: tuple[int, ...], form: tuple, *laws: ClassAlarmLaw) -> list[float]:
    """P(reject H0) of a rule's form under each law of the cell: the masses of ranks below i, plus k
    times those of ranks i to j, at most 1 (the rounded masses of a whole cell may sum past it)."""
    # scores of rank below i are under lo, up to j at most hi; a nan bound compares false, as in _threshold_probs
    weights, lo, hi, k = form
    scores = cell_ranking(counts, weights)[1]
    i = 0 if math.isnan(lo) else int(scores.searchsorted(lo, "left"))
    j = i if k == 0.0 or math.isnan(hi) else max(i, int(scores.searchsorted(hi, "right")))
    ranked = (ranked_masses(law, weights)[0] for law in laws)  # a prefix view, and the boundary rows times k
    return [min(1.0, exact_sum(masses[:i], masses[i:j] * k)) for masses in ranked]


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
    comparing silence probabilities under the two hypotheses; an odds
    quotient that underflows or overflows is taken as a difference of logs.
    The rule is applicable when the threshold is positive; otherwise no
    observation can favor the normal hypothesis strongly enough, and the
    rule accepts H0 everywhere.

    With p_w = 0 the threshold is positive exactly when the loss ratio is
    below (p_n / p_e) * prod(silence_probs[i] ** -count[i]), +inf for a
    class that never stays silent; the rule reports it as nan.
    """
    counts = scenario.topology.counts
    stats = scenario.derived()
    p_e, p_n, l = prior.event_prob, prior.normal_prob, loss.value
    degenerate = scenario.channel.silent_when_undetected
    w = stats.weights if degenerate else _require_finite_weights(scenario)
    p_w = scenario.channel.p_w
    odds = p_n / (l * p_e) if l * p_e > 0.0 else math.inf
    log_odds = math.log(odds) if 0.0 < odds < math.inf else math.log(p_n) - math.log(l) - math.log(p_e)
    threshold = log_odds + math.fsum(
        n * math.log((1.0 - p_w) / q) if q else math.inf for n, q in zip(counts, stats.silence_probs)
    )
    applicable = threshold > 0.0
    return BayesTest(
        weights=w,
        class_counts=counts,
        threshold=math.nan if degenerate else threshold,
        applicable=applicable,
        normalized_weights=tuple(x / threshold for x in w) if applicable and not degenerate else None,
        degenerate=degenerate,
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
    probabilities reports its true size here. An MP rule solved under an
    equal normal law returns its ``exact_power``: the same sum, the same bits.
    """
    counts = scenario.topology.counts
    if rule.class_counts != counts:
        raise DomainError(
            f"rule was built for class counts {rule.class_counts}, scenario has {counts}"
        )
    stats, form = scenario.derived(), _rule_form(rule)
    if isinstance(rule, MPTest) and rule.normal_law == stats.normal_law:
        return OperatingCharacteristics(*_rejection_rates(counts, form, stats.event_law), rule.exact_power)
    return OperatingCharacteristics(*_rejection_rates(counts, form, stats.event_law, stats.normal_law))


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
