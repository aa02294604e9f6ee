"""Seeded Monte Carlo generator for whole detection trials.

Every trial draws its randomness from an independent stream keyed by
(master_seed, trial_index) through numpy's SeedSequence, so trial i's
outcome never depends on how many trials ran before it or in what order.
Aggregation uses integer counts only, which makes a full report
bit-reproducible for a given (scenario, prior, tests, n_trials, seed).

Draw-order contract within one trial (fixed; changing it changes results):

1. one uniform for the truth (event iff u < p_e);
2. for each class in topology order, for each sensor of the class:
   one uniform for detection (skipped when the truth is normal, where
   detection is impossible), then one uniform for the response;
3. for each evaluated test, in order: at most one uniform for the
   boundary coin of a randomized decision.

``simulate_trial`` is the reference: it replays one trial with its own
Generator. ``run_trials`` computes the same streams in blocks of trial
indices with numpy (``_streams``), reads the world from them in the order
above with the same comparisons, gets each rule's reject probability for
every count tuple of the block from the same threshold-rule core that
``mp_decide`` and ``bayes_decide`` use, and compares it with the uniform
the contract assigns to that test's boundary coin. Its counts equal a
trial-by-trial run's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from . import _streams
from .decision_tests import (
    BayesTest,
    Decision,
    MPTest,
    Observation,
    _reject_probs,
    bayes_decide,
    mp_decide,
)
from .model import DomainError, Prior, ValidatedScenario

__all__ = [
    "GENERATOR_NAME",
    "MAX_TRIAL_DRAWS",
    "Truth",
    "TrialOutcome",
    "ClassSimStats",
    "TestSimStats",
    "SimReport",
    "derive_trial_seed",
    "trial_rng",
    "draw_world",
    "simulate_trial",
    "run_trials",
]

# Pinned RNG wiring; reports carry it so reported numbers stay re-derivable.
# Trial i draws from Generator(PCG64(SeedSequence((master_seed, i)))).
GENERATOR_NAME = "pcg64/per-trial-seedseq"

# Trials per block in run_trials; keeps a block's arrays to a few MB.
_CHUNK = 4096

# Uniforms per trial (1 + 2 * sensors + tests). A 4096-trial block needs
# about 0.35 MB per draw, so about 220 MB at the cap.
MAX_TRIAL_DRAWS = 640

TestSpec = tuple[str, MPTest | BayesTest]


class Truth(Enum):
    EVENT = "event"
    NORMAL = "normal"


@dataclass(frozen=True)
class TrialOutcome:
    """One simulated world: truth, per-sensor bits, and the decisions taken."""

    truth: Truth
    detections: tuple[tuple[int, ...], ...]
    responses: tuple[tuple[int, ...], ...]
    decisions: tuple[Decision, ...]

    def __post_init__(self) -> None:
        if self.truth is Truth.NORMAL and any(y for cls in self.detections for y in cls):
            raise DomainError("detections are impossible in a normal trial")

    @property
    def alarm_counts(self) -> tuple[int, ...]:
        return tuple(sum(cls) for cls in self.responses)


def _check_master_seed(master_seed: int) -> int:
    if int(master_seed) != master_seed or not 0 <= master_seed < 2**64:
        raise DomainError(f"master seed must be a 64-bit unsigned integer, got {master_seed}")
    return int(master_seed)


def derive_trial_seed(master_seed: int, index: int) -> np.random.SeedSequence:
    """Counter-style per-trial seed: a pure function of (master_seed, index)."""
    _check_master_seed(master_seed)
    if index < 0:
        raise DomainError(f"trial index must be non-negative, got {index}")
    return np.random.SeedSequence(entropy=(int(master_seed), int(index)))


def trial_rng(trial_seed: int | np.random.SeedSequence) -> np.random.Generator:
    """The pinned generator for one trial stream (PCG64 over the seed)."""
    if not isinstance(trial_seed, np.random.SeedSequence):
        trial_seed = np.random.SeedSequence(int(trial_seed))
    return np.random.Generator(np.random.PCG64(trial_seed))


def draw_world(
    scenario: ValidatedScenario, truth: Truth, rng: np.random.Generator
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Draw detection and response bits for every sensor given the truth.

    Follows steps 2 of the module draw-order contract; exposed so
    controlled-condition experiments (calibration logs) can force the
    truth instead of drawing it.
    """
    p_c = scenario.channel.p_c
    p_w = scenario.channel.p_w
    event = truth is Truth.EVENT
    detections: list[tuple[int, ...]] = []
    responses: list[tuple[int, ...]] = []
    for cls in scenario.topology.classes:
        ys = []
        xs = []
        for _ in range(cls.count):
            y = 1 if (event and rng.random() < cls.detect_prob) else 0
            x = 1 if rng.random() < (p_c if y else p_w) else 0
            ys.append(y)
            xs.append(x)
        detections.append(tuple(ys))
        responses.append(tuple(xs))
    return tuple(detections), tuple(responses)


def simulate_trial(
    scenario: ValidatedScenario,
    prior: Prior,
    trial_seed: int | np.random.SeedSequence,
    tests: Sequence[TestSpec] = (),
) -> TrialOutcome:
    """Simulate one trial and evaluate every supplied (name, test) pair on it."""
    rng = trial_rng(trial_seed)
    truth = Truth.EVENT if rng.random() < prior.event_prob else Truth.NORMAL
    detections, responses = draw_world(scenario, truth, rng)
    obs = Observation(tuple(sum(xs) for xs in responses))
    decisions = tuple(
        mp_decide(test, obs, rng) if isinstance(test, MPTest) else bayes_decide(test, obs)
        for _, test in tests
    )
    return TrialOutcome(truth=truth, detections=detections, responses=responses, decisions=decisions)


@dataclass(frozen=True)
class ClassSimStats:
    """Empirical per-class error rates with their denominators.

    ``silence_rate_event`` pools every sensor of the class over event
    trials. The two posterior rates are estimated from the class's first
    sensor only, one record per trial, so each is a plain binomial
    proportion and the usual standard error applies; pooling sensors
    within a trial would correlate records through the shared truth.
    """

    label: str
    count: int
    n_event_silent: int
    n_event_records: int
    n_first_silent_event: int
    n_first_silent: int
    n_first_alarm_normal: int
    n_first_alarm: int

    @property
    def silence_rate_event(self) -> float:
        return _rate(self.n_event_silent, self.n_event_records)

    @property
    def event_given_silent(self) -> float:
        return _rate(self.n_first_silent_event, self.n_first_silent)

    @property
    def normal_given_alarm(self) -> float:
        return _rate(self.n_first_alarm_normal, self.n_first_alarm)


@dataclass(frozen=True)
class TestSimStats:
    """Empirical conditional decision rates for one evaluated test."""

    name: str
    n_accept_event: int
    n_event: int
    n_reject_normal: int
    n_normal: int

    @property
    def accept_given_event(self) -> float:
        return _rate(self.n_accept_event, self.n_event)

    @property
    def reject_given_normal(self) -> float:
        return _rate(self.n_reject_normal, self.n_normal)


def _rate(num: int, denom: int) -> float:
    return num / denom if denom else math.nan


@dataclass(frozen=True)
class SimReport:
    """Aggregated empirical rates for a full run, with full provenance."""

    n_trials: int
    master_seed: int
    generator: str
    n_event: int
    n_normal: int
    class_stats: tuple[ClassSimStats, ...]
    test_stats: tuple[TestSimStats, ...]


def _count_block(
    scenario: ValidatedScenario,
    prior: Prior,
    tests: Sequence[TestSpec],
    master_seed: int,
    indices: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Every SimReport count over one block of trial indices, as integer arrays.

    Reads each trial's stream in the module draw order; the comparisons
    are the ones draw_world and mp_decide make on the same doubles.
    """
    sizes = np.array(scenario.topology.counts)
    n = int(sizes.sum())
    p_c, p_w = scenario.channel.p_c, scenario.channel.p_w
    u = _streams.uniforms(master_seed, indices, 1 + 2 * n + len(tests))

    event = u[:, 0] < prior.event_prob
    # event trials interleave (detection, response) per sensor; normal trials
    # draw responses only
    detected = u[:, 1 : 2 * n : 2] < np.repeat(scenario.topology.detect_probs, sizes)
    alarm = np.where(
        event[:, None], u[:, 2 : 2 * n + 1 : 2] < np.where(detected, p_c, p_w), u[:, 1 : n + 1] < p_w
    )
    first = np.cumsum(sizes) - sizes
    counts = np.add.reduceat(alarm.astype(np.int64), first, axis=1)

    p = np.empty((len(indices), len(tests)))
    for j, (_, test) in enumerate(tests):
        p[:, j] = _reject_probs(test, counts)
    randomized = (0.0 < p) & (p < 1.0)
    # a test's coin follows the world draws and the coins of earlier tests;
    # where p is 0 or 1 the column read is any uniform and decides nothing
    coin_col = np.where(event, 1 + 2 * n, 1 + n)[:, None] + np.cumsum(randomized, axis=1) - randomized
    declared = np.take_along_axis(u, coin_col, axis=1) >= p

    ev = event[:, None]
    first_alarm = alarm[:, first]
    return (
        event.sum(),
        (sizes - counts)[event].sum(axis=0),
        first_alarm.sum(axis=0),
        (first_alarm & ~ev).sum(axis=0),
        (~first_alarm & ev).sum(axis=0),
        (declared & ev).sum(axis=0),
        (~(declared | ev)).sum(axis=0),
    )


def run_trials(
    scenario: ValidatedScenario,
    prior: Prior,
    tests: Sequence[TestSpec],
    n_trials: int,
    master_seed: int,
) -> SimReport:
    """Run seeded trials and aggregate empirical error and decision rates.

    Trial i uses the stream from derive_trial_seed(master_seed, i), so a
    report is a pure function of its arguments and single trials can be
    replayed in isolation with simulate_trial. Trials are computed in
    blocks of _CHUNK indices; the counts are the same as a trial-by-trial
    run. A cell whose trials take more than MAX_TRIAL_DRAWS uniforms each
    is refused.
    """
    if int(n_trials) != n_trials or n_trials < 1:
        raise DomainError(f"n_trials must be a positive integer, got {n_trials}")
    n_trials = int(n_trials)
    master_seed = _check_master_seed(master_seed)
    n_sensors = scenario.topology.total_count
    if 1 + 2 * n_sensors + len(tests) > MAX_TRIAL_DRAWS:
        raise DomainError(
            f"the cell has {n_sensors} sensors; simulation is capped at {MAX_TRIAL_DRAWS} "
            "draws per trial (1 + 2 * sensors + tests)"
        )

    totals = None
    for start in range(0, n_trials, _CHUNK):
        indices = np.arange(start, min(start + _CHUNK, n_trials), dtype=np.uint64)
        part = _count_block(scenario, prior, tests, master_seed, indices)
        totals = part if totals is None else tuple(a + b for a, b in zip(totals, part))
    (n_event, ev_silent, first_alarm, first_alarm_normal, first_silent_event,
     accept_event, reject_normal) = (t.tolist() for t in totals)

    n_normal = n_trials - n_event
    class_stats = tuple(
        ClassSimStats(
            label=cls.label,
            count=cls.count,
            n_event_silent=ev_silent[ci],
            n_event_records=n_event * cls.count,
            n_first_silent_event=first_silent_event[ci],
            n_first_silent=n_trials - first_alarm[ci],
            n_first_alarm_normal=first_alarm_normal[ci],
            n_first_alarm=first_alarm[ci],
        )
        for ci, cls in enumerate(scenario.topology.classes)
    )
    test_stats = tuple(
        TestSimStats(
            name=name,
            n_accept_event=accept_event[ti],
            n_event=n_event,
            n_reject_normal=reject_normal[ti],
            n_normal=n_normal,
        )
        for ti, (name, _) in enumerate(tests)
    )
    return SimReport(
        n_trials=n_trials,
        master_seed=master_seed,
        generator=GENERATOR_NAME,
        n_event=n_event,
        n_normal=n_normal,
        class_stats=class_stats,
        test_stats=test_stats,
    )
