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
Generator. ``run_sweep`` computes the same streams in blocks of trial
indices with numpy (``_streams``), once per block for all the (prior, rules)
runs of a sweep (``simulate``'s priors), and counts every run from a block
before it draws the next; ``run_trials`` is a sweep of one run. A run reads
the world in the order above with the same comparisons. This module alone
stacks a rule set's forms from their form bytes (``_stacked_forms``) and
places its coins (``_verdicts``): ``decision_tests._reject_probs``, which
``mp_decide`` and ``bayes_decide`` use, gives every rule's reject
probability, and a test's coin is the uniform after the world draws and one
per earlier test whose probability lies strictly inside (0, 1). Where a block
has at least as many trials as the cell has count tuples, a run looks these
up in one table in ``score_dist``'s store (``_plan``), keyed by the cell's
class counts and the rules' form bytes (a nan bound's bytes equal): each
count tuple's reject probabilities and coin offsets, and each sensor's stride
to its tuple's row. On a wider cell a run stacks the forms once per call and
scores trial by trial. The prior and channel are read per call, so a warm run
derives no form and reads one store entry. The counts equal a trial-by-trial
run's. ``forced_worlds`` reads worlds the same way for trials whose truth is
forced (calibration logs), from their first uniform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

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
from .model import DomainError, Prior, Topology, ValidatedScenario, _check_master_seed
from .score_dist import _in_store, count_tuples

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
    "forced_worlds",
    "run_sweep",
    "run_trials",
]

# Pinned RNG wiring; reports carry it so reported numbers stay re-derivable.
# Trial i draws from Generator(PCG64(SeedSequence((master_seed, i)))).
GENERATOR_NAME = "pcg64/per-trial-seedseq"

# Trials per block in run_trials, at most; wider cells get fewer (_block_rows).
_CHUNK = 4096

# Trials x uniforms per block, at most: the stream workspace keeps the arrays
# of the last block, about 7 MB at this size.
WORKSPACE_CELLS = 1 << 17

# Uniforms per trial (1 + 2 * sensors + tests). Blocks shrink as trials
# widen, so this bounds the run time of a trial, not memory: 10,000 trials
# at the cap peak at about 38 MB resident (x86-64, numpy 2.4).
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


def _block_rows(n_draws: int) -> int:
    """Trials per block for trials of ``n_draws`` uniforms: at most _CHUNK, and at most
    WORKSPACE_CELLS uniforms, so the memory a block takes does not grow with the cell."""
    return max(1, min(_CHUNK, WORKSPACE_CELLS // n_draws))


def _check_draws(n_sensors: int, n_draws: int, what: str, draws: str) -> None:
    if n_draws > MAX_TRIAL_DRAWS:
        raise DomainError(
            f"the cell has {n_sensors} sensors; {what} is capped at {MAX_TRIAL_DRAWS} "
            f"draws per trial ({draws})"
        )


def _world(
    scenario: ValidatedScenario, u: np.ndarray, row: int, event: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Detection and alarm bits of every sensor, each (sensors, trials), read from a
    (draws, trials) block of uniforms from draw ``row`` on.

    Event trials read a (detection, response) pair per sensor and normal
    trials one response per sensor, in the module draw order; the
    comparisons are draw_world's. ``u`` must hold ``row + 2 * sensors`` draws.
    """
    topology = scenario.topology
    n = topology.total_count
    detected = (u[row : row + 2 * n : 2] < topology.detection_column) & event
    response = np.where(event, u[row + 1 : row + 2 * n + 1 : 2], u[row : row + n])
    return detected, response < np.where(detected, scenario.channel.p_c, scenario.channel.p_w)


def forced_worlds(
    scenario: ValidatedScenario, truth: Truth, n_trials: int, master_seed: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """draw_world for trials 0 .. n_trials - 1 under a forced truth, in blocks of trials.

    Trial i reads the stream of derive_trial_seed(master_seed, i) from its
    first uniform on, since no truth is drawn. Yields (detected, alarm)
    bit arrays of shape (block trials, sensors).
    """
    master_seed = _check_master_seed(master_seed)
    n = scenario.topology.total_count
    _check_draws(n, 2 * n, "log generation", "2 * sensors")
    rows = _block_rows(2 * n)
    for start in range(0, n_trials, rows):
        indices = np.arange(start, min(start + rows, n_trials), dtype=np.uint64)
        u = _streams.uniforms(master_seed, indices, 2 * n).T
        detected, alarm = _world(scenario, u, 0, np.full(len(indices), truth is Truth.EVENT))
        yield detected.T, alarm.T


def _stacked_forms(forms: Sequence[bytes], n_classes: int) -> tuple[np.ndarray, ...]:
    """The rules whose form_bytes are ``forms``, in order, as one stacked form: (K, R) weights and (R,) lo, hi, k."""
    table = np.frombuffer(b"".join(forms)).reshape(len(forms), n_classes + 3)
    return table[:, :n_classes].T, *table[:, n_classes:].T


def _verdicts(stacked: tuple[np.ndarray, ...], counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of an (N, K) count array, every rule's reject probability (_reject_probs), and its coin offset: how
    many earlier rules have a p strictly inside (0, 1), so that a trial of that row draws their boundary coins first
    (contract step 3). Both (N, R)."""
    p = _reject_probs(stacked, counts)
    randomized = (0.0 < p) & (p < 1.0)
    offsets = np.cumsum(randomized, axis=1)
    offsets -= randomized
    return p, offsets


@_in_store
def _plan(counts: tuple[int, ...], forms: tuple[bytes, ...]) -> tuple[np.ndarray, ...]:
    """The verdict table of the rules whose form_bytes are ``forms`` on the cell ``counts``: (p, offsets, strides),
    the _verdicts of every count tuple in grid order and each sensor's stride in the grid."""
    dims = [c + 1 for c in counts]
    # a tuple's row in the grid: sum x_i * prod(dims[i + 1:]), one stride per sensor of class i
    strides = np.repeat([math.prod(dims[i + 1 :]) for i in range(len(dims))], counts)
    return *_verdicts(_stacked_forms(forms, len(counts)), count_tuples(counts)), strides


def _plan_verdicts(plan: tuple[np.ndarray, ...], lookup: bool, topology: Topology,
                   alarm: np.ndarray) -> tuple[np.ndarray, ...]:
    """Every rule's reject probability and coin offset, each (trials, rules), from (sensors, trials) alarm bits:
    looked up in a verdict table (_plan) where ``lookup`` is set, else scored by the rules' stacked form."""
    if not lookup:
        return _verdicts(plan, np.add.reduceat(alarm, topology.first_sensors, axis=0).T)
    p, offsets, strides = plan
    index = strides @ alarm
    return p.take(index, axis=0), offsets.take(index, axis=0)


def _count_block(
    scenario: ValidatedScenario, prior: Prior, plan: tuple[np.ndarray, ...], lookup: bool, u: np.ndarray
) -> tuple[int, np.ndarray, np.ndarray]:
    """Counts over one block of trials from their (draws, trials) uniforms: event trials, and per sensor alarms and
    per rule event declarations, summed over all trials and over event trials.

    Reads each trial's stream in the module draw order; the comparisons
    are the ones draw_world and mp_decide make on the same doubles.
    """
    n, width = scenario.topology.total_count, u.shape[1]
    event = u[0] < prior.event_prob
    _, alarm = _world(scenario, u, 1, event)
    p, offsets = _plan_verdicts(plan, lookup, scenario.topology, alarm)
    # a test's coin follows the world draws, 1 + 2 * n in an event trial and 1 + n in a normal one, and the coins of
    # earlier tests; where p is 0 or 1 the draw read is any uniform and decides nothing. Draw d of trial t is
    # u.flat[d * width + t].
    first = np.arange((1 + n) * width, (2 + n) * width)
    first += event * (n * width)
    coin = offsets * width
    coin += first[:, None]
    features = np.concatenate([alarm, (u.take(coin) >= p).T])
    return int(np.count_nonzero(event)), np.add.reduce(features, axis=1), np.add.reduce(features & event, axis=1)


def run_sweep(
    scenario: ValidatedScenario, runs: Sequence[tuple[Prior, Sequence[TestSpec]]], n_trials: int, master_seed: int
) -> list[SimReport]:
    """run_trials of each (prior, tests) of ``runs`` on the same trials, whose uniforms are computed once per
    block: every run counts a block before the next is drawn. The reports equal run_trials'."""
    if int(n_trials) != n_trials or n_trials < 1:
        raise DomainError(f"n_trials must be a positive integer, got {n_trials}")
    n_trials = int(n_trials)
    master_seed = _check_master_seed(master_seed)
    topology = scenario.topology
    n_sensors = topology.total_count
    # a trial's first draws do not depend on how many follow: the block holds the most any run reads
    n_draws = 1 + 2 * n_sensors + max((len(tests) for _, tests in runs), default=0)
    _check_draws(n_sensors, n_draws, "simulation", "1 + 2 * sensors + tests")
    rows = _block_rows(n_draws)
    # a verdict table where a block covers the cell's count tuples (Python ints: a cell of 64 one-sensor classes has
    # 2**64), else the rules' forms
    lookup = math.prod(c + 1 for c in topology.counts) <= min(n_trials, rows)
    forms = [tuple(test.form_bytes for _, test in tests) for _, tests in runs]
    plans = [_plan(topology.counts, f) if lookup else _stacked_forms(f, len(topology.counts)) for f in forms]

    totals = [(0, 0, 0)] * len(runs)
    for start in range(0, n_trials, rows):
        indices = np.arange(start, min(start + rows, n_trials), dtype=np.uint64)
        u = _streams.uniforms(master_seed, indices, n_draws).T  # overwritten by the next block's
        for r, ((prior, _), plan) in enumerate(zip(runs, plans)):
            totals[r] = tuple(a + b for a, b in zip(totals[r], _count_block(scenario, prior, plan, lookup, u)))
    return [_report(topology, tests, n_trials, master_seed, *total) for (_, tests), total in zip(runs, totals)]


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
    blocks of _block_rows indices; the counts are the same as a
    trial-by-trial run. A cell whose trials take more than MAX_TRIAL_DRAWS
    uniforms each is refused.
    """
    return run_sweep(scenario, [(prior, tests)], n_trials, master_seed)[0]


def _report(topology: Topology, tests: Sequence[TestSpec], n_trials: int, master_seed: int, n_event: int,
            alarms: np.ndarray, event_alarms: np.ndarray) -> SimReport:
    """A run's report from its counts, all Python ints: per sensor then per test, alarms and event declarations
    over all trials and over event trials."""
    alarms, event_alarms = alarms.tolist(), event_alarms.tolist()
    n_normal = n_trials - n_event
    # positional arguments, in field order: keywords cost a few microseconds per call over ten objects
    class_stats = tuple(
        ClassSimStats(cls.label, cls.count, cls.count * n_event - sum(event_alarms[f : f + cls.count]),
                      n_event * cls.count, n_event - event_alarms[f], n_trials - alarms[f],
                      alarms[f] - event_alarms[f], alarms[f])
        for cls, f in zip(topology.classes, topology.first_sensors)
    )
    test_stats = tuple(
        TestSimStats(name, event_alarms[ti], n_event, n_normal - (alarms[ti] - event_alarms[ti]), n_normal)
        for ti, (name, _) in enumerate(tests, start=topology.total_count)
    )
    return SimReport(n_trials, master_seed, GENERATOR_NAME, n_event, n_normal, class_stats, test_stats)
