"""Proportion estimators for the model parameters from calibration logs.

Detection probabilities and the response fault rates are estimated from
controlled experiments: trials where the true condition (event present at
the candidate cell, or nothing) is known and the internal detection bit of
every sensor is recorded alongside its response. Each estimator averages
per-trial proportions over the repeated trials; the standard error comes
from the between-trial spread. The event prior itself is not estimable
from such experiments.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

from .model import DomainError, ValidatedScenario

__all__ = [
    "Condition",
    "SensorRecord",
    "TrialLog",
    "Estimate",
    "estimate_detection",
    "estimate_false_response",
    "estimate_correct_response",
    "generate_trial_logs",
    "write_log_file",
    "read_log_file",
    "LOG_FIELDS",
]

LOG_FIELDS = ("condition", "trial", "class_index", "detected", "responded")
_detected, _responded = attrgetter("detected"), attrgetter("responded")


class Condition(Enum):
    CONTROLLED_EVENT = "event"
    NORMAL = "normal"


@dataclass(frozen=True)
class SensorRecord:
    class_index: int
    detected: int
    responded: int

    def __post_init__(self) -> None:
        if self.class_index < 0:
            raise DomainError(f"class index must be non-negative, got {self.class_index}")
        if self.detected not in (0, 1) or self.responded not in (0, 1):
            raise DomainError("detected/responded must be 0 or 1")


@dataclass(frozen=True)
class TrialLog:
    """All sensor records of one controlled trial."""

    condition: Condition
    records: tuple[SensorRecord, ...]

    def __post_init__(self) -> None:
        if type(self.records) is not tuple:
            object.__setattr__(self, "records", tuple(self.records))
        if not self.records:
            raise DomainError("a trial log needs at least one sensor record")
        if self.condition is Condition.NORMAL and any(map(_detected, self.records)):
            raise DomainError("normal-condition records cannot carry detections")


@dataclass(frozen=True)
class Estimate:
    value: float
    std_error: float
    n_logs: int


def _stdev(xs: Sequence[float]) -> float:
    """Sample standard deviation of the exact variance, correctly rounded as statistics.stdev is from 3.11 on."""
    # as integers over a common power-of-two denominator d (each distinct proportion once), the variance is exact
    ratios = [(x.as_integer_ratio(), m) for x, m in Counter(xs).items()]
    d = max(den for (_, den), _ in ratios)
    ints = [(num * (d // den), m) for (num, den), m in ratios]
    n, total = len(xs), sum(x * m for x, m in ints)
    num, den = n * sum(x * x * m for x, m in ints) - total * total, d * d * n * (n - 1)
    # round the root to odd at 55 or more bits (109 of the ratio), then correctly to a float
    shift = max(0, -((num.bit_length() - den.bit_length() - 109) // 2))
    num <<= 2 * shift
    root = math.isqrt(num // den)
    return (root | (root * root * den != num)) / (1 << shift)


def _summarize(proportions: Sequence[float]) -> Estimate:
    n = len(proportions)
    value = math.fsum(proportions) / n  # statistics.fmean's sum, without importing statistics
    se = _stdev(proportions) / math.sqrt(n) if n > 1 else 0.0
    return Estimate(value=value, std_error=se, n_logs=n)


def _require_condition(logs: Sequence[TrialLog], condition: Condition, what: str) -> None:
    if not logs:
        raise DomainError(f"{what} needs at least one trial log")
    for log in logs:
        if log.condition is not condition:
            raise DomainError(f"{what} expects {condition.value}-condition logs only")


def estimate_detection(
    logs: Sequence[TrialLog], expected_classes: int | None = None
) -> dict[int, Estimate]:
    """Estimate each class's detection probability from controlled-event logs.

    Per log, the proportion of detections among that class's sensors;
    averaged over the logs that contain the class.
    """
    _require_condition(logs, Condition.CONTROLLED_EVENT, "detection estimation")
    per_class: dict[int, list[float]] = {}
    for log in logs:
        hits: dict[int, list[int]] = {}
        for r in log.records:
            hits.setdefault(r.class_index, []).append(r.detected)
        for ci, ys in hits.items():
            per_class.setdefault(ci, []).append(sum(ys) / len(ys))
    if expected_classes is not None:
        missing = sorted(set(range(expected_classes)) - set(per_class))
        if missing:
            raise DomainError(f"no observations for class indices {missing}")
    return {ci: _summarize(props) for ci, props in sorted(per_class.items())}


def estimate_false_response(logs: Sequence[TrialLog]) -> Estimate:
    """Estimate the false alarm rate p_w from normal-condition logs."""
    _require_condition(logs, Condition.NORMAL, "false-response estimation")
    proportions = [sum(map(_responded, log.records)) / len(log.records) for log in logs]
    return _summarize(proportions)


def estimate_correct_response(logs: Sequence[TrialLog]) -> Estimate:
    """Estimate p_c: the response rate among sensors that detected the event.

    Conditioning on detection is forced by the model; pooling undetected
    sensors in would mix the false alarm rate into the estimate. Logs
    without a single detection carry no information about p_c and are
    skipped.
    """
    _require_condition(logs, Condition.CONTROLLED_EVENT, "correct-response estimation")
    proportions = []
    for log in logs:
        responded = detected = 0  # counts: responded / detected is the float the mean of the responses gives
        for r in log.records:
            if r.detected:
                detected += 1
                responded += r.responded
        if detected:
            proportions.append(responded / detected)
    if not proportions:
        raise DomainError("no detections in any log; cannot estimate the correct-response rate")
    return _summarize(proportions)


def generate_trial_logs(
    scenario: ValidatedScenario,
    condition: Condition,
    n_logs: int,
    master_seed: int,
) -> list[TrialLog]:
    """Simulate controlled-condition logs (the truth is forced, not drawn).

    Log i uses the same per-index seeding as the trial simulator, so a
    log set is reproducible from (scenario, condition, n_logs, seed); it
    equals draw_world on log i's generator. Each distinct record is built
    once and shared by the logs that repeat it.
    """
    from .simulator import Truth, forced_worlds  # here, so that reading logs needs no numpy

    if n_logs < 1:
        raise DomainError(f"n_logs must be positive, got {n_logs}")
    truth = Truth.EVENT if condition is Condition.CONTROLLED_EVENT else Truth.NORMAL
    classes = [ci for ci, cls in enumerate(scenario.topology.classes) for _ in range(cls.count)]
    records: dict[tuple[int, bool, bool], SensorRecord] = {}
    logs = []
    for detected, alarm in forced_worlds(scenario, truth, n_logs, master_seed):
        for ys, xs in zip(detected.tolist(), alarm.tolist()):
            row = []
            for key in zip(classes, ys, xs):
                record = records.get(key)
                if record is None:
                    record = records[key] = SensorRecord(key[0], int(key[1]), int(key[2]))
                row.append(record)
            logs.append(TrialLog(condition=condition, records=tuple(row)))
    return logs


def write_log_file(path: str | Path, logs: Iterable[TrialLog]) -> None:
    """Write logs as CSV: condition, trial, class_index, detected, responded."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LOG_FIELDS)
        for trial_id, log in enumerate(logs):
            for r in log.records:
                writer.writerow([log.condition.value, trial_id, r.class_index, r.detected, r.responded])


def read_log_file(path: str | Path) -> list[TrialLog]:
    """Parse a CSV log file; records sharing a trial id form one log.

    A log repeats few distinct trial id texts and (condition, class_index, detected, responded) fields,
    so each is validated and built once, on first sight: a repeated row takes one lookup for its shared
    record and one for its trial's (condition, records) entry.
    """
    trials: dict[int, tuple[Condition, list[SensorRecord]]] = {}
    by_text: dict[str, tuple[Condition, list[SensorRecord]]] = {}  # trial id text -> its entry in trials
    parsed: dict[tuple[str, str, str, str], tuple[Condition, SensorRecord]] = {}
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(h.strip() for h in header) != LOG_FIELDS:
                raise DomainError(
                    f"log file must start with header {','.join(LOG_FIELDS)!r}, got {header!r}"
                )
            for lineno, row in enumerate(reader, start=2):
                try:
                    c, t, ci, d, r = row
                except ValueError:
                    if not row:
                        continue
                    raise DomainError(f"line {lineno}: expected {len(LOG_FIELDS)} fields, got {len(row)}") from None
                entry, trial = parsed.get((c, ci, d, r)), by_text.get(t)
                if entry is None or trial is None:
                    try:  # checked in column order, so a row with several bad fields names the first
                        condition = Condition(c.strip()) if entry is None else entry[0]
                        trial_id = int(t)
                        if entry is None:
                            entry = parsed[c, ci, d, r] = (condition, SensorRecord(int(ci), int(d), int(r)))
                    except (ValueError, DomainError) as exc:
                        raise DomainError(f"line {lineno}: {exc}") from exc
                    if trial is None:
                        trial = by_text[t] = trials.setdefault(trial_id, (condition, []))
                if trial[0] is not entry[0]:
                    raise DomainError(f"line {lineno}: trial {int(t)} mixes conditions")
                trial[1].append(entry[1])
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DomainError(f"cannot read log file {path}: {exc}") from exc
    if not trials:
        raise DomainError("log file contains no records")
    return [
        TrialLog(condition=cond, records=tuple(records))
        for _, (cond, records) in sorted(trials.items())
    ]
