"""Scenario parameters for event detection on a sensor grid.

A scenario is a response-fault channel plus a topology: the classes of
sensors that can detect a candidate event cell, each with a node count and
a detection probability. Everything downstream (node error reports, score
distributions, decision tests, simulation) consumes a validated scenario
and the per-class quantities derived from it, its event and normal alarm
laws included. The pure checks of score weights and master seeds live
here too, so that reading a scenario file needs no other module.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "DomainError",
    "ChannelModel",
    "SensorClass",
    "Topology",
    "Prior",
    "LossRatio",
    "ValidatedScenario",
    "DerivedStats",
    "ClassAlarmLaw",
    "TOPOLOGY_KINDS",
    "builtin_topology",
    "validate",
    "derived_stats",
]


class DomainError(ValueError):
    """A parameter or combination of parameters violates a model invariant."""


def _check_unit(name: str, value: float, low_open: bool = False, high_open: bool = False) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")
    if value < 0.0 or value > 1.0:
        raise DomainError(f"{name} must lie in [0, 1], got {value}")
    if low_open and value == 0.0:
        raise DomainError(f"{name} must be > 0")
    if high_open and value == 1.0:
        raise DomainError(f"{name} must be < 1")
    return value


def _check_weights(weights: tuple[float, ...], counts: Sequence[int]) -> None:
    if len(weights) != len(counts):
        raise DomainError(f"{len(weights)} weights for {len(counts)} classes")
    for i, w in enumerate(weights):
        if not math.isfinite(w):
            raise DomainError(f"class {i}: weight must be finite, got {w}")
        if w <= 0.0:
            raise DomainError(f"class {i}: weight must be positive, got {w}")
    # no score overflows unless the all-alarm one does; added in score_dist.tuple_scores' order, in plain floats
    top = 0.0
    try:
        for w, n in zip(weights, counts):
            top += w * n
    except OverflowError:  # a count past the float range
        top = math.inf
    if top == math.inf:
        raise DomainError("weights too large: the score with every sensor alarming overflows")


def _check_master_seed(master_seed: int) -> int:
    if int(master_seed) != master_seed or not 0 <= master_seed < 2**64:
        raise DomainError(f"master seed must be a 64-bit unsigned integer, got {master_seed}")
    return int(master_seed)


@dataclass(frozen=True)
class ChannelModel:
    """Response fault probabilities of a single sensor.

    ``p_c`` is the probability that a sensor which detected the event
    actually raises an alarm; ``p_w`` is the probability that a sensor
    which detected nothing raises a false alarm. ``p_w < p_c`` is required
    so an alarm always carries positive evidence of detection.
    """

    p_c: float
    p_w: float

    def __post_init__(self) -> None:
        _check_unit("p_c", self.p_c, low_open=True)
        _check_unit("p_w", self.p_w, high_open=True)
        if not self.p_w < self.p_c:
            raise DomainError(
                f"need p_w < p_c for a positive alarm margin, got p_w={self.p_w}, p_c={self.p_c}"
            )

    @property
    def alarm_margin(self) -> float:
        """p_c - p_w, the alarm-probability gain per unit detection probability."""
        return self.p_c - self.p_w

    @property
    def silent_when_undetected(self) -> bool:
        """True when p_w = 0: a sensor that detects nothing never alarms."""
        return self.p_w == 0.0


@dataclass(frozen=True)
class SensorClass:
    """A group of sensors at equal distance from the candidate event cell."""

    label: str
    count: int
    detect_prob: float

    def __post_init__(self) -> None:
        if int(self.count) != self.count or self.count < 1:
            raise DomainError(f"class {self.label!r}: count must be a positive integer, got {self.count}")
        _check_unit(f"class {self.label!r} detect_prob", self.detect_prob, low_open=True)


@dataclass(frozen=True)
class Topology:
    """Ordered sensor classes around one candidate event cell.

    Construction checks the per-class fields only; use :func:`validate` to
    normalize the ordering (descending detection probability) and enforce
    strictness.
    """

    classes: tuple[SensorClass, ...]

    def __post_init__(self) -> None:
        if not self.classes:
            raise DomainError("topology needs at least one sensor class")
        object.__setattr__(self, "classes", tuple(self.classes))

    @functools.cached_property
    def counts(self) -> tuple[int, ...]:
        return tuple(c.count for c in self.classes)

    @functools.cached_property
    def detect_probs(self) -> tuple[float, ...]:
        return tuple(c.detect_prob for c in self.classes)

    @functools.cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(c.label for c in self.classes)

    @functools.cached_property
    def total_count(self) -> int:
        return sum(self.counts)

    @functools.cached_property
    def first_sensors(self) -> tuple[int, ...]:
        """Each class's first sensor in topology order."""
        return tuple(sum(self.counts[:i]) for i in range(len(self.counts)))

    @functools.cached_property
    def detection_column(self):
        """Each sensor's detection probability in topology order, a read-only (sensors, 1) float array."""
        import numpy as np  # here, so that reading a scenario needs no numpy
        column = np.repeat(self.detect_probs, self.counts)[:, None]
        column.flags.writeable = False
        return column


@dataclass(frozen=True)
class Prior:
    """Prior probability that the candidate cell is an event cell."""

    event_prob: float

    def __post_init__(self) -> None:
        _check_unit("event prior p_e", self.event_prob, low_open=True, high_open=True)

    @property
    def normal_prob(self) -> float:
        return 1.0 - self.event_prob


@dataclass(frozen=True)
class LossRatio:
    """Loss for a missed event divided by the loss for a false alarm."""

    value: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.value) and self.value > 0.0):
            raise DomainError(f"loss ratio must be a positive finite real, got {self.value}")


# class counts per built-in cell layout, nearest class first
TOPOLOGY_KINDS: dict[str, tuple[int, ...]] = {
    "interior_square": (1, 4, 4),
    "corner_square": (1, 2, 1),
    "edge_square": (1, 3, 2),
    "hexagon_interior": (1, 6),
}

_SQUARE_LABELS = ("center", "distance-one", "distance-two")
_HEX_LABELS = ("center", "adjacent")


def builtin_topology(
    kind: str,
    detect_probs: list[float] | tuple[float, ...],
    counts: list[int] | tuple[int, ...] | None = None,
) -> Topology:
    """Build a topology for a named cell layout, or a custom one.

    ``kind`` is one of :data:`TOPOLOGY_KINDS` or ``"custom"``; custom
    requires explicit ``counts``. ``detect_probs`` must supply one
    probability per class of the layout.
    """
    detect_probs = tuple(detect_probs)
    if kind == "custom":
        if counts is None:
            raise DomainError("custom topology requires explicit class counts")
        counts = tuple(counts)
        labels = tuple(f"class-{i + 1}" for i in range(len(counts)))
    else:
        if kind not in TOPOLOGY_KINDS:
            known = ", ".join(sorted(TOPOLOGY_KINDS) + ["custom"])
            raise DomainError(f"unknown topology kind {kind!r} (expected one of: {known})")
        if counts is not None:
            raise DomainError(f"topology kind {kind!r} fixes its class counts; do not pass counts")
        counts = TOPOLOGY_KINDS[kind]
        labels = _HEX_LABELS if kind == "hexagon_interior" else _SQUARE_LABELS
    if len(detect_probs) != len(counts):
        raise DomainError(
            f"topology kind {kind!r} has {len(counts)} classes, got {len(detect_probs)} detection probabilities"
        )
    return Topology(
        tuple(
            SensorClass(label=lab, count=n, detect_prob=p)
            for lab, n, p in zip(labels, counts, detect_probs)
        )
    )


@dataclass(frozen=True)
class ValidatedScenario:
    """A channel and topology that passed :func:`validate`.

    Classes are ordered by strictly decreasing detection probability. The
    prior is optional; operations that need one take it explicitly.
    """

    channel: ChannelModel
    topology: Topology
    prior: Prior | None = None

    def derived(self) -> "DerivedStats":
        return self._derived

    # computed on the first call to derived() and kept with the scenario
    _derived = functools.cached_property(lambda self: derived_stats(self.channel, self.topology))


def validate(
    channel: ChannelModel,
    topology: Topology,
    prior: Prior | None = None,
) -> ValidatedScenario:
    """Check all invariants and normalize class ordering.

    Classes are reordered by descending detection probability. The checks
    read the derived alarm probabilities, as rounded: with p_w > 0 every
    class's score weight must be positive, and no two classes may share an
    alarm probability, since such classes are statistically identical and
    must be merged by the caller.
    """
    ordered = tuple(sorted(topology.classes, key=lambda c: -c.detect_prob))
    scenario = ValidatedScenario(channel=channel, topology=Topology(ordered), prior=prior)
    stats = scenario.derived()
    for i, (c, a, w) in enumerate(zip(ordered, stats.alarm_probs, stats.weights)):
        if channel.p_w and not w > 0.0:
            raise DomainError(f"class {c.label!r}: alarm probability {a!r} is too close to p_w={channel.p_w!r} "
                              "for a positive score weight")
        if i and a == stats.alarm_probs[i - 1]:
            raise DomainError(f"classes {ordered[i - 1].label!r} and {c.label!r} share alarm probability {a!r}; "
                              "merge them into one class")
    return scenario


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
class DerivedStats:
    """Per-class quantities implied by a validated scenario.

    ``alarm_probs[i]`` is the probability that a class-i sensor alarms when
    the event occurs (p_w + detect_prob * alarm_margin), ``silence_probs``
    its complement, and ``weights[i]`` the log-likelihood-ratio weight of
    one class-i alarm. A weight is +inf when p_w = 0 (an alarm is then
    conclusive) or when the class's alarm is certain under the event
    (p_c = detect_prob = 1 with p_w > 0). Rules read the first case from
    ``channel.silent_when_undetected`` and refuse the second.
    ``event_law`` and ``normal_law`` are the cell's alarm counts under the
    event (``alarm_probs``) and under the normal hypothesis (p_w in every
    class), built once here for every exact error rate and score law.
    """

    alarm_probs: tuple[float, ...]
    silence_probs: tuple[float, ...]
    weights: tuple[float, ...]
    event_law: ClassAlarmLaw
    normal_law: ClassAlarmLaw


def derived_stats(channel: ChannelModel, topology: Topology) -> DerivedStats:
    """Closed-form per-class alarm probabilities and score weights."""
    d = channel.alarm_margin
    p_w = channel.p_w
    alarm = tuple(p_w + p * d for p in topology.detect_probs)
    silence = tuple(1.0 - a for a in alarm)
    weights = []
    for a in alarm:
        if p_w == 0.0 or a == 1.0:
            weights.append(math.inf)
            continue
        # at subnormal p_w the quotient's divisor rounds to 0 or it overflows: take a difference of logs
        den = (1.0 - a) * p_w
        odds = a * (1.0 - p_w) / den if den else math.inf
        weights.append(math.log(odds) if 0.0 < odds < math.inf
                       else math.log(a) + math.log1p(-p_w) - math.log1p(-a) - math.log(p_w))
    return DerivedStats(
        alarm_probs=alarm,
        silence_probs=silence,
        weights=tuple(weights),
        event_law=ClassAlarmLaw(topology.counts, alarm),
        normal_law=ClassAlarmLaw(topology.counts, (p_w,) * len(alarm)),
    )
