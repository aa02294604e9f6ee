"""Closed-form error probabilities and posteriors for individual sensors."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import Prior, ValidatedScenario

__all__ = ["NodeErrorReport", "node_error_report"]


@dataclass(frozen=True)
class NodeErrorReport:
    """Per-class error probabilities for one scenario and prior.

    type1[i]: probability a class-i sensor stays silent given the event
    (missed alarm, the serious error). type2[i]: probability it alarms
    given a normal cell (always p_w). event_given_silent[i] and
    normal_given_alarm[i] are the posterior probabilities that the silence
    or alarm is wrong.
    """

    labels: tuple[str, ...]
    event_prob: float
    type1: tuple[float, ...]
    type2: tuple[float, ...]
    event_given_silent: tuple[float, ...]
    normal_given_alarm: tuple[float, ...]


def node_error_report(scenario: ValidatedScenario, prior: Prior) -> NodeErrorReport:
    """Compute all four error families for every sensor class.

    The posteriors mix the event prior with the per-class alarm law:
    P(event | silent) = p_e*Q_i / (p_n*(1-p_w) + p_e*Q_i) and
    P(normal | alarm) = p_n*p_w / (p_n*p_w + p_e*A_i), with A_i the alarm
    probability under the event and Q_i = 1 - A_i.
    """
    stats = scenario.derived()
    p_w = scenario.channel.p_w
    p_e = prior.event_prob
    p_n = prior.normal_prob
    type1 = stats.silence_probs
    type2 = tuple(p_w for _ in type1)
    event_given_silent = tuple(_posterior(p_e, q, p_n, 1.0 - p_w) for q in stats.silence_probs)
    # at p_w = 0 an alarm is impossible under the normal hypothesis, and p_e * a may underflow to 0
    normal_given_alarm = tuple(_posterior(p_n, p_w, p_e, a) if p_w else 0.0 for a in stats.alarm_probs)
    return NodeErrorReport(
        labels=scenario.topology.labels,
        event_prob=p_e,
        type1=type1,
        type2=type2,
        event_given_silent=event_given_silent,
        normal_given_alarm=normal_given_alarm,
    )


def _posterior(x: float, y: float, u: float, v: float) -> float:
    """x*y / (x*y + u*v), with y and v scaled by 2**1000, exactly, when x*y is subnormal and would lose bits."""
    scale = 1000 if x * y < 2.0**-1022 else 0
    joint = x * math.ldexp(y, scale)
    return joint / (joint + u * math.ldexp(v, scale))
