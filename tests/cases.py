"""Shared scenario constructors and random generators for the test suite."""

from __future__ import annotations

import random

import yaml

import griddetect as g

# The two parameter sets used throughout: a reliable network and a weak one.
GOOD_DETECT = (0.9, 0.5, 0.3)
GOOD_CHANNEL = (0.9, 0.1)
WEAK_DETECT = (0.7, 0.3, 0.1)
WEAK_CHANNEL = (0.8, 0.2)

# Integer-approximated score weights and rounded event-alarm probabilities
# for reproducing the reference decision tables.
GOOD_APPROX = dict(weights=(5.0, 3.0, 2.0), event_alarm_probs=(0.8, 0.5, 0.35))
WEAK_APPROX = dict(weights=(10.0, 5.0, 2.0), event_alarm_probs=(0.6, 0.4, 0.25))

INTERIOR_COUNTS = (1, 4, 4)

# The YAML loaders scenario_io can run with: the pure-Python one always, and
# the libyaml one when the installed PyYAML was built with it.
YAML_LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])


def make_scenario(detect, channel) -> g.ValidatedScenario:
    p_c, p_w = channel
    return g.validate(g.ChannelModel(p_c=p_c, p_w=p_w), g.builtin_topology("interior_square", detect))


def good_scenario() -> g.ValidatedScenario:
    return make_scenario(GOOD_DETECT, GOOD_CHANNEL)


def weak_scenario() -> g.ValidatedScenario:
    return make_scenario(WEAK_DETECT, WEAK_CHANNEL)


def degenerate_scenario(detect=GOOD_DETECT) -> g.ValidatedScenario:
    """Perfect channel: p_w = 0, p_c = 1."""
    return g.validate(g.ChannelModel(p_c=1.0, p_w=0.0), g.builtin_topology("interior_square", detect))


def random_scenario(rng: random.Random, max_classes: int = 3, max_count: int = 4) -> g.ValidatedScenario:
    """A random valid scenario with well-separated detection probabilities."""
    k = rng.randint(2, max_classes)
    while True:
        probs = sorted((rng.uniform(0.05, 0.95) for _ in range(k)), reverse=True)
        if all(a - b >= 0.03 for a, b in zip(probs, probs[1:])):
            break
    counts = [rng.randint(1, max_count) for _ in range(k)]
    p_w = rng.uniform(0.02, 0.5)
    p_c = rng.uniform(p_w + 0.1, 0.99)
    topology = g.builtin_topology("custom", probs, counts=counts)
    return g.validate(g.ChannelModel(p_c=p_c, p_w=p_w), topology)


class FixedCoin:
    """Deterministic uniform source feeding preset values."""

    def __init__(self, *values: float):
        self._values = list(values)

    def random(self) -> float:
        return self._values.pop(0)
