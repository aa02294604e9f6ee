"""Shared scenario constructors and random generators for the test suite."""

from __future__ import annotations

import copy
import random
from pathlib import Path

import yaml
from hypothesis import strategies as st

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


# Generated scenario documents: the shipped files and a small custom cell, a few fields changed.
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
SMALL_CUSTOM = {
    "schema": 1,
    "channel": {"p_c": 0.8, "p_w": 0.2},
    "topology": {
        "kind": "custom",
        "classes": [
            {"label": "near", "count": 2, "p_detect": 0.9},
            {"label": "far", "count": 3, "p_detect": 0.4},
        ],
    },
    "prior": {"p_e": [0.2]},
    "loss_ratio": 5,
    "sizes": [0.1],
    "weight_mode": "paper_approx",
    "approx": {"weights": [3, 1], "alarm_probs": [0.7, 0.4]},
    "simulation": {"n_trials": 10, "master_seed": 3},
}
BASES = [
    yaml.safe_load((SCENARIOS / name).read_text())
    for name in ("good_network.yaml", "weak_network.yaml")
] + [SMALL_CUSTOM]
KEYS = sorted(
    {"schema", "channel", "topology", "prior", "loss_ratio", "sizes", "weight_mode", "approx",
     "simulation", "p_c", "p_w", "kind", "detect_probs", "classes", "label", "count", "p_detect",
     "p_e", "weights", "alarm_probs", "n_trials", "master_seed"}
)
# small counts keep every count-tuple grid tiny; the extremes hit the caps
small_ints = st.integers(-3, 12) | st.sampled_from([10**20, 2**64, -(2**64)])
# priors and loss ratios whose products and quotients underflow or overflow
float_extremes = st.sampled_from([0.9999999999999999, 1e-300, 1e-10, 1e308, 5e-324])
scalars = (
    st.none() | st.booleans() | small_ints | st.floats(0, 1) | st.floats() | float_extremes | st.text(max_size=6)
    | st.sampled_from(["custom", "interior_square", "hexagon_interior", "exact", "paper_approx"])
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(KEYS), inner, max_size=3),
    max_leaves=8,
)
keys = st.sampled_from(KEYS) | st.integers(-2, 2) | st.booleans() | st.none() | st.floats() | st.text(max_size=4)


def _containers(node):
    if isinstance(node, (dict, list)):
        yield node
        for child in node.values() if isinstance(node, dict) else node:
            yield from _containers(child)


@st.composite
def scenario_documents(draw):
    """A shipped or small scenario with a few fields replaced, added or deleted."""
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(0, 3))):
        node = draw(st.sampled_from(list(_containers(doc))))
        slots = list(node) if isinstance(node, dict) else list(range(len(node)))
        action = draw(st.sampled_from(["set", "add", "delete"]))
        if action == "add" or not slots:
            if isinstance(node, dict):
                node.update(draw(st.dictionaries(keys, values, min_size=1, max_size=3)))
            else:
                node.append(draw(values))
        elif action == "set":
            node[draw(st.sampled_from(slots))] = draw(values)
        else:
            del node[draw(st.sampled_from(slots))]
    return doc
