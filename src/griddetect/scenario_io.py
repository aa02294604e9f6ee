"""Scenario files: a versioned YAML schema for complete analysis inputs.

A scenario file bundles everything a command needs: channel, topology,
prior sweep, loss-ratio sweep, test sizes, simulation settings, and the
weight mode. Unknown keys are rejected so misspelled probability names
fail loudly instead of silently using defaults.

Schema (version 1)::

    schema: 1
    channel: {p_c: 0.9, p_w: 0.1}
    topology:
      kind: interior_square          # or corner_square, edge_square,
      detect_probs: [0.9, 0.5, 0.3]  # hexagon_interior, custom
      # kind: custom takes classes: [{label: center, count: 1, p_detect: 0.9}, ...]
    prior: {p_e: [0.1, 0.2, 0.3]}    # scalar or list; optional
    loss_ratio: [5, 20]              # scalar or list; optional
    sizes: [0.1, 0.05, 0.025, 0.01]  # optional
    weight_mode: exact               # or paper_approx
    approx:                          # required iff weight_mode: paper_approx
      weights: [5, 3, 2]
      alarm_probs: [0.8, 0.5, 0.35]  # optional; defaults to the exact values
    simulation: {n_trials: 100000, master_seed: 1}   # optional

Files are read with PyYAML's libyaml-backed ``CSafeLoader`` when PyYAML
was built with libyaml, and with the pure-Python ``SafeLoader`` when it
was not. Only the scanner, parser and composer differ: the resolver and
constructor are PyYAML's Python code under both, so a file loads to the
same data either way (``1e-3`` stays a string), and only the detail text
of a YAML syntax error differs. libyaml composes nested collections by
recursion with no limit, so one iterative pass over the parse events
first rejects a document nested deeper than ``MAX_YAML_DEPTH``
collections; the schema's deepest legal document has four.
"""

from __future__ import annotations

import io
import reprlib
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path

import yaml

from .model import (
    ChannelModel,
    DomainError,
    LossRatio,
    Prior,
    SensorClass,
    Topology,
    ValidatedScenario,
    builtin_topology,
    validate,
)
from .score_dist import ClassAlarmLaw, _check_weights
from .simulator import _check_master_seed

__all__ = ["ScenarioError", "SimulationSettings", "ScenarioFile", "load_scenario", "parse_scenario"]

SCHEMA_VERSION = 1
DEFAULT_N_TRIALS = 100_000
WEIGHT_MODES = ("exact", "paper_approx")
MAX_YAML_DEPTH = 32
MAX_SHOWN_CHARS = 200

_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ScenarioError(DomainError):
    """A scenario file failed to parse or validate; the message names the field."""


@dataclass(frozen=True)
class SimulationSettings:
    n_trials: int = DEFAULT_N_TRIALS
    master_seed: int = 0


@dataclass(frozen=True)
class ScenarioFile:
    """Parsed and validated contents of one scenario file."""

    scenario: ValidatedScenario
    event_priors: tuple[float, ...]
    loss_ratios: tuple[float, ...]
    sizes: tuple[float, ...]
    weight_mode: str
    approx_weights: tuple[float, ...] | None
    approx_alarm_probs: tuple[float, ...] | None
    simulation: SimulationSettings

    def priors(self) -> tuple[Prior, ...]:
        return tuple(Prior(p) for p in self.event_priors)

    def with_weight_mode(self, flag: str | None) -> ScenarioFile:
        """This file under a --weight-mode flag ("exact" or "paper-approx"); None keeps the file's mode."""
        if flag is None:
            return self
        mode = flag.replace("-", "_")
        if mode == "paper_approx" and self.approx_weights is None:
            raise ScenarioError("weight mode paper-approx needs an approx: block in the scenario file")
        return replace(self, weight_mode=mode)

    def mp_overrides(self) -> dict:
        """Keyword overrides for solve_mp_test honoring the weight mode."""
        if self.weight_mode == "exact":
            return {}
        return {
            "weights": self.approx_weights,
            "event_alarm_probs": self.approx_alarm_probs,
        }


class _ValueRepr(reprlib.Repr):
    """reprlib.Repr that keeps a mapping's or set's own order, as repr() does."""

    def repr_dict(self, x, level):
        if not x:
            return "{}"
        if level <= 0:
            return "{...}"
        items = islice(x.items(), self.maxdict)
        pieces = [f"{self.repr1(k, level - 1)}: {self.repr1(v, level - 1)}" for k, v in items]
        return "{" + ", ".join(pieces) + (", ..." if len(x) > self.maxdict else "") + "}"

    def repr_set(self, x, level):
        return self._repr_iterable(x, level, "{", "}", self.maxset) if x else "set()"


_REPR = _ValueRepr()
_REPR.maxlevel = 4
_REPR.maxlist = _REPR.maxtuple = _REPR.maxdict = _REPR.maxset = 10
_REPR.maxstring = _REPR.maxlong = _REPR.maxother = 80


def _shown(value) -> str:
    """repr() of a user value, cut to MAX_SHOWN_CHARS.

    YAML aliases repeat a node by reference, so a small file can hold a
    value whose full repr is gigabytes long or nested past the recursion
    limit; the per-container limits bound the work, the cut the message.
    """
    text = _REPR.repr(value)
    return text if len(text) <= MAX_SHOWN_CHARS else text[: MAX_SHOWN_CHARS - 3] + "..."


def _ctx(path: str) -> str:
    return path if path else "top level"


@contextmanager
def _field(path: str):
    """Name the field in a DomainError raised inside; a ScenarioError names its own."""
    try:
        yield
    except ScenarioError:
        raise
    except DomainError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _require_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ScenarioError(f"{_ctx(path)}: expected a mapping, got {type(node).__name__}")
    return node


def _take(node: dict, path: str, allowed: dict[str, bool]) -> dict:
    """Check required/unknown keys; ``allowed`` maps key -> required?"""
    unknown = sorted(set(node) - set(allowed), key=str)
    if unknown:
        raise ScenarioError(f"{_ctx(path)}: unknown key(s) {', '.join(map(_shown, unknown))}")
    missing = sorted(k for k, required in allowed.items() if required and k not in node)
    if missing:
        raise ScenarioError(f"{_ctx(path)}: missing required key(s) {', '.join(map(repr, missing))}")
    return node


def _number(node, path: str) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ScenarioError(f"{path}: expected a number, got {_shown(node)}")
    return float(node)


def _int(node, path: str) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        raise ScenarioError(f"{path}: expected an integer, got {_shown(node)}")
    return node


def _number_list(node, path: str) -> tuple[float, ...]:
    """A scalar or a list of numbers; scalars become one-element sweeps."""
    if node is None:
        return ()
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return (float(node),)
    if isinstance(node, list):
        return tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(node))
    raise ScenarioError(f"{path}: expected a number or list of numbers, got {_shown(node)}")


def _parse_topology(node, path: str) -> Topology:
    node = _require_mapping(node, path)
    kind = node.get("kind")
    if kind == "custom":
        _take(node, path, {"kind": True, "classes": True})
        classes_node = node["classes"]
        if not isinstance(classes_node, list) or not classes_node:
            raise ScenarioError(f"{path}.classes: expected a non-empty list")
        classes = []
        for i, cnode in enumerate(classes_node):
            cpath = f"{path}.classes[{i}]"
            cnode = _require_mapping(cnode, cpath)
            _take(cnode, cpath, {"label": False, "count": True, "p_detect": True})
            label = cnode.get("label", f"class-{i + 1}")
            if isinstance(label, (list, dict)):  # str() of an aliased one can be huge or too deep
                raise ScenarioError(f"{cpath}.label: expected a string, got {_shown(label)}")
            classes.append(
                SensorClass(
                    label=str(label),
                    count=_int(cnode["count"], f"{cpath}.count"),
                    detect_prob=_number(cnode["p_detect"], f"{cpath}.p_detect"),
                )
            )
        return Topology(tuple(classes))
    _take(node, path, {"kind": True, "detect_probs": True})
    if not isinstance(kind, str):
        raise ScenarioError(f"{path}.kind: expected a string, got {_shown(kind)}")
    probs = node["detect_probs"]
    if not isinstance(probs, list):
        raise ScenarioError(f"{path}.detect_probs: expected a list, got {_shown(probs)}")
    return builtin_topology(kind, [_number(p, f"{path}.detect_probs[{i}]") for i, p in enumerate(probs)])


def parse_scenario(data: dict) -> ScenarioFile:
    """Validate a parsed YAML document into a ScenarioFile."""
    root = _require_mapping(data, "")
    _take(
        root,
        "",
        {
            "schema": True,
            "channel": True,
            "topology": True,
            "prior": False,
            "loss_ratio": False,
            "sizes": False,
            "weight_mode": False,
            "approx": False,
            "simulation": False,
        },
    )
    schema = root["schema"]
    # true and 1.0 compare equal to 1 but are not a version
    if type(schema) is not int or schema != SCHEMA_VERSION:
        raise ScenarioError(f"schema: expected version {SCHEMA_VERSION}, got {_shown(schema)}")

    channel_node = _take(_require_mapping(root["channel"], "channel"), "channel", {"p_c": True, "p_w": True})
    with _field("channel"):
        channel = ChannelModel(
            p_c=_number(channel_node["p_c"], "channel.p_c"),
            p_w=_number(channel_node["p_w"], "channel.p_w"),
        )
    with _field("topology"):
        topology = _parse_topology(root["topology"], "topology")

    event_priors: tuple[float, ...] = ()
    if "prior" in root:
        prior_node = _take(_require_mapping(root["prior"], "prior"), "prior", {"p_e": True})
        event_priors = _number_list(prior_node["p_e"], "prior.p_e")
    loss_ratios = _number_list(root.get("loss_ratio"), "loss_ratio")
    for name, values, check in (("prior.p_e", event_priors, Prior), ("loss_ratio", loss_ratios, LossRatio)):
        for i, v in enumerate(values):
            with _field(f"{name}[{i}]"):
                check(v)
    sizes = _number_list(root.get("sizes"), "sizes")
    for i, s in enumerate(sizes):
        if not 0.0 < s < 1.0:
            raise ScenarioError(f"sizes[{i}]: test size must lie in (0, 1), got {s}")

    weight_mode = root.get("weight_mode", "exact")
    if weight_mode not in WEIGHT_MODES:
        raise ScenarioError(f"weight_mode: expected one of {WEIGHT_MODES}, got {_shown(weight_mode)}")
    approx_weights = approx_alarm_probs = None
    if "approx" in root:
        approx_node = _take(
            _require_mapping(root["approx"], "approx"), "approx", {"weights": True, "alarm_probs": False}
        )
        approx_weights = _number_list(approx_node["weights"], "approx.weights")
        if "alarm_probs" in approx_node:
            approx_alarm_probs = _number_list(approx_node["alarm_probs"], "approx.alarm_probs")
    if weight_mode == "paper_approx" and approx_weights is None:
        raise ScenarioError("weight_mode paper_approx requires an approx: block with weights")

    simulation = SimulationSettings()
    if "simulation" in root:
        sim_node = _take(
            _require_mapping(root["simulation"], "simulation"),
            "simulation",
            {"n_trials": False, "master_seed": False},
        )
        simulation = SimulationSettings(
            n_trials=_int(sim_node.get("n_trials", DEFAULT_N_TRIALS), "simulation.n_trials"),
            master_seed=_int(sim_node.get("master_seed", 0), "simulation.master_seed"),
        )
        if simulation.n_trials < 1:
            raise ScenarioError(f"simulation.n_trials: must be positive, got {simulation.n_trials}")
        with _field("simulation.master_seed"):
            _check_master_seed(simulation.master_seed)

    with _field("topology"):
        scenario = validate(channel, topology)

    n_classes = len(scenario.topology.classes)
    for name, values, check in (
        ("approx.weights", approx_weights, lambda v: _check_weights(v, n_classes)),
        ("approx.alarm_probs", approx_alarm_probs, lambda v: ClassAlarmLaw(scenario.topology.counts, v)),
    ):
        if values is None:
            continue
        if len(values) != n_classes:
            raise ScenarioError(f"{name}: expected {n_classes} entries, got {len(values)}")
        with _field(name):
            check(values)

    return ScenarioFile(
        scenario=scenario,
        event_priors=event_priors,
        loss_ratios=loss_ratios,
        sizes=sizes,
        weight_mode=weight_mode,
        approx_weights=approx_weights,
        approx_alarm_probs=approx_alarm_probs,
        simulation=simulation,
    )


def _check_depth(stream) -> None:
    """Reject nesting past MAX_YAML_DEPTH collections before a composer recurses into it."""
    depth = 0
    for event in yaml.parse(stream, Loader=_LOADER):
        if isinstance(event, yaml.CollectionStartEvent):
            depth += 1
            if depth > MAX_YAML_DEPTH:
                raise ScenarioError(f"nested deeper than {MAX_YAML_DEPTH} levels")
        elif isinstance(event, yaml.CollectionEndEvent):
            depth -= 1


def load_scenario(path: str | Path) -> ScenarioFile:
    """Load and validate a scenario file from disk."""
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    # a named stream makes YAML errors say `in "<path>", line L, column C`
    stream = io.StringIO(text)
    stream.name = str(path)
    try:
        _check_depth(stream)
        stream.seek(0)
        try:
            data = yaml.load(stream, Loader=_LOADER)
        except ValueError as exc:
            # from PyYAML's int() past 4300 digits, or date() on a day such as 2020-13-45
            raise ScenarioError(f"invalid YAML value: {exc}") from exc
        return parse_scenario(data)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{path}: invalid YAML: {exc}") from exc
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
