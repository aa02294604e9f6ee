"""The scenario parser as it was before its one-section-reader rewrite, kept word for word.

tests/test_scenario_io.py requires griddetect.scenario_io.parse_scenario to return a ScenarioFile with the same
repr, or to raise the identical exception text, on generated documents, apart from the class labels that the
rewrite gives their default or refuses. This copy is a reference for the tests only.
"""

from __future__ import annotations

from griddetect.model import (
    ChannelModel,
    ClassAlarmLaw,
    LossRatio,
    Prior,
    SensorClass,
    Topology,
    _check_master_seed,
    _check_weights,
    builtin_topology,
    validate,
)
from griddetect.scenario_io import (
    DEFAULT_N_TRIALS,
    SCHEMA_VERSION,
    WEIGHT_MODES,
    ScenarioError,
    ScenarioFile,
    SimulationSettings,
    _ctx,
    _field,
    _int,
    _number,
    _number_list,
    _shown,
)


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
        ("approx.weights", approx_weights, lambda v: _check_weights(v, scenario.topology.counts)),
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
