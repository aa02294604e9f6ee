"""Exact decision tests and Monte Carlo simulation for sensor-grid event detection.

Given a grid of sensors around one candidate event cell, with per-class
detection probabilities and a common response-fault channel, this package
computes node-level error probabilities, constructs the exact randomized
most-powerful test and the Bayes test for the base station, and verifies
everything by seeded simulation.

Each public name is imported from its module on first use, so a caller
that only parses scenarios (``model``, ``scenario_io``), reads calibration
logs (``estimation``), reports node errors or renders tables loads no numpy.
"""

import importlib

__version__ = "0.1.0"

# each module and the public names it defines; __all__ and __dir__ derive from this table
_EXPORTS = {
    "decision_tests": ("BayesTest", "Decision", "MPTest", "Observation", "OperatingCharacteristics", "Verdict",
                       "bayes_decide", "bayes_test", "mp_decide", "np_optimality_check",
                       "operating_characteristics", "solve_mp_test"),
    "estimation": ("Condition", "Estimate", "SensorRecord", "TrialLog", "estimate_correct_response",
                   "estimate_detection", "estimate_false_response", "generate_trial_logs", "read_log_file",
                   "write_log_file"),
    "model": ("ChannelModel", "ClassAlarmLaw", "DerivedStats", "DomainError", "LossRatio", "Prior", "SensorClass",
              "Topology", "ValidatedScenario", "builtin_topology", "derived_stats", "validate"),
    "node_errors": ("NodeErrorReport", "node_error_report"),
    "scenario_io": ("ScenarioError", "ScenarioFile", "load_scenario", "parse_scenario"),
    "score_dist": ("ScoreAtom", "ScoreDistribution", "brute_force_distribution", "score_distribution"),
    "simulator": ("SimReport", "TrialOutcome", "Truth", "derive_trial_seed", "draw_world", "run_trials",
                  "simulate_trial"),
}
# submodules that resolve as package attributes without an explicit import
_SUBMODULES = frozenset(_EXPORTS) | {"_streams"}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _MODULE_OF.keys() | _SUBMODULES)
