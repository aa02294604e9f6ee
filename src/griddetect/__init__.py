"""Exact decision tests and Monte Carlo simulation for sensor-grid event detection.

Given a grid of sensors around one candidate event cell, with per-class
detection probabilities and a common response-fault channel, this package
computes node-level error probabilities, constructs the exact randomized
most-powerful test and the Bayes test for the base station, and verifies
everything by seeded simulation.
"""

from .decision_tests import (
    BayesTest,
    Decision,
    MPTest,
    Observation,
    OperatingCharacteristics,
    Verdict,
    bayes_decide,
    bayes_test,
    mp_decide,
    np_optimality_check,
    operating_characteristics,
    solve_mp_test,
)
from .estimation import (
    Condition,
    Estimate,
    SensorRecord,
    TrialLog,
    estimate_correct_response,
    estimate_detection,
    estimate_false_response,
    generate_trial_logs,
    read_log_file,
    write_log_file,
)
from .model import (
    ChannelModel,
    ClassAlarmLaw,
    DerivedStats,
    DomainError,
    LossRatio,
    Prior,
    SensorClass,
    Topology,
    ValidatedScenario,
    builtin_topology,
    derived_stats,
    validate,
)
from .node_errors import NodeErrorReport, node_error_report
from .scenario_io import ScenarioError, ScenarioFile, load_scenario, parse_scenario
from .score_dist import (
    ScoreAtom,
    ScoreDistribution,
    brute_force_distribution,
    score_distribution,
)
from .simulator import (
    SimReport,
    TrialOutcome,
    Truth,
    derive_trial_seed,
    draw_world,
    run_trials,
    simulate_trial,
)

__version__ = "0.1.0"

__all__ = [
    "BayesTest",
    "ChannelModel",
    "ClassAlarmLaw",
    "Condition",
    "Decision",
    "DerivedStats",
    "DomainError",
    "Estimate",
    "LossRatio",
    "MPTest",
    "NodeErrorReport",
    "Observation",
    "OperatingCharacteristics",
    "Prior",
    "ScenarioError",
    "ScenarioFile",
    "ScoreAtom",
    "ScoreDistribution",
    "SensorClass",
    "SensorRecord",
    "SimReport",
    "Topology",
    "TrialLog",
    "TrialOutcome",
    "Truth",
    "ValidatedScenario",
    "Verdict",
    "bayes_decide",
    "bayes_test",
    "brute_force_distribution",
    "builtin_topology",
    "derive_trial_seed",
    "derived_stats",
    "draw_world",
    "estimate_correct_response",
    "estimate_detection",
    "estimate_false_response",
    "generate_trial_logs",
    "load_scenario",
    "mp_decide",
    "node_error_report",
    "np_optimality_check",
    "operating_characteristics",
    "parse_scenario",
    "read_log_file",
    "run_trials",
    "score_distribution",
    "simulate_trial",
    "solve_mp_test",
    "validate",
    "write_log_file",
]
