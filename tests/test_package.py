"""The package's export table: lazy public names, submodule attributes, version."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import griddetect as g

ROOT = Path(__file__).resolve().parents[1]

PUBLIC_NAMES = [
    "BayesTest", "ChannelModel", "ClassAlarmLaw", "Condition", "Decision", "DerivedStats", "DomainError",
    "Estimate", "LossRatio", "MPTest", "NodeErrorReport", "Observation", "OperatingCharacteristics", "Prior",
    "ScenarioError", "ScenarioFile", "ScoreAtom", "ScoreDistribution", "SensorClass", "SensorRecord", "SimReport",
    "Topology", "TrialLog", "TrialOutcome", "Truth", "ValidatedScenario", "Verdict", "bayes_decide", "bayes_test",
    "brute_force_distribution", "builtin_topology", "derive_trial_seed", "derived_stats", "draw_world",
    "estimate_correct_response", "estimate_detection", "estimate_false_response", "generate_trial_logs",
    "load_scenario", "mp_decide", "node_error_report", "np_optimality_check", "operating_characteristics",
    "parse_scenario", "read_log_file", "run_trials", "score_distribution", "simulate_trial", "solve_mp_test",
    "validate", "write_log_file",
]
SUBMODULES = ["decision_tests", "estimation", "model", "node_errors", "scenario_io", "score_dist", "simulator",
              "_streams"]


def run_fresh(code: str) -> str:
    """Stdout of ``code`` run in a new interpreter that imports griddetect from this source tree."""
    src = str(Path(g.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True, text=True,
                          timeout=60, env=env, check=True).stdout


def test_light_modules_load_no_numpy():
    out = run_fresh(
        """
        import sys
        import griddetect, griddetect.model, griddetect.scenario_io, griddetect.estimation
        import griddetect.node_errors, griddetect.tables
        heavy = ("numpy", "griddetect.decision_tests", "griddetect.score_dist", "griddetect.simulator")
        print(sorted(m for m in heavy if m in sys.modules))
        """
    )
    assert out == "[]\n"


def test_bare_import_resolves_every_submodule():
    out = run_fresh(
        f"""
        import types, griddetect
        print(all(isinstance(getattr(griddetect, m), types.ModuleType) for m in {SUBMODULES!r}))
        """
    )
    assert out == "True\n"


def test_all_holds_the_public_names():
    assert g.__all__ == PUBLIC_NAMES


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_name_is_its_modules_object(name):
    module = g._MODULE_OF[name]
    value = getattr(g, name)
    assert value is getattr(getattr(g, module), name)
    assert value.__module__ == f"griddetect.{module}"  # the table names the defining module


def test_submodules_import_by_name():
    from griddetect import _streams, cli, tables

    assert (cli.__name__, tables.__name__, _streams.__name__) == (
        "griddetect.cli", "griddetect.tables", "griddetect._streams")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        g.no_such_name
    assert not hasattr(g, "no_such_name")


def test_dir_lists_every_public_name():
    assert set(PUBLIC_NAMES) <= set(dir(g))


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is in the standard library from Python 3.11 on")
def test_version_matches_pyproject():
    import tomllib

    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == g.__version__
