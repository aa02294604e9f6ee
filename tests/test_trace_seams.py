"""The benchmark's tracer finds every function it wraps where the CLI calls it.

bench/run.py --trace 1 wraps the module attributes that ``trace_targets()``
names, so a command that reaches a function some other way (a name bound
when a decorator runs, say) silently reads 0 for that layer. These tests
check that each named attribute exists, and that every scenario command
looks ``cli.load_scenario`` and ``cli.render`` up when it runs, calling
each once, and that ``estimate`` does the same with ``cli.read_log_file``
and ``cli.render``.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest
from click.testing import CliRunner

from griddetect import cli

ROOT = Path(__file__).resolve().parents[1]
GOOD = str(ROOT / "scenarios" / "good_network.yaml")
ESTIMATE_LOG = str(ROOT / "tests" / "golden" / "estimate_log.csv")
_spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
bench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)


def test_every_trace_target_exists():
    for module, attr, span, _ in bench_run.trace_targets():
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({span})"


SCENARIO_SEAMS = ("load_scenario", "render")


@pytest.mark.parametrize("args, seams", [
    pytest.param(["errors", "--scenario", GOOD], SCENARIO_SEAMS, id="errors"),
    pytest.param(["bayes", "--scenario", GOOD], SCENARIO_SEAMS, id="bayes"),
    pytest.param(["mp", "--scenario", GOOD], SCENARIO_SEAMS, id="mp"),
    pytest.param(["dist", "--scenario", GOOD], SCENARIO_SEAMS, id="dist"),
    pytest.param(["simulate", "--trials", "20", "--scenario", GOOD], SCENARIO_SEAMS, id="simulate"),
    # estimation.estimate_us and tables.render_us wrap these two names
    pytest.param(["estimate", ESTIMATE_LOG], ("read_log_file", "render"), id="estimate"),
])
def test_command_calls_each_traced_seam_once(monkeypatch, args, seams):
    calls = dict.fromkeys(seams, 0)

    def counting(name):
        inner = getattr(cli, name)

        def wrapper(*a, **kw):
            calls[name] += 1
            return inner(*a, **kw)
        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counting(name))
    result = CliRunner().invoke(cli.main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    assert calls == dict.fromkeys(seams, 1)
