"""The benchmark's tracer finds every function it wraps where the CLI calls it.

bench/run.py --trace 1 wraps the module attributes that ``trace_targets()``
names, so a command that reaches a function some other way (a name bound
when a decorator runs, say) silently reads 0 for that layer. These tests
check that each named attribute exists, and that every scenario command
looks ``cli.load_scenario`` and ``cli.render`` up when it runs, calling
each once.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest
from click.testing import CliRunner

from griddetect import cli

ROOT = Path(__file__).resolve().parents[1]
GOOD = str(ROOT / "scenarios" / "good_network.yaml")
_spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
bench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)


def test_every_trace_target_exists():
    for module, attr, span, _ in bench_run.trace_targets():
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({span})"


@pytest.mark.parametrize("args", [
    ["errors"],
    ["bayes"],
    ["mp"],
    ["dist"],
    ["simulate", "--trials", "20"],
], ids=lambda args: args[0])
def test_command_calls_each_traced_seam_once(monkeypatch, args):
    calls = {"load_scenario": 0, "render": 0}

    def counting(name):
        inner = getattr(cli, name)

        def wrapper(*a, **kw):
            calls[name] += 1
            return inner(*a, **kw)
        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counting(name))
    result = CliRunner().invoke(cli.main, args + ["--scenario", GOOD], catch_exceptions=False)
    assert result.exit_code == 0, result.output
    assert calls == {"load_scenario": 1, "render": 1}
