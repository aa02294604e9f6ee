import importlib.util
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import click
import numpy as np
import pytest
import yaml
from click.testing import CliRunner

import griddetect as g
from griddetect import _streams, decision_tests, scenario_io
from griddetect.cli import main
from griddetect.tables import format_cell

from cases import REFUSED_FIELDS, YAML_LOADERS, minimal_document
from test_cli_help import GOLDEN as HELP_GOLDEN, help_text

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
GOOD = str(SCENARIOS / "good_network.yaml")
WEAK = str(SCENARIOS / "weak_network.yaml")
ESTIMATE_LOG = str(Path(__file__).resolve().parent / "golden" / "estimate_log.csv")
# one run of each command that writes a table, as a process
PROCESS_COMMANDS = {
    "errors": ["errors", "--scenario", GOOD],
    "bayes": ["bayes", "--scenario", GOOD],
    "mp": ["mp", "--scenario", GOOD],
    "dist": ["dist", "--scenario", GOOD, "--format", "csv"],
    "simulate": ["simulate", "--scenario", GOOD, "--trials", "200"],
    "estimate": ["estimate", ESTIMATE_LOG],
}


def run_process(args, stdout, buffered=True) -> subprocess.CompletedProcess:
    """griddetect as a new process from this source tree, its stdout given and its stderr captured.

    Buffered, stdout's last bytes are written by the flush at exit, after the command returns."""
    src = str(Path(g.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "griddetect.cli"] + args, stdout=stdout, stderr=subprocess.PIPE,
                          text=True, timeout=120, env=env)


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


def cell(line, column_index):
    return line.split(",")[column_index]


class TestErrorsCommand:
    def test_table_matches_reference_values(self, runner):
        result = invoke(runner, "errors", "--scenario", GOOD, "--format", "csv")
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == (
            "table,p_e,class,type1_silent_given_event,type2_alarm_given_normal,"
            "event_given_silent,normal_given_alarm"
        )
        first = lines[1].split(",")
        assert first[1] == "0.1" and first[2] == "center"
        assert float(first[3]) == pytest.approx(0.18, abs=5e-5)
        assert float(first[5]) == pytest.approx(0.0217, abs=5e-5)
        assert float(first[6]) == pytest.approx(0.5233, abs=5e-5)
        assert len(lines) == 1 + 5 * 3  # five priors, three classes

    def test_empty_prior_sweep_gives_header_only(self, runner, tmp_path):
        path = tmp_path / "s.yaml"
        path.write_text(
            "schema: 1\n"
            "channel: {p_c: 0.9, p_w: 0.1}\n"
            "topology: {kind: interior_square, detect_probs: [0.9, 0.5, 0.3]}\n"
            "prior: {p_e: []}\n"
        )
        result = invoke(runner, "errors", "--scenario", str(path), "--format", "csv")
        assert result.exit_code == 0
        assert len(result.output.strip().splitlines()) == 1

    def test_invalid_scenario_exits_nonzero_with_diagnostic(self, runner, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(
            "schema: 1\n"
            "channel: {p_c: 0.2, p_w: 0.5}\n"
            "topology: {kind: interior_square, detect_probs: [0.9, 0.5, 0.3]}\n"
        )
        result = runner.invoke(main, ["errors", "--scenario", str(path)])
        assert result.exit_code == 1
        assert "p_w < p_c" in result.output  # CliRunner merges stderr into output


class TestBayesCommand:
    def test_thresholds_and_applicability(self, runner):
        result = invoke(runner, "bayes", "--scenario", WEAK, "--format", "csv")
        assert result.exit_code == 0
        rows = [line.split(",") for line in result.output.strip().splitlines()[1:]]
        by_key = {(r[1], r[2]): r for r in rows}
        row = by_key[("0.1", "5")]
        assert float(row[6]) == pytest.approx(2.664, abs=5e-4)
        assert row[7] == "true"
        row = by_key[("0.3", "20")]
        assert float(row[6]) == pytest.approx(-0.073, abs=5e-4)
        assert row[7] == "false"
        assert float(row[8]) == 0.0 and float(row[9]) == 0.0

    def test_weights_column(self, runner):
        result = invoke(runner, "bayes", "--scenario", GOOD, "--format", "csv")
        row = result.output.strip().splitlines()[1].split(",")
        assert float(row[3]) == pytest.approx(3.714, abs=5e-4)
        assert float(row[4]) == pytest.approx(2.197, abs=5e-4)
        assert float(row[5]) == pytest.approx(1.534, abs=5e-4)


class TestMPCommand:
    def test_paper_approx_reproduces_reference_rows(self, runner):
        result = invoke(runner, "mp", "--scenario", GOOD, "--format", "csv")
        assert result.exit_code == 0
        rows = [line.split(",") for line in result.output.strip().splitlines()[1:]]
        printed_alpha = [float(r[1]) for r in rows]
        thresholds = [float(r[6]) for r in rows]
        ks = [float(r[7]) for r in rows]
        assert printed_alpha == [0.9, 0.95, 0.975, 0.99]
        assert thresholds == [8.0, 6.0, 5.0, 3.0]
        # exact boundary probabilities from atom enumeration (frozen in
        # test_decision_tests); the 6-sig-digit CSV rounds the same way
        for k, exact in zip(ks, (0.038233, 0.135754, 0.183157, 0.331947)):
            assert k == pytest.approx(exact, abs=1e-6)

    def test_weak_paper_rows(self, runner):
        result = invoke(runner, "mp", "--scenario", WEAK, "--format", "csv")
        rows = [line.split(",") for line in result.output.strip().splitlines()[1:]]
        assert [float(r[6]) for r in rows] == [7.0, 5.0, 2.0, 0.0]

    def test_sizes_override_and_exact_mode(self, runner, tmp_path):
        path = tmp_path / "exact.yaml"
        path.write_text(
            "schema: 1\n"
            "channel: {p_c: 0.9, p_w: 0.1}\n"
            "topology: {kind: interior_square, detect_probs: [0.9, 0.5, 0.3]}\n"
        )
        result = invoke(runner, "mp", "--scenario", str(path), "--sizes", "0.2,0.07", "--format", "csv")
        assert result.exit_code == 0
        rows = [line.split(",") for line in result.output.strip().splitlines()[1:]]
        assert len(rows) == 2
        for row, size in zip(rows, (0.2, 0.07)):
            assert float(row[2]) == size
            assert float(row[8]) == pytest.approx(size, abs=1e-12)  # solved_size
            assert float(row[10]) == pytest.approx(size, abs=1e-12)  # true_type1

    def test_no_sizes_is_an_error(self, runner, tmp_path):
        path = tmp_path / "nosizes.yaml"
        path.write_text(
            "schema: 1\n"
            "channel: {p_c: 0.9, p_w: 0.1}\n"
            "topology: {kind: interior_square, detect_probs: [0.9, 0.5, 0.3]}\n"
        )
        result = runner.invoke(main, ["mp", "--scenario", str(path)])
        assert result.exit_code == 1
        assert "sizes" in result.output

    def test_non_numeric_size_is_an_error(self, runner):
        result = runner.invoke(main, ["mp", "--scenario", GOOD, "--sizes", "0.1,abc"])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.output.startswith("error: ") and "abc" in result.output
        assert len(result.output.strip().splitlines()) == 1

    def test_weight_mode_flag_overrides_file(self, runner):
        result = invoke(
            runner, "mp", "--scenario", GOOD, "--weight-mode", "exact", "--format", "csv"
        )
        assert result.exit_code == 0
        rows = [line.split(",") for line in result.output.strip().splitlines()[1:]]
        assert rows[0][0] == "mp-tests (exact)"
        assert float(rows[0][3]) == pytest.approx(3.71357, abs=1e-5)
        assert float(rows[0][8]) == pytest.approx(0.1, abs=1e-12)

    def test_weight_mode_paper_approx_needs_block(self, runner, tmp_path):
        path = tmp_path / "noapprox.yaml"
        path.write_text(
            "schema: 1\n"
            "channel: {p_c: 0.9, p_w: 0.1}\n"
            "topology: {kind: interior_square, detect_probs: [0.9, 0.5, 0.3]}\n"
            "sizes: [0.1]\n"
        )
        result = runner.invoke(main, ["mp", "--scenario", str(path), "--weight-mode", "paper-approx"])
        assert result.exit_code == 1
        assert "approx" in result.output


class TestDistCommand:
    def test_atoms_and_cumulative(self, runner):
        result = invoke(runner, "dist", "--scenario", GOOD, "--format", "csv", "--under", "event")
        assert result.exit_code == 0
        rows = [line.split(",") for line in result.output.strip().splitlines()[1:]]
        values = [float(r[1]) for r in rows]
        assert values == sorted(values)
        assert float(rows[-1][3]) == pytest.approx(1.0, abs=1e-9)

    def test_normal_law(self, runner):
        result = invoke(runner, "dist", "--scenario", GOOD, "--format", "csv", "--under", "normal")
        rows = [line.split(",") for line in result.output.strip().splitlines()[1:]]
        # under the normal hypothesis the all-silent atom dominates
        assert float(rows[0][2]) > 0.3

    @pytest.mark.parametrize("under", ["event", "normal"])
    def test_exact_weights_at_p_w_zero(self, runner, tmp_path, under):
        path = tmp_path / "p_w0.yaml"
        path.write_text(Path(GOOD).read_text().replace("p_w: 0.1}", "p_w: 0.0}"))
        result = runner.invoke(main, ["dist", "--scenario", str(path), "--weight-mode", "exact", "--under", under])
        assert result.exit_code == 1
        assert result.output == ("error: class 'center': exact weights are infinite at p_w = 0 "
                                 "(an alarm is conclusive); use --weight-mode paper-approx\n")
        # the integer-approximated weights stay finite
        result = invoke(runner, "dist", "--scenario", str(path), "--weight-mode", "paper-approx", "--under", under)
        assert result.exit_code == 0 and result.output.startswith(f"# score-distribution under {under}")

    @pytest.mark.parametrize("under", ["event", "normal"])
    def test_certain_alarm_gives_mps_message(self, runner, tmp_path, under):
        path = tmp_path / "certain.yaml"
        text = Path(GOOD).read_text().replace("p_c: 0.9", "p_c: 1.0").replace("[0.9, 0.5", "[1.0, 0.5")
        path.write_text(text)
        mp = runner.invoke(main, ["mp", "--scenario", str(path), "--weight-mode", "exact"])
        dist = runner.invoke(main, ["dist", "--scenario", str(path), "--weight-mode", "exact", "--under", under])
        assert mp.exit_code == dist.exit_code == 1
        assert dist.output == mp.output
        assert dist.output.startswith("error: class 'center': alarm is certain under the event")


class TestSimulateCommand:
    def test_small_run_structure(self, runner, tmp_path):
        path = tmp_path / "sim.yaml"
        path.write_text(
            "schema: 1\n"
            "channel: {p_c: 0.9, p_w: 0.1}\n"
            "topology: {kind: interior_square, detect_probs: [0.9, 0.5, 0.3]}\n"
            "prior: {p_e: 0.1}\n"
            "loss_ratio: 5\n"
            "sizes: [0.1]\n"
            "simulation: {n_trials: 400, master_seed: 5}\n"
        )
        result = invoke(runner, "simulate", "--scenario", str(path), "--format", "csv")
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        header = lines[0].split(",")
        assert header[1:] == [
            "p_e", "statistic", "target", "empirical", "exact", "abs_delta",
            "numerator", "denominator",
        ]
        stats = {line.split(",")[2] for line in lines[1:]}
        assert stats == {
            "silent_given_event", "event_given_silent", "normal_given_alarm",
            "accept_given_event", "reject_given_normal",
        }
        # 3 node statistics x 3 classes + 2 rates x 2 tests
        assert len(lines) == 1 + 9 + 4

    def test_byte_identical_reruns(self, runner, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        for out in (out_a, out_b):
            result = invoke(
                runner, "simulate", "--scenario", GOOD, "--trials", "300",
                "--seed", "12", "--format", "csv", "--out", str(out),
            )
            assert result.exit_code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_requires_prior(self, runner, tmp_path):
        path = tmp_path / "noprior.yaml"
        path.write_text(
            "schema: 1\n"
            "channel: {p_c: 0.9, p_w: 0.1}\n"
            "topology: {kind: interior_square, detect_probs: [0.9, 0.5, 0.3]}\n"
        )
        result = runner.invoke(main, ["simulate", "--scenario", str(path)])
        assert result.exit_code == 1
        assert "prior" in result.output

    def test_stream_kernel_that_numpy_disagrees_with(self, runner, monkeypatch):
        # the first uniforms call in a process compares the kernel's draws with numpy's, pinned
        pinned = {key: (*draws[:2], np.nextafter(draws[2], 1.0)) for key, draws in _streams._PINNED_DRAWS.items()}
        monkeypatch.setattr(_streams, "_checked", False)
        monkeypatch.setattr(_streams, "_PINNED_DRAWS", pinned)
        result = runner.invoke(main, ["simulate", "--scenario", GOOD, "--trials", "20"])
        TestInvalidInputs().assert_one_error_line(
            result, f"under numpy {np.__version__} the simulator's stream kernel does not draw numpy's PCG64 stream")
        assert not _streams._checked

    @pytest.mark.parametrize("mode", ["exact", "paper-approx"])
    def test_solves_each_mp_size_once(self, runner, monkeypatch, mode):
        calls = []
        law = decision_tests.score_law_walk
        monkeypatch.setattr(decision_tests, "score_law_walk", lambda *a: calls.append(a) or law(*a))
        result = invoke(runner, "simulate", "--scenario", GOOD, "--trials", "300", "--weight-mode", mode,
                        "--format", "csv")
        assert result.exit_code == 0
        assert len(calls) == 1  # one event score law for every size and prior
        # every decision row equals that of MP rules solved afresh for each prior
        sf = g.load_scenario(GOOD).with_weight_mode(mode)
        want = []
        for prior in sf.priors():
            tests = [(f"bayes l={l:g}", g.bayes_test(sf.scenario, prior, g.LossRatio(l))) for l in sf.loss_ratios]
            tests += [(f"mp size={size:g}", g.solve_mp_test(sf.scenario, size, **sf.mp_overrides()))
                      for size in sf.sizes]
            report = g.run_trials(sf.scenario, prior, tests, 300, sf.simulation.master_seed)
            for (name, test), ts in zip(tests, report.test_stats):
                type1, power = g.operating_characteristics(test, sf.scenario)
                for stat, emp, exact, num, denom in (
                    ("accept_given_event", ts.accept_given_event, 1.0 - type1, ts.n_accept_event, ts.n_event),
                    ("reject_given_normal", ts.reject_given_normal, power, ts.n_reject_normal, ts.n_normal),
                ):
                    row = (prior.event_prob, stat, name, emp, exact, abs(emp - exact), num, denom)
                    want.append(",".join(map(format_cell, row)))
        got = [line.split(",", 1)[1] for line in result.output.splitlines()[1:]
               if line.split(",")[2] in ("accept_given_event", "reject_given_normal")]
        assert got == want and len(want) == 5 * 6 * 2


class TestEstimateCommand:
    def test_round_trip_table(self, runner, tmp_path):
        sc = g.load_scenario(GOOD).scenario
        logs = g.generate_trial_logs(sc, g.Condition.CONTROLLED_EVENT, 400, 31)
        logs += g.generate_trial_logs(sc, g.Condition.NORMAL, 400, 32)
        log_path = tmp_path / "logs.csv"
        g.write_log_file(log_path, logs)
        result = invoke(runner, "estimate", str(log_path), "--format", "csv")
        assert result.exit_code == 0
        rows = {r.split(",")[1]: r.split(",") for r in result.output.strip().splitlines()[1:]}
        assert set(rows) == {
            "p_detect[class 0]", "p_detect[class 1]", "p_detect[class 2]", "p_c", "p_w",
        }
        assert float(rows["p_detect[class 0]"][2]) == pytest.approx(0.9, abs=0.06)
        assert float(rows["p_w"][2]) == pytest.approx(0.1, abs=0.05)

    def test_bad_log_file(self, runner, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("not,a,log\n")
        result = runner.invoke(main, ["estimate", str(path)])
        assert result.exit_code == 1
        assert "header" in result.output

    @pytest.mark.parametrize("body, text", [
        ("", "log file contains no records"),
        ("event,1,0,0,0\nevent,2,1,0,1\n", "no detections in any log; cannot estimate the correct-response rate"),
    ], ids=["header-only", "no-detections"])
    def test_log_that_estimates_nothing(self, runner, tmp_path, body, text):
        path = tmp_path / "log.csv"
        path.write_text("condition,trial,class_index,detected,responded\n" + body)
        result = runner.invoke(main, ["estimate", str(path)])
        assert (result.exit_code, result.output) == (1, f"error: {text}\n")

    def test_missing_log_file(self, runner, tmp_path):
        path = tmp_path / "absent.csv"
        result = runner.invoke(main, ["estimate", str(path)])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.output.startswith("error: cannot read log file")
        assert len(result.output.strip().splitlines()) == 1


SCENARIO_COMMANDS = ["errors", "bayes", "mp", "dist", "simulate"]


class TestFloatExtremes:
    """Priors and loss ratios at the ends of the float range: every (p_e, l) pair of the sweep
    runs, on a p_w > 0 channel and on a p_w = 0 channel, under each YAML loader."""

    @pytest.mark.parametrize("loader", YAML_LOADERS, ids=lambda loader: loader.__name__)
    @pytest.mark.parametrize("p_w", [0.1, 0.0])
    @pytest.mark.parametrize("command", ["errors", "bayes", "simulate"])
    def test_exits_zero_with_empty_stderr(self, runner, tmp_path, monkeypatch, loader, p_w, command):
        monkeypatch.setattr(scenario_io, "_LOADER", loader)
        path = tmp_path / "extremes.yaml"
        path.write_text(yaml.safe_dump({
            "schema": 1,
            "channel": {"p_c": 0.9, "p_w": p_w},
            "topology": {"kind": "interior_square", "detect_probs": [0.9, 0.5, 0.3]},
            "prior": {"p_e": [0.9999999999999999, 1e-300, 0.5, 5e-324]},
            "loss_ratio": [1e308, 1e-300, 1e-10, 5.0],
            "sizes": [0.1],
            "simulation": {"n_trials": 100000, "master_seed": 7},
        }))
        args = [command, "--scenario", str(path)] + (["--trials", "50"] if command == "simulate" else [])
        result = runner.invoke(main, args)
        assert (result.exit_code, result.stderr) == (0, ""), result.exception
        if command == "bayes" and p_w > 0.0:  # a finite threshold for every pair
            assert "inf" not in result.stdout and "nan" not in result.stdout


    @pytest.mark.parametrize("p_w", [5e-324, 1e-310])
    @pytest.mark.parametrize("command", SCENARIO_COMMANDS)
    def test_subnormal_p_w(self, runner, tmp_path, p_w, command):
        # the score weights' odds quotient divides by 0 at 5e-324 and overflows at 1e-310
        path = tmp_path / "subnormal.yaml"
        path.write_text(yaml.safe_dump({
            "schema": 1,
            "channel": {"p_c": 0.9, "p_w": p_w},
            "topology": {"kind": "interior_square", "detect_probs": [0.9, 0.7, 0.5]},
            "prior": {"p_e": [0.2, 0.5]},
            "loss_ratio": [5.0],
            "sizes": [0.05],
            "simulation": {"n_trials": 50, "master_seed": 7},
        }))
        result = runner.invoke(main, [command, "--scenario", str(path)])
        assert (result.exit_code, result.stderr) == (0, ""), result.exception


class TestInvalidInputs:
    def assert_one_error_line(self, result, text):
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.output.startswith("error: ") and text in result.output
        assert len(result.output.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", SCENARIO_COMMANDS)
    def test_alarm_probability_that_rounds_to_p_w(self, runner, tmp_path, command):
        path = tmp_path / "rounded.yaml"
        path.write_text(
            "schema: 1\n"
            "channel: {p_c: 1.0e-300, p_w: 5.0e-324}\n"
            "topology: {kind: custom, classes: [{count: 1, p_detect: 1.0e-300}, {count: 2, p_detect: 1.0e-301}]}\n"
            "prior: {p_e: [0.5]}\n"
        )
        result = runner.invoke(main, [command, "--scenario", str(path)])
        self.assert_one_error_line(result, "topology: class 'class-1': alarm probability 5e-324")

    @pytest.mark.parametrize("fields, message", REFUSED_FIELDS, ids=[m.split(":")[0] for _, m in REFUSED_FIELDS])
    def test_refused_field(self, runner, tmp_path, fields, message):
        path = tmp_path / "refused.yaml"
        path.write_text(minimal_document(**fields))
        result = runner.invoke(main, ["errors", "--scenario", str(path)])
        assert (result.exit_code, result.output) == (1, f"error: {path}: {message}\n")

    @pytest.mark.parametrize("command", ["bayes", "mp", "dist"])
    def test_oversized_cell(self, runner, tmp_path, command):
        path = tmp_path / "huge.yaml"
        path.write_text(
            "schema: 1\n"
            "channel: {p_c: 0.9, p_w: 0.1}\n"
            "topology:\n"
            "  kind: custom\n"
            "  classes:\n"
            "    - {label: far, count: 100000000000000000000, p_detect: 0.9}\n"
            "    - {label: near, count: 2, p_detect: 0.4}\n"
            "prior: {p_e: [0.1]}\n"
            "loss_ratio: [5]\n"
            "sizes: [0.1]\n"
        )
        result = runner.invoke(main, [command, "--scenario", str(path)])
        self.assert_one_error_line(result, "count tuples")

    @pytest.mark.parametrize("command", ["bayes", "mp", "dist"])
    def test_class_too_large_for_binomial_law(self, runner, tmp_path, command):
        # few count tuples, but comb(2000, x) overflows a float
        path = tmp_path / "wide.yaml"
        path.write_text(
            "schema: 1\n"
            "channel: {p_c: 0.9, p_w: 0.1}\n"
            "topology:\n"
            "  kind: custom\n"
            "  classes:\n"
            "    - {label: near, count: 2, p_detect: 0.9}\n"
            "    - {label: far, count: 2000, p_detect: 0.4}\n"
            "prior: {p_e: [0.1]}\n"
            "loss_ratio: [5]\n"
            "sizes: [0.1]\n"
        )
        result = runner.invoke(main, [command, "--scenario", str(path)])
        self.assert_one_error_line(result, "class 1: count 2000 is too large")

    @pytest.mark.parametrize("command", ["errors", "bayes", "mp", "dist", "simulate"])
    def test_overflowing_approx_weights(self, runner, tmp_path, command):
        # every weight is finite, but the all-alarm score is not: no rule or score law exists
        path = tmp_path / "overflow.yaml"
        text = Path(GOOD).read_text().replace("weights: [5, 3, 2]", "weights: [1.0e+308, 1.0e+308, 1.0e+308]")
        path.write_text(text)
        result = runner.invoke(main, [command, "--scenario", str(path)])
        self.assert_one_error_line(result, "approx.weights: weights too large")

    def test_oversized_simulation(self, runner, tmp_path):
        # Bayes rules only, so no count-tuple grid is built before the trials
        path = tmp_path / "huge.yaml"
        path.write_text(
            "schema: 1\n"
            "channel: {p_c: 0.9, p_w: 0.1}\n"
            "topology:\n"
            "  kind: custom\n"
            "  classes:\n"
            "    - {label: far, count: 100000000000000000000, p_detect: 0.9}\n"
            "    - {label: near, count: 2, p_detect: 0.4}\n"
            "prior: {p_e: [0.1]}\n"
            "loss_ratio: [5]\n"
        )
        result = runner.invoke(main, ["simulate", "--scenario", str(path)])
        self.assert_one_error_line(result, "100000000000000000002 sensors")

    @pytest.mark.parametrize(
        "command, name, body, text",
        [
            ("errors", "mixed.yaml", b"schema: 1\n1: x\nfoo: y\n", "unknown key(s) 1, 'foo'"),
            ("errors", "latin1.yaml", "schema: 1\nchannel: {p_c: 0.9}  # \xe9\n".encode("latin-1"),
             "cannot read scenario file"),
            ("estimate", "latin1.csv",
             "condition,trial,class_index,detected,responded\nnormal,\xe9,0,0,0\n".encode("latin-1"),
             "cannot read log file"),
            ("estimate", "long.csv",
             b"condition,trial,class_index,detected,responded\nnormal,1,0,0," + b"0" * 131073 + b"\n",
             "field larger than field limit"),
            ("errors", "long.yaml", b"#" * scenario_io.MAX_SCENARIO_BYTES + b"\n", "larger than 1048576 bytes"),
        ],
        ids=["mixed-key-types", "non-utf8-scenario", "non-utf8-log", "overlong-csv-field", "oversized-scenario"],
    )
    def test_unreadable_input(self, runner, tmp_path, command, name, body, text):
        path = tmp_path / name
        path.write_bytes(body)
        args = [command, str(path)] if command == "estimate" else [command, "--scenario", str(path)]
        self.assert_one_error_line(runner.invoke(main, args), text)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs here")
    def test_fifo_scenario_is_refused_without_opening_it(self, tmp_path):
        fifo = tmp_path / "scenario.yaml"
        os.mkfifo(fifo)
        result = run_process(["errors", "--scenario", str(fifo)], subprocess.PIPE)  # a blocked open times out
        assert (result.returncode, result.stderr) == (
            1, f"error: cannot read scenario file {fifo}: it is a FIFO, not a regular file\n")

    def test_yaml_syntax_error_is_one_line(self, runner, tmp_path, monkeypatch):
        path = tmp_path / "broken.yaml"
        path.write_text("a: [1")
        for loader in YAML_LOADERS:
            monkeypatch.setattr(scenario_io, "_LOADER", loader)
            result = runner.invoke(main, ["errors", "--scenario", str(path)])
            assert result.exit_code == 1
            assert len(result.stderr.splitlines()) == 1
            assert result.stderr.startswith("error: ") and "invalid YAML" in result.stderr
            # the mark names the file, with no source snippet or caret
            assert f'in "{path}", line 1, column 4' in result.stderr and "^" not in result.stderr

    @pytest.mark.parametrize("loader", YAML_LOADERS, ids=lambda loader: loader.__name__)
    @pytest.mark.parametrize(
        "line, text",
        [
            ("schema: " + "1" * 5000, "invalid YAML value: Exceeds the limit (4300 digits)"),
            ("created: 2020-13-45", "invalid YAML value: month must be in 1..12"),
        ],
        ids=["5000-digit-int", "impossible-date"],
    )
    def test_scalar_the_yaml_constructor_refuses(self, runner, tmp_path, monkeypatch, loader, line, text):
        # PyYAML converts ints and dates while loading, and raises ValueError
        monkeypatch.setattr(scenario_io, "_LOADER", loader)
        path = tmp_path / "scalar.yaml"
        path.write_text(f"{line}\nchannel: {{p_c: 0.9, p_w: 0.1}}\n")
        result = runner.invoke(main, ["errors", "--scenario", str(path)])
        self.assert_one_error_line(result, f"{path}: {text}")

    @pytest.mark.parametrize("loader", YAML_LOADERS, ids=lambda loader: loader.__name__)
    @pytest.mark.parametrize("depth", [2000, 60000])
    @pytest.mark.parametrize("style", ["flow", "block"])
    def test_deep_nesting(self, runner, tmp_path, monkeypatch, loader, depth, style):
        # libyaml composes by unbounded C recursion (a segfault at tens of
        # thousands of levels), PyYAML's composer by Python recursion
        monkeypatch.setattr(scenario_io, "_LOADER", loader)
        path = tmp_path / "deep.yaml"
        nested = "[" * depth + "]" * depth if style == "flow" else "\n  " + "- " * depth + "1"
        path.write_text(f"channel: {nested}\n")
        result = runner.invoke(main, ["errors", "--scenario", str(path)])
        assert result.exit_code == 1
        assert result.stderr == f"error: {path}: nested deeper than 32 levels\n"

    @pytest.mark.parametrize("loader", YAML_LOADERS, ids=lambda loader: loader.__name__)
    @pytest.mark.parametrize("text", ["schema: 1\nchannel: {p_c: 0.9\n", "channel: [1, 2\n", "a: b: c\n"])
    def test_syntax_error_under_the_nesting_bound(self, runner, tmp_path, monkeypatch, loader, text):
        # too few indicators to nest past the bound: the loader, not the guard, meets the error
        monkeypatch.setattr(scenario_io, "_LOADER", loader)
        path = tmp_path / "broken.yaml"
        path.write_text(text)
        result = runner.invoke(main, ["errors", "--scenario", str(path)])
        self.assert_one_error_line(result, f"{path}: invalid YAML: ")
        assert len(result.stderr.splitlines()) == 1

    def test_aliased_value_message_is_bounded(self, runner, tmp_path):
        # 10 aliases per level: the full repr of weights[0] is 52 KB at 4 levels
        levels = ["&a0 [" + ", ".join(["x"] * 10) + "]"]
        levels += [f"&a{i} [" + ", ".join([f"*a{i - 1}"] * 10) + "]" for i in range(1, 4)]
        path = tmp_path / "aliases.yaml"
        path.write_text(
            "schema: 1\n"
            "channel: {p_c: 0.9, p_w: 0.1}\n"
            "topology: {kind: interior_square, detect_probs: [0.9, 0.5, 0.3]}\n"
            "weight_mode: paper_approx\n"
            f"approx:\n  alarm_probs: [{', '.join(levels)}]\n  weights: [*a3, 1, 1]\n"
        )
        assert len(path.read_bytes()) < 400
        result = runner.invoke(main, ["errors", "--scenario", str(path)])
        self.assert_one_error_line(result, "approx.weights[0]: expected a number, got [[[['x', 'x'")
        assert len(result.stderr.encode()) < 1024

    @pytest.mark.parametrize(
        "topology, text",
        [
            ("{kind: custom, classes: [{label: *a59, count: 1, p_detect: 0.9}, {count: 2, p_detect: 0.3}]}",
             "topology.classes[0].label: expected a string, got [[[[[...]]]]]"),
            ("{kind: interior_square, detect_probs: [*a59, 0.5, 0.3]}",
             "topology.detect_probs[0]: expected a number, got [[[[[...]]]]]"),
        ],
        ids=["label", "number"],
    )
    def test_aliased_value_nested_past_the_recursion_limit(self, runner, tmp_path, topology, text):
        # each anchor nests the previous one 25 levels down: 1500 levels, none over the nesting bound
        anchors = ["&a0 " + "[" * 25 + "]" * 25]
        anchors += [f"&a{i} " + "[" * 25 + f"*a{i - 1}" + "]" * 25 for i in range(1, 60)]
        path = tmp_path / "aliases.yaml"
        path.write_text(
            "schema: 1\nchannel: {p_c: 0.9, p_w: 0.1}\nsizes:\n"
            + "".join(f"  - {anchor}\n" for anchor in anchors)
            + f"topology: {topology}\n"
        )
        self.assert_one_error_line(runner.invoke(main, ["errors", "--scenario", str(path)]), text)

    @pytest.mark.parametrize(
        "labels, text",
        [
            (["near", "near"], "topology.classes[1].label: 'near' repeats topology.classes[0].label"),
            (["near\nfar", "far"], "topology.classes[0].label: expected one non-empty line, got 'near\\nfar'"),
            (["class-2", None], "topology.classes[1].label: 'class-2' repeats topology.classes[0].label"),
        ],
        ids=["repeated", "two-lines", "default-taken"],
    )
    def test_label_that_would_break_a_table_row(self, runner, tmp_path, labels, text):
        classes = [{"label": label, "count": 2, "p_detect": p} for label, p in zip(labels, (0.9, 0.4))]
        path = tmp_path / "labels.yaml"
        path.write_text(yaml.safe_dump(
            {"schema": 1, "channel": {"p_c": 0.9, "p_w": 0.1}, "topology": {"kind": "custom", "classes": classes}}
        ))
        self.assert_one_error_line(runner.invoke(main, ["errors", "--scenario", str(path)]), text)

    def test_out_into_missing_directory(self, runner, tmp_path):
        out = tmp_path / "missing" / "x.txt"
        result = runner.invoke(main, ["mp", "--scenario", GOOD, "--out", str(out)])
        self.assert_one_error_line(result, str(out))
        assert not out.exists()


class TestOutputStreams:
    """Tables are written row by row into stdout or the --out file, as the same bytes."""

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full device")
    @pytest.mark.parametrize("args", [["mp"], ["dist", "--format", "csv"]], ids=["text", "csv"])
    def test_failed_write_is_one_error_line(self, runner, args):
        result = runner.invoke(main, args + ["--scenario", GOOD, "--out", "/dev/full"])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot write /dev/full: "), result.stderr

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full device")
    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", sorted(PROCESS_COMMANDS))
    def test_failed_stdout_write_is_one_error_line(self, command, buffered):
        with open("/dev/full", "w") as full:
            result = run_process(PROCESS_COMMANDS[command], full, buffered)
        assert (result.returncode, result.stderr) == (1, "error: cannot write stdout: No space left on device\n")

    @pytest.mark.parametrize("command", ["dist", "estimate"])
    def test_closed_pipe_exits_1_in_silence(self, command):
        # click turns EPIPE into exit 1; `| head` must not print an error
        read, write = os.pipe()
        os.close(read)
        with os.fdopen(write, "w") as closed:
            result = run_process(PROCESS_COMMANDS[command], closed)
        assert (result.returncode, result.stderr) == (1, "")

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    @pytest.mark.parametrize("command", ["dist", "errors"])
    @pytest.mark.parametrize("label", ["near", "near\x1b[31m"], ids=["plain", "ansi"])
    def test_stdout_and_out_give_the_same_bytes(self, runner, tmp_path, fmt, command, label):
        path = tmp_path / "s.yaml"
        path.write_text(yaml.safe_dump({
            "schema": 1,
            "channel": {"p_c": 0.9, "p_w": 0.1},
            "topology": {"kind": "custom", "classes": [
                {"label": label, "count": 2, "p_detect": 0.9}, {"label": "far", "count": 3, "p_detect": 0.4}]},
            "prior": {"p_e": [0.2]},
        }))
        args = [command, "--scenario", str(path), "--format", fmt]
        result = invoke(runner, *args)
        out = tmp_path / "table"
        invoke(runner, *args, "--out", str(out))
        assert result.exit_code == 0 and result.stderr == ""
        assert result.stdout_bytes == out.read_bytes()
        if command == "errors":  # an escape sequence in a label is kept, not stripped
            assert label.encode() in result.stdout_bytes


class TestBenchmarkTraceTargets:
    def test_every_trace_target_resolves(self):
        # bench/run.py wraps these module attributes under --trace 1; a rename
        # here would leave a span silently empty
        spec = importlib.util.spec_from_file_location("bench_run", SCENARIOS.parent / "bench" / "run.py")
        bench_run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench_run)
        targets = bench_run.trace_targets()
        assert targets
        for module, attr, *_ in targets:
            assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


class TestTextRendering:
    def test_text_mode_aligns_and_writes_out(self, runner, tmp_path):
        out = tmp_path / "mp.txt"
        result = invoke(runner, "mp", "--scenario", GOOD, "--out", str(out))
        assert result.exit_code == 0
        text = out.read_text()
        assert text.startswith("# mp-tests (paper_approx)")
        assert re.search(r"\balpha_printed\b", text)
        assert "0.038233" in text  # six significant digits

    def test_six_significant_digits(self, runner):
        result = invoke(runner, "errors", "--scenario", GOOD)
        assert "0.0217391" in result.output


class TestVersion:
    def test_version_from_source_tree(self, runner):
        result = invoke(runner, "--version")
        assert result.exit_code == 0
        assert "0.1.0" in result.output


class TestStoredParse:
    """Each command's parameter list and option parser are built once per process and reused."""

    MP = ["mp", "--scenario", GOOD]

    def test_help_twice_is_unchanged(self):
        assert help_text() == help_text() == HELP_GOLDEN.read_text()

    def test_usage_error_after_a_good_parse(self, runner):
        good = invoke(runner, *self.MP)
        assert good.exit_code == 0
        result = runner.invoke(main, ["mp", "--bogus"], prog_name="griddetect")
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == ("Usage: griddetect mp [OPTIONS]\n"
                                 "Try 'griddetect mp --help' for help.\n\n"
                                 "Error: No such option '--bogus'. Did you mean '--out'?\n")
        assert invoke(runner, *self.MP).output == good.output

    def test_version_after_a_command(self, runner):
        assert invoke(runner, *self.MP).exit_code == 0
        result = invoke(runner, "--version")
        assert (result.exit_code, result.output) == (0, "griddetect, version 0.1.0\n")

    def test_other_help_option_names(self, runner, capsys):
        def default_parse():
            result = runner.invoke(main, ["mp", "-h"])
            assert result.exit_code == 2
            assert "No such option '-h'." in result.stderr

        default_parse()
        assert main.main(["mp", "-h"], prog_name="griddetect", help_option_names=["-h"], standalone_mode=False) == 0
        assert capsys.readouterr().out.startswith("Usage: griddetect mp [OPTIONS]\n")
        default_parse()
        assert invoke(runner, "mp", "--help").exit_code == 0

    def test_each_thread_gets_its_own_parser(self):
        command = main.commands["mp"]
        contexts = [click.Context(command, info_name="mp", parent=click.Context(main)) for _ in range(2)]
        parsers = [None, None]

        def parse(i):
            parsers[i] = command.make_parser(contexts[i])

        threads = [threading.Thread(target=parse, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert parsers[0] is not parsers[1]
        assert all(parser.ctx is ctx for parser, ctx in zip(parsers, contexts))

    def test_each_command_builds_its_parser_once(self, monkeypatch, capsys):
        # help option names no other test uses, so that the first invocation must build
        builds = {"make_parser": [], "get_params": []}

        def counting(hook):
            inner = getattr(click.Command, hook)
            return lambda self, ctx: builds[hook].append(self.name) or inner(self, ctx)

        for hook in builds:
            monkeypatch.setattr(click.Command, hook, counting(hook))
        for name in main.commands:
            for _ in range(3):
                assert main.main([name, "-?"], help_option_names=["-?"], standalone_mode=False) == 0
        capsys.readouterr()
        want = sorted([main.name, *main.commands])
        assert {hook: sorted(names) for hook, names in builds.items()} == {"make_parser": want, "get_params": want}
