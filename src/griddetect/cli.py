"""Command-line front end: load a scenario file, run an analysis, emit tables.

Each scenario command is a body that turns a loaded scenario file (see
scenario_io for the schema) into a Table; ``_table_command`` registers it,
loads the file, resolves --weight-mode (the one place the CLI does) and
writes the table. ``estimate`` reads a calibration log instead. Every
command writes to stdout or --out in text or CSV form and exits 0 on
success. Invalid input (a DomainError from any layer) prints one
``error: ...`` line on stderr and exits 1; a click usage error exits 2.
Any other exception is a bug and propagates with its traceback.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .decision_tests import (  # solve_mp_test is not called here; the benchmark traces cli.solve_mp_test
    _mp_law,
    bayes_test,
    operating_characteristics,
    solve_mp_test,
    solve_mp_tests,
)
from .estimation import (
    Condition,
    estimate_correct_response,
    estimate_detection,
    estimate_false_response,
    read_log_file,
)
from .model import DomainError, LossRatio
from .node_errors import node_error_report
from .scenario_io import ScenarioFile, load_scenario
from .score_dist import score_distribution
from .simulator import GENERATOR_NAME, run_sweep
from .simulator import run_trials  # not called here; the benchmark traces cli.run_trials
from .tables import Table, render


class _Choice(click.Choice):
    """Returns a value equal to a choice as it is, without the mapping click >= 8.2 rebuilds per call; else click's."""

    def convert(self, value, param, ctx):
        return value if value in self.choices else super().convert(value, param, ctx)


_FORMAT = click.option(
    "--format", "fmt", type=_Choice(["text", "csv"]), default="text", show_default=True,
    help="Output format.",
)
_OUT = click.option(
    "--out", type=click.Path(dir_okay=False, writable=True, path_type=Path), default=None,
    help="Write output to a file instead of stdout.",
)
_SCENARIO = click.option(
    "--scenario", "scenario_path", required=True,
    type=click.Path(exists=False, dir_okay=False, path_type=Path),
    help="Scenario file (YAML, schema 1).",
)
_WEIGHT_MODE = click.option(
    "--weight-mode", "weight_mode", type=_Choice(["exact", "paper-approx"]),
    default=None, help="Override the scenario file's weight mode.",
)


def _emit(table: Table, fmt: str, out: Path | None) -> None:
    """Render the table straight into stdout or the --out file, as the same bytes.

    A closed pipe (EPIPE) is left to click, which exits 1 with nothing on stderr."""
    try:
        if out is None:
            render(table, fmt, sys.stdout)
            sys.stdout.flush()
            return
        with out.open("w") as stream:
            render(table, fmt, stream)
    except BrokenPipeError:
        raise
    except OSError as exc:
        if out is None:  # what stdout still buffers goes to the null device, so the flush at exit succeeds
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise DomainError(f"cannot write {out or 'stdout'}: {exc.strerror or exc}") from exc


class _Commands(click.Group):
    """The command group: the one place a DomainError becomes ``error: ...`` and exit 1."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except DomainError as exc:
            message = " ".join(filter(None, (line.strip() for line in str(exc).splitlines())))
            click.echo(f"error: {message}", err=True)
            sys.exit(1)


@click.group(cls=_Commands)
@click.version_option(version=__version__, prog_name="griddetect")
def main() -> None:
    """Exact decision tests and simulation for sensor-grid event detection."""


def _table_command(name: str, *options):
    """Register ``body(sf, **own) -> Table`` as a command taking --scenario, --format, --out, *options.

    The command loads the scenario, applies --weight-mode (None where it has none) and writes the
    table; load_scenario and render are looked up when it runs, where the benchmark's tracer wraps them."""
    def register(body):
        def command(scenario_path: Path, fmt: str, out: Path | None, weight_mode: str | None = None, **own):
            _emit(body(load_scenario(scenario_path).with_weight_mode(weight_mode), **own), fmt, out)
        command.__doc__ = body.__doc__
        for option in reversed((_SCENARIO, _FORMAT, _OUT) + options):
            command = option(command)
        return main.command(name)(command)
    return register


@_table_command("errors")
def cmd_errors(sf: ScenarioFile) -> Table:
    """Per-sensor error probabilities and posteriors over the prior sweep."""
    rows = []
    for prior in sf.priors():
        report = node_error_report(sf.scenario, prior)
        for i, label in enumerate(report.labels):
            rows.append(
                (
                    prior.event_prob,
                    label,
                    report.type1[i],
                    report.type2[i],
                    report.event_given_silent[i],
                    report.normal_given_alarm[i],
                )
            )
    columns = ("p_e", "class", "type1_silent_given_event", "type2_alarm_given_normal",
               "event_given_silent", "normal_given_alarm")
    return Table.from_rows("node-errors", columns, rows)


@_table_command("bayes")
def cmd_bayes(sf: ScenarioFile) -> Table:
    """Bayes rules for every (prior, loss ratio) pair in the scenario."""
    k = len(sf.scenario.topology.classes)
    rows = []
    for prior in sf.priors():
        for l in sf.loss_ratios:
            test = bayes_test(sf.scenario, prior, LossRatio(l))
            ops = operating_characteristics(test, sf.scenario)
            rows.append(
                (prior.event_prob, l)
                + tuple(test.weights)
                + (test.threshold, test.applicable, ops.type1, ops.power)
            )
    columns = (("p_e", "loss_ratio") + tuple(f"weight_{i + 1}" for i in range(k))
               + ("threshold", "applicable", "exact_type1", "exact_power"))
    return Table.from_rows("bayes-tests", columns, rows)


@_table_command("mp", _WEIGHT_MODE, click.option(
    "--sizes", "sizes_arg", default=None, help="Comma-separated test sizes overriding the scenario file."))
def cmd_mp(sf: ScenarioFile, sizes_arg: str | None) -> Table:
    """Most-powerful tests for each size; alpha column shows 1 - size."""
    sizes = sf.sizes
    if sizes_arg is not None:
        try:
            sizes = tuple(float(s) for s in sizes_arg.split(","))
        except ValueError:
            raise DomainError(f"--sizes must be comma-separated numbers, got {sizes_arg!r}") from None
    if not sizes:
        raise DomainError("no test sizes given (scenario sizes: or --sizes)")
    k = len(sf.scenario.topology.classes)
    rows = []
    for size, test in zip(sizes, solve_mp_tests(sf.scenario, sizes, **sf.mp_overrides())):
        ops = operating_characteristics(test, sf.scenario)
        rows.append(
            (1.0 - size, size)
            + tuple(test.weights)
            + (test.threshold, test.boundary_prob, test.exact_size,
               test.exact_power, ops.type1, ops.power)
        )
    columns = (("alpha_printed", "size") + tuple(f"weight_{i + 1}" for i in range(k))
               + ("threshold", "boundary_prob", "solved_size", "solved_power", "true_type1", "true_power"))
    return Table.from_rows(f"mp-tests ({sf.weight_mode})", columns, rows)


@_table_command("dist", _WEIGHT_MODE, click.option(
    "--under", type=_Choice(["event", "normal"]), default="event",
    show_default=True, help="Hypothesis for the alarm law."))
def cmd_dist(sf: ScenarioFile, under: str) -> Table:
    """Dump the exact score distribution for debugging."""
    if sf.weight_mode == "exact" and sf.scenario.channel.silent_when_undetected:
        raise DomainError(f"class {sf.scenario.topology.classes[0].label!r}: exact weights are infinite at p_w = 0 "
                          "(an alarm is conclusive); use --weight-mode paper-approx")
    weights, event_law = _mp_law(sf.scenario, **sf.mp_overrides())
    dist = score_distribution(weights, event_law if under == "event" else sf.scenario.derived().normal_law)
    # cumsum adds the masses one by one, as a running sum does
    cells = (dist.values, dist.probs, np.cumsum(dist.probs), np.diff(dist.starts, append=len(dist.order)))
    return Table(
        title=f"score-distribution under {under} ({sf.weight_mode})",
        columns=("value", "prob", "cumulative", "n_count_tuples"),
        cells=tuple(c.tolist() for c in cells),
    )


@_table_command("simulate", _WEIGHT_MODE,
                click.option("--trials", type=int, default=None, help="Override simulation.n_trials."),
                click.option("--seed", type=int, default=None, help="Override simulation.master_seed."))
def cmd_simulate(sf: ScenarioFile, trials: int | None, seed: int | None) -> Table:
    """Monte Carlo runs per prior with empirical vs exact columns."""
    if not sf.event_priors:
        raise DomainError("simulation needs a prior sweep (prior.p_e)")
    n_trials = trials if trials is not None else sf.simulation.n_trials
    master_seed = seed if seed is not None else sf.simulation.master_seed
    # MP rules do not depend on the prior: solved, and their rates found, once for every prior
    mp_tests = [(f"mp size={size:g}", test)
                for size, test in zip(sf.sizes, solve_mp_tests(sf.scenario, sf.sizes, **sf.mp_overrides()))]
    mp_ops = [operating_characteristics(test, sf.scenario) for _, test in mp_tests]
    sweep = [(prior, [(f"bayes l={l:g}", bayes_test(sf.scenario, prior, LossRatio(l))) for l in sf.loss_ratios])
             for prior in sf.priors()]
    # every prior reads the same trials: one sweep computes each block of their streams once
    reports = run_sweep(sf.scenario, [(prior, bayes + mp_tests) for prior, bayes in sweep], n_trials, master_seed)
    rows = []
    for (prior, bayes), report in zip(sweep, reports):
        tests = bayes + mp_tests
        errors = node_error_report(sf.scenario, prior)
        for i, cs in enumerate(report.class_stats):
            for stat, emp, exact, num, denom in (
                ("silent_given_event", cs.silence_rate_event, errors.type1[i],
                 cs.n_event_silent, cs.n_event_records),
                ("event_given_silent", cs.event_given_silent, errors.event_given_silent[i],
                 cs.n_first_silent_event, cs.n_first_silent),
                ("normal_given_alarm", cs.normal_given_alarm, errors.normal_given_alarm[i],
                 cs.n_first_alarm_normal, cs.n_first_alarm),
            ):
                rows.append((prior.event_prob, stat, cs.label, emp, exact,
                             abs(emp - exact), num, denom))
        all_ops = [operating_characteristics(test, sf.scenario) for _, test in bayes] + mp_ops
        for (name, _), ts, ops in zip(tests, report.test_stats, all_ops):
            rows.append((prior.event_prob, "accept_given_event", name,
                         ts.accept_given_event, 1.0 - ops.type1,
                         abs(ts.accept_given_event - (1.0 - ops.type1)),
                         ts.n_accept_event, ts.n_event))
            rows.append((prior.event_prob, "reject_given_normal", name,
                         ts.reject_given_normal, ops.power,
                         abs(ts.reject_given_normal - ops.power),
                         ts.n_reject_normal, ts.n_normal))
    title = (f"simulation n_trials={n_trials} master_seed={master_seed} "
             f"rng={GENERATOR_NAME} weights={sf.weight_mode}")
    columns = ("p_e", "statistic", "target", "empirical", "exact", "abs_delta", "numerator", "denominator")
    return Table.from_rows(title, columns, rows)


@main.command("estimate")
@click.argument("log_file", type=click.Path(exists=False, dir_okay=False, path_type=Path))
@_FORMAT
@_OUT
def cmd_estimate(log_file: Path, fmt: str, out: Path | None) -> None:
    """Parameter estimates with standard errors from a calibration log file.

    LOG_FILE is CSV with header condition,trial,class_index,detected,responded;
    one sensor record per line, records sharing a trial id form one trial.
    """
    logs = read_log_file(log_file)
    event_logs = [lg for lg in logs if lg.condition is Condition.CONTROLLED_EVENT]
    normal_logs = [lg for lg in logs if lg.condition is Condition.NORMAL]
    rows = []
    if event_logs:
        for ci, est in estimate_detection(event_logs).items():
            rows.append((f"p_detect[class {ci}]", est.value, est.std_error, est.n_logs))
        est = estimate_correct_response(event_logs)
        rows.append(("p_c", est.value, est.std_error, est.n_logs))
    if normal_logs:
        est = estimate_false_response(normal_logs)
        rows.append(("p_w", est.value, est.std_error, est.n_logs))
    if not rows:
        raise DomainError("log file contains no usable records")
    _emit(Table.from_rows("parameter-estimates", ("parameter", "estimate", "std_error", "n_logs"), rows), fmt, out)


if __name__ == "__main__":
    main()
