"""The benchmark's three workloads.

A workload builds its inputs from the seed in set-up; ``ops()`` is one
cycle of (key, op) pairs, which the runner repeats. The cycle's structure
does not depend on the seed, so per-op cost is comparable across seeds. An op
calls griddetect only through its public functions, looked up on their
modules at call time so that a tracer can wrap them. ``check`` runs after
the timed phase on the first output seen for each key; later outputs for
the same key must equal that one.

sim-interior: one ``run_trials`` block per op, on both shipped networks
    and a generated p_w = 0 interior scenario, every prior of each sweep,
    with the six tests ``griddetect simulate`` builds. Every block is
    replayed trial by trial in the check.
exact-wide: one rule design per op (``solve_mp_test``, ``bayes_test``,
    ``operating_characteristics`` for both) on custom cells of 3 to 6
    classes of 6 sensors, with exact and with integer weights.
table-sweep: the errors, bayes, mp, dist and estimate commands, run
    in-process through ``griddetect.cli.main``, on generated small
    scenario files; the shipped tables are regenerated against ``out/``.

Each cycle holds at least 100 distinct ops, so that the 90th percentile
of op time has ten samples above it.
"""

from __future__ import annotations

import csv
import functools
import io
import random
import re
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

import click

import oracle
from griddetect import cli, decision_tests, simulator
from griddetect.estimation import Condition, generate_trial_logs, write_log_file
from griddetect.model import ChannelModel, LossRatio, Prior, builtin_topology, validate
from griddetect.scenario_io import load_scenario

ROOT = Path(__file__).resolve().parents[1]
PRIOR_SWEEP = (0.1, 0.2, 0.3, 0.4, 0.5)


def _decreasing(rng: random.Random, k: int, low: float = 0.1, high: float = 0.95) -> list[float]:
    """k distinct detection probabilities in descending order."""
    probs: set[float] = set()
    while len(probs) < k:
        probs.add(round(rng.uniform(low, high), 3))
    return sorted(probs, reverse=True)


def _int_weights(weights) -> list[int]:
    w_min = min(weights)
    return [max(1, round(3 * w / w_min)) for w in weights]


def _yaml_list(values) -> str:
    return "[" + ", ".join(repr(v) for v in values) + "]"


class Workload:
    name = ""
    tracer = None  # a spans.Tracer while the traced phase runs

    def ops(self) -> list:
        raise NotImplementedError

    def check(self, key, output) -> list[str]:
        raise NotImplementedError

    def extra_checks(self) -> list[tuple[str, bool]]:
        """Checks that are not tied to a timed op: (name, passed)."""
        return []

    def labels(self, ops_per_s: float) -> dict[str, float]:
        """Figures printed for reading, not reported as metrics, from unscaled ops per second."""
        return {}


class SimInterior(Workload):
    name = "sim-interior"
    block_trials = 250
    blocks_per_pair = 7

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = random.Random(f"{self.name}/{seed}")
        p_c = round(rng.uniform(0.6, 0.95), 3)
        pw0 = workdir / "interior_pw0.yaml"
        pw0.write_text(
            "schema: 1\n"
            f"channel: {{p_c: {p_c}, p_w: 0.0}}\n"
            f"topology: {{kind: interior_square, detect_probs: {_yaml_list(_decreasing(rng, 3))}}}\n"
            f"prior: {{p_e: {_yaml_list(PRIOR_SWEEP)}}}\n"
            f"loss_ratio: {_yaml_list(sorted(round(rng.uniform(2, 40), 1) for _ in range(2)))}\n"
            f"sizes: {_yaml_list(sorted(round(rng.uniform(0.005, 0.2), 4) for _ in range(4)))}\n"
            "weight_mode: exact\n"
        )
        self.pairs = []
        for path in (ROOT / "scenarios" / "good_network.yaml",
                     ROOT / "scenarios" / "weak_network.yaml", pw0):
            sf = load_scenario(path)
            for prior in sf.priors():
                tests = [(f"bayes l={l:g}", decision_tests.bayes_test(sf.scenario, prior, LossRatio(l)))
                         for l in sf.loss_ratios]
                tests += [(f"mp size={s:g}",
                           decision_tests.solve_mp_test(sf.scenario, s, **sf.mp_overrides()))
                          for s in sf.sizes]
                self.pairs.append((sf.scenario, prior, tests))
        self.base_seed = rng.getrandbits(62)

    def ops(self) -> list:
        n = len(self.pairs) * self.blocks_per_pair
        return [(b, functools.partial(self._block, b)) for b in range(n)]

    def _block(self, b: int):
        scenario, prior, tests = self.pairs[b % len(self.pairs)]
        return simulator.run_trials(scenario, prior, tests, self.block_trials, self.base_seed + b)

    def check(self, b: int, report) -> list[str]:
        scenario, prior, tests = self.pairs[b % len(self.pairs)]
        got = oracle.report_counts(report)
        n, n_event = report.n_trials, report.n_event
        if n != self.block_trials or n_event + report.n_normal != n or any(
            c.n_first_silent + c.n_first_alarm != n or c.n_event_records != n_event * c.count
            or c.n_event_silent > c.n_event_records or c.n_first_silent_event > c.n_first_silent
            or c.n_first_alarm_normal > c.n_first_alarm for c in report.class_stats
        ) or any(t.n_event != n_event or t.n_normal != report.n_normal for t in report.test_stats):
            return [f"block {b}: counts do not add up: {got}"]
        want = oracle.replay_counts(scenario, prior, tests, self.block_trials, self.base_seed + b)
        if got != want:
            return [f"block {b}: counts differ from the trial-by-trial replay"]
        return []

    def labels(self, ops_per_s: float) -> dict[str, float]:
        return {"trials_per_s unscaled": ops_per_s * self.block_trials}


class ExactWide(Workload):
    name = "exact-wide"
    sensors_per_class = 6
    # classes -> (sizes, (prior, loss) pairs); each combination runs with
    # exact and with integer weights, except on the 6-class cell, whose one
    # op (about 70% of a cycle's time) uses exact weights. Most ops sit on
    # the small cells so that p50 and p90 fall inside the 3- and 4-class
    # groups, away from the edges between groups; those ops run twice per
    # cycle, so that each gets several repetitions next to the long ones.
    plan = {3: (4, 10), 4: (2, 6), 5: (1, 1), 6: (1, 1)}
    kinds = ("exact", "integer")

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = random.Random(f"{self.name}/{seed}")
        self.cells = {}
        order = []
        for k, (n_sizes, n_bayes) in self.plan.items():
            channel = ChannelModel(round(rng.uniform(0.75, 0.95), 3), round(rng.uniform(0.05, 0.25), 3))
            topo = builtin_topology("custom", _decreasing(rng, k), [self.sensors_per_class] * k)
            scenario = validate(channel, topo)
            int_w = tuple(float(w) for w in _int_weights(scenario.derived().weights))
            sizes = [round(rng.uniform(0.005, 0.2), 4) for _ in range(n_sizes)]
            bayes = [(Prior(round(rng.uniform(0.05, 0.5), 3)), LossRatio(round(rng.uniform(1, 40), 2)))
                     for _ in range(n_bayes)]
            self.cells[k] = (scenario, int_w, sizes, bayes)
            kinds = ("exact",) if k == 6 else self.kinds
            order += [(k, kind, si, bi) for kind in kinds
                      for si in range(n_sizes) for bi in range(n_bayes)]
        rng.shuffle(order)
        again = [key for key in order if key[0] <= 4]
        rng.shuffle(again)
        self.order = order + again
        self._np_checked: dict[tuple[int, int], bool] = {}

    def ops(self) -> list:
        return [(key, functools.partial(self._design, key)) for key in self.order]

    def _design(self, key):
        k, kind, si, bi = key
        scenario, int_w, sizes, bayes = self.cells[k]
        if kind == "exact":
            mp = decision_tests.solve_mp_test(scenario, sizes[si])
        else:
            mp = decision_tests.solve_mp_test(scenario, sizes[si], weights=int_w)
        bt = decision_tests.bayes_test(scenario, *bayes[bi])
        return (mp, bt, decision_tests.operating_characteristics(mp, scenario),
                decision_tests.operating_characteristics(bt, scenario))

    def check(self, key, out) -> list[str]:
        k, kind, si, bi = key
        scenario, _, sizes, bayes = self.cells[k]
        mp, bt, oc_mp, oc_bt = out
        ch, topo = scenario.channel, scenario.topology
        alarm = oracle.alarm_probs(ch.p_c, ch.p_w, topo.detect_probs)
        normal = (ch.p_w,) * k
        errors = []
        if abs(mp.exact_size - sizes[si]) > oracle.EXACT:
            errors.append(f"{key}: solved size {mp.exact_size!r} != {sizes[si]}")
        if abs(oc_mp.type1 - mp.exact_size) > oracle.EXACT or abs(oc_mp.power - mp.exact_power) > oracle.EXACT:
            errors.append(f"{key}: operating characteristics {oc_mp} disagree with the solved rule")
        want = (oracle.reject_prob(mp.weights, topo.counts, alarm, mp.threshold, mp.boundary_prob),
                oracle.reject_prob(mp.weights, topo.counts, normal, mp.threshold, mp.boundary_prob))
        if any(abs(a - b) > oracle.EXACT for a, b in zip(oc_mp, want)):
            errors.append(f"{key}: mp operating characteristics {oc_mp} != enumeration {want}")
        prior, loss = bayes[bi]
        ref = oracle.bayes_row(ch.p_c, ch.p_w, topo.detect_probs, topo.counts, prior.event_prob, loss.value)
        if not oracle.exact_close(bt.threshold, ref[k]) or bt.applicable != ref[k + 1]:
            errors.append(f"{key}: bayes threshold {bt.threshold!r} != {ref[k]!r}")
        if any(abs(a - b) > oracle.EXACT for a, b in zip(oc_bt, ref[k + 2:])):
            errors.append(f"{key}: bayes operating characteristics {oc_bt} != enumeration {ref[k + 2:]}")
        if kind == "exact" and topo.total_count <= decision_tests.NP_CHECK_MAX_SENSORS:
            if (k, si) not in self._np_checked:
                self._np_checked[k, si] = decision_tests.np_optimality_check(scenario, sizes[si])
            if not self._np_checked[k, si]:
                errors.append(f"{key}: solved test fails the Neyman-Pearson check")
        return errors


class TableSweep(Workload):
    name = "table-sweep"
    # (cell kind, p_w = 0, weight mode, approx alarm probs given)
    slots = (
        ("interior_square", False, "exact", False),
        ("interior_square", False, "paper_approx", True),
        ("interior_square", True, "exact", False),
        ("corner_square", False, "exact", False),
        ("corner_square", False, "paper_approx", False),
        ("corner_square", True, "exact", False),
        ("edge_square", False, "exact", False),
        ("edge_square", False, "paper_approx", True),
        ("edge_square", True, "exact", False),
        ("hexagon_interior", False, "exact", False),
        ("hexagon_interior", False, "paper_approx", True),
        ("hexagon_interior", True, "exact", False),
    )
    files_per_slot = 10
    n_logs = 40  # per condition in each calibration log, one log per slot

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = random.Random(f"{self.name}/{seed}")
        self.files = []
        logs = {}
        for f in range(len(self.slots) * self.files_per_slot):
            i = f % len(self.slots)
            kind, pw0, mode, with_probs = self.slots[i]
            p_c = round(rng.uniform(0.7, 0.95), 3)
            p_w = 0.0 if pw0 else round(rng.uniform(0.05, 0.3), 3)
            n_classes = 2 if kind == "hexagon_interior" else 3
            detect = _decreasing(rng, n_classes)
            alarm = oracle.alarm_probs(p_c, p_w, detect)
            # p_w = 0 has infinite exact weights; its approx block feeds `dist`
            weights = ([round(10 * d) + 1 for d in detect] if pw0
                       else _int_weights(oracle.llr_weights(p_w, alarm)))
            approx = f"approx:\n  weights: {_yaml_list(weights)}\n"
            if with_probs:
                approx += f"  alarm_probs: {_yaml_list([round(a, 2) for a in alarm])}\n"
            path = workdir / f"scenario{f:03d}.yaml"
            path.write_text(
                "schema: 1\n"
                f"channel: {{p_c: {p_c}, p_w: {p_w}}}\n"
                f"topology: {{kind: {kind}, detect_probs: {_yaml_list(detect)}}}\n"
                f"prior: {{p_e: {_yaml_list(sorted(round(rng.uniform(0.05, 0.6), 3) for _ in range(3)))}}}\n"
                f"loss_ratio: {_yaml_list(sorted(round(rng.uniform(1, 40), 1) for _ in range(2)))}\n"
                f"sizes: {_yaml_list(sorted(round(rng.uniform(0.005, 0.2), 4) for _ in range(3)))}\n"
                f"weight_mode: {mode}\n" + approx
            )
            sf = load_scenario(path)
            if i not in logs:
                log_seed = rng.getrandbits(62)
                event_logs = generate_trial_logs(sf.scenario, Condition.CONTROLLED_EVENT, self.n_logs, log_seed)
                normal_logs = generate_trial_logs(sf.scenario, Condition.NORMAL, self.n_logs, log_seed + 1)
                log_path = workdir / f"slot{i:02d}_logs.csv"
                write_log_file(log_path, event_logs + normal_logs)
                logs[i] = (log_path, event_logs, normal_logs)
            log_path, event_logs, normal_logs = logs[i]
            fmt = "csv" if i % 2 else "text"
            under = "normal" if i % 3 == 1 else "event"
            scen = ["--scenario", str(path), "--format", fmt]
            dist = ["dist"] + scen + ["--under", under] + (["--weight-mode", "paper-approx"] if pw0 else [])
            commands = (["errors"] + scen, ["bayes"] + scen, ["mp"] + scen, dist,
                        ["estimate", str(log_path), "--format", fmt])
            self.files.append((sf, pw0, fmt, under, commands, event_logs, normal_logs))
        self._out, self._err = io.StringIO(), io.StringIO()

    def ops(self) -> list:
        return [(i, functools.partial(self._tables, i)) for i in range(len(self.files))]

    def _tables(self, i: int):
        return tuple(self._invoke(args) for args in self.files[i][4])

    def _invoke(self, args: list[str]) -> tuple[int, str, str]:
        """Run one CLI command in-process: (exit code, stdout, stderr)."""
        # one pair of buffers for every call: click caches a text wrapper per
        # stream object, so fresh buffers would pile up in that cache
        out, err = self._out, self._err
        for buf in (out, err):
            buf.seek(0)
            buf.truncate()
        code = 0
        span = self.tracer.span("cli." + args[0]) if self.tracer else nullcontext()
        with span, redirect_stdout(out), redirect_stderr(err):
            try:
                cli.main.main(args=args, prog_name="griddetect", standalone_mode=False)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except click.ClickException as exc:
                code = exc.exit_code
                err.write(exc.format_message())
            except Exception:  # a traceback is a failed op, not a crash of the benchmark
                code = -1
                err.write(traceback.format_exc())
        return code, out.getvalue(), err.getvalue()

    def check(self, i: int, outputs) -> list[str]:
        sf, pw0, fmt, under, commands, event_logs, normal_logs = self.files[i]
        errors = []
        for args, (code, stdout, stderr) in zip(commands, outputs):
            if code != 0 or stderr:
                errors.append(f"file {i} {args[0]}: exit {code}: {stderr.strip()[:300]}")
        if errors:
            return errors
        expected = {
            "errors": self._errors_rows(sf),
            "bayes": self._bayes_rows(sf),
            "mp": self._mp_rows(sf, errors),
            "dist": self._dist_rows(sf, pw0, under),
            "estimate": oracle.estimate_rows(event_logs, normal_logs),
        }
        for args, (_, stdout, _) in zip(commands, outputs):
            rows = _parse(stdout, fmt)
            want = expected[args[0]]
            if len(rows) != len(want):
                errors.append(f"file {i} {args[0]}: {len(rows)} rows, expected {len(want)}")
                continue
            for r, (got, ref) in enumerate(zip(rows, want)):
                if len(got) != len(ref) or not all(map(oracle.cell_matches, got, ref)):
                    errors.append(f"file {i} {args[0]} row {r}: {got} != {ref}")
                    break
        return errors

    @staticmethod
    def _errors_rows(sf) -> list[tuple]:
        ch, topo = sf.scenario.channel, sf.scenario.topology
        return [row for p_e in sf.event_priors
                for row in oracle.node_error_rows(ch.p_c, ch.p_w, topo.detect_probs, topo.labels, p_e)]

    @staticmethod
    def _bayes_rows(sf) -> list[tuple]:
        ch, topo = sf.scenario.channel, sf.scenario.topology
        return [(p_e, l) + oracle.bayes_row(ch.p_c, ch.p_w, topo.detect_probs, topo.counts, p_e, l)
                for p_e in sf.event_priors for l in sf.loss_ratios]

    @staticmethod
    def _mp_rows(sf, errors: list[str]) -> list[tuple]:
        """Expected mp rows; the exact-size and optimality gates append to ``errors``."""
        sc = sf.scenario
        ch, topo = sc.channel, sc.topology
        alarm = oracle.alarm_probs(ch.p_c, ch.p_w, topo.detect_probs)
        normal = (ch.p_w,) * len(topo.counts)
        true_laws = sf.weight_mode == "exact" or sf.approx_alarm_probs is None
        rows = []
        for size in sf.sizes:
            rule = decision_tests.solve_mp_test(sc, size, **sf.mp_overrides())
            oc = decision_tests.operating_characteristics(rule, sc)
            want = (oracle.reject_prob(rule.weights, topo.counts, alarm, rule.threshold, rule.boundary_prob),
                    oracle.reject_prob(rule.weights, topo.counts, normal, rule.threshold, rule.boundary_prob))
            if any(abs(a - b) > oracle.EXACT for a, b in zip(oc, want)):
                errors.append(f"mp size={size}: operating characteristics {oc} != enumeration {want}")
            if true_laws and (abs(oc.type1 - rule.exact_size) > oracle.EXACT
                              or abs(oc.power - rule.exact_power) > oracle.EXACT):
                errors.append(f"mp size={size}: operating characteristics {oc} disagree with the solved rule")
            if sf.weight_mode == "exact":
                target = min(size, oracle.all_silent(topo.counts, alarm)) if rule.degenerate else size
                if abs(rule.exact_size - target) > oracle.EXACT:
                    errors.append(f"mp size={size}: solved size {rule.exact_size!r} != {target!r}")
                if not decision_tests.np_optimality_check(sc, size):
                    errors.append(f"mp size={size}: solved test fails the Neyman-Pearson check")
            rows.append((1.0 - size, size) + tuple(rule.weights)
                        + (rule.threshold, rule.boundary_prob, rule.exact_size, rule.exact_power) + want)
        return rows

    @staticmethod
    def _dist_rows(sf, pw0: bool, under: str) -> list[tuple]:
        ch, topo = sf.scenario.channel, sf.scenario.topology
        alarm = oracle.alarm_probs(ch.p_c, ch.p_w, topo.detect_probs)
        if pw0 or sf.weight_mode == "paper_approx":
            weights, q_event = sf.approx_weights, sf.approx_alarm_probs or alarm
        else:
            weights, q_event = oracle.llr_weights(ch.p_w, alarm), alarm
        q = q_event if under == "event" else (ch.p_w,) * len(topo.counts)
        rows, cum = [], 0.0
        for value, mass, n in oracle.atoms(weights, topo.counts, q):
            cum += mass
            rows.append((value, mass, cum, n))
        return rows

    def extra_checks(self) -> list[tuple[str, bool]]:
        """Regenerate the shipped errors/bayes/mp tables and compare them with out/."""
        results = []
        for net in ("good", "weak"):
            for command in ("errors", "bayes", "mp"):
                for fmt, ext in (("text", "txt"), ("csv", "csv")):
                    golden = ROOT / "out" / f"{command}_{net}.{ext}"
                    code, stdout, _ = self._invoke(
                        [command, "--scenario", str(ROOT / "scenarios" / f"{net}_network.yaml"),
                         "--format", fmt])
                    same = code == 0 and golden.is_file() and stdout.encode() == golden.read_bytes()
                    results.append((f"golden {golden.relative_to(ROOT)}", same))
        return results


def _parse(text: str, fmt: str) -> list[list[str]]:
    """Data rows of a one-table CLI output, as cell strings."""
    if fmt == "csv":
        return [row[1:] for row in list(csv.reader(io.StringIO(text)))[1:] if row]
    # text tables: title, header and rule lines, then cells separated by 2+ spaces
    return [re.split(r" {2,}", line.strip()) for line in text.splitlines()[3:] if line.strip()]


WORKLOADS = {w.name: w for w in (SimInterior, ExactWide, TableSweep)}
