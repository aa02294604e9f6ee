"""griddetect benchmark: one workload per call, one process, one thread.

    python3 bench/run.py --workload sim-interior --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --golden-sim

The run builds its inputs from --seed, measures whole cycles of ops until
--seconds have passed, then checks every op's output against an oracle
(see workloads.py and oracle.py); check time is not op time. The last
stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones:

    setup_s       median over fresh processes of the time from process start
                  until set-up is done (import, input generation, scenario
                  load, rule solving)
    op_ms_p50/p90 percentiles over the distinct ops of a cycle (at least 100)
                  of each op's median time over its repetitions; the sample
                  count is printed above the JSON
    ops_per_s     distinct ops over the sum of those median times
    peak_rss_mb   peak resident set of the process after the measured phase

Times are paced: each is scaled by REF_MS over the time a fixed pure-Python
reference loop takes around it, i.e. they read as on a host that runs the
reference loop in REF_MS. The loop runs after every op and every
PACE_EVERY_S during an op (from a timer signal); an op is paced by the
median of the samples taken during and right after it, or of the last
PACE_WINDOW samples when it was too short to collect that many. A set-up
is paced by the median of five samples taken right after it. A shared host can run the process up to 2x slower for stretches of
seconds to minutes, which no run of a few dozen seconds averages away; the
reference loop slows with it, so the scaled times stay put while a change
in griddetect's own cost still shows in full. Unscaled figures are printed
as labels and kept in the results file.

With --trace 1 the run measures an untraced phase, then a traced phase in
which the module functions listed in trace_targets() are wrapped (nothing
under src/ changes), and reports per-layer metrics from the spans plus the
tracing overhead. Times are unscaled means per call, per trial or per op
(they include the pacing samples the timer takes, under 1%); the exact
counts (simulator.trials, decision_tests.coins_per_trial,
score_dist.calls_per_op, score_dist.tuples_per_op, score_dist.atoms_per_call)
come from the first cycle, a pure function of the seed, and must repeat
exactly: the run fails if they differ from an earlier run of the same seed
in this checkout, or between two ops with the same input. Aggregated spans
and provenance go to bench/results/.

--golden-sim regenerates out/simulation_{good,weak}.csv at their scenario
settings and requires them to be byte-identical (about 1M trials).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, deque
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_REPEATS = 11
REF_MS = 1.0
PACE_EVERY_S = 0.1
PACE_WINDOW = 9  # single samples jitter by 5% typically and 50% at p90
WORKLOAD_NAMES = ("sim-interior", "exact-wide", "table-sweep")

# per-layer metric -> unit; BENCHMARK.json lists the same names
LAYER_UNITS = {
    "simulator.seed_us_per_trial": "us",
    "simulator.draw_us_per_trial": "us",
    "decision_tests.decide_us_per_trial": "us",
    "simulator.aggregate_us_per_trial": "us",
    "simulator.trial_self_us_per_trial": "us",
    "simulator.trials": "count",
    "decision_tests.coins_per_trial": "coins/trial",
    "score_dist.calls_per_op": "calls/op",
    "score_dist.tuples_per_op": "tuples/op",
    "score_dist.atoms_per_call": "atoms/call",
    "score_dist.ns_per_tuple": "ns",
    "score_dist.us_per_call": "us",
    "decision_tests.solve_mp_self_ms": "ms",
    "decision_tests.oc_self_ms": "ms",
    "decision_tests.bayes_self_us": "us",
    "model.derived_calls_per_op": "calls/op",
    "model.derived_us": "us",
    "scenario_io.load_us": "us",
    "node_errors.report_us": "us",
    "tables.render_us": "us",
    "estimation.estimate_us": "us",
    "cli.command_self_ms": "ms",
    "trace.overhead_pct": "%",
}


def _count_trials(counts, args, kwargs, report) -> None:
    counts["simulator.trials"] += report.n_trials


def _count_coins(counts, args, kwargs, decision) -> None:
    counts["decision_tests.coins"] += decision.randomized


def _count_score_law(counts, args, kwargs, dist) -> None:
    law = args[1] if len(args) > 1 else kwargs["law"]
    counts["score_dist.calls"] += 1
    counts["score_dist.tuples"] += math.prod(n + 1 for n in law.counts)
    counts["score_dist.atoms"] += len(dist.atoms)


def trace_targets() -> list[tuple]:
    """(module, attribute, span name, count hook): each public function at
    the module attribute its callers look it up on."""
    from griddetect import cli, decision_tests, model, simulator

    return [
        (simulator, "run_trials", "simulator.run_trials", _count_trials),
        (cli, "run_trials", "simulator.run_trials", _count_trials),
        (simulator, "simulate_trial", "simulator.simulate_trial", None),
        (simulator, "derive_trial_seed", "simulator.derive_trial_seed", None),
        (simulator, "trial_rng", "simulator.trial_rng", None),
        (simulator, "draw_world", "simulator.draw_world", None),
        (simulator, "mp_decide", "decision_tests.mp_decide", _count_coins),
        (simulator, "bayes_decide", "decision_tests.bayes_decide", None),
        (decision_tests, "score_distribution", "score_dist.score_distribution", _count_score_law),
        (cli, "score_distribution", "score_dist.score_distribution", _count_score_law),
        (decision_tests, "solve_mp_test", "decision_tests.solve_mp_test", None),
        (cli, "solve_mp_test", "decision_tests.solve_mp_test", None),
        (decision_tests, "bayes_test", "decision_tests.bayes_test", None),
        (cli, "bayes_test", "decision_tests.bayes_test", None),
        (decision_tests, "operating_characteristics", "decision_tests.operating_characteristics", None),
        (cli, "operating_characteristics", "decision_tests.operating_characteristics", None),
        (model, "derived_stats", "model.derived_stats", None),
        (cli, "load_scenario", "scenario_io.load_scenario", None),
        (cli, "node_error_report", "node_errors.node_error_report", None),
        (cli, "render", "tables.render", None),
        (cli, "read_log_file", "estimation.read_log_file", None),
        (cli, "estimate_detection", "estimation.estimate_detection", None),
        (cli, "estimate_correct_response", "estimation.estimate_correct_response", None),
        (cli, "estimate_false_response", "estimation.estimate_false_response", None),
    ]


def reference_ms() -> float:
    """Time of a fixed pure-Python loop of dict updates and float calls, in ms."""
    t0 = perf_counter()
    d: dict[int, float] = {}
    x = 0.0
    for i in range(3000):
        k = i % 97
        d[k] = d.get(k, 0.0) + i * 0.5
        x += math.sqrt(i + 1.0)
    sorted(d.items())
    return (perf_counter() - t0) * 1e3


class Pacer:
    """Samples the reference loop from SIGALRM while an op runs.

    The handler's own time is added to ``spent`` so that callers can take
    it out of the op's time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.samples.append(reference_ms())
        self.spent += perf_counter() - t0

    def __enter__(self) -> "Pacer":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PACE_EVERY_S, PACE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


class Phase:
    """Op timings of one measured phase, plus the counts of its first cycle."""

    def __init__(self) -> None:
        self.times: list[float] = []  # unscaled seconds per op
        self.paced: dict = {}  # key -> paced seconds of each repetition
        self.keys: list = []
        self.bad: list[bool] = []  # the op raised or differed from its key's first output
        self.cycle0_ops = 0
        self.cycle0_counts: Counter = Counter()
        self.count_mismatch: list[str] = []

    def key_times(self) -> dict:
        """Paced seconds per distinct op: the median over its repetitions."""
        return {k: statistics.median(v) for k, v in self.paced.items()}

    @property
    def ops_per_s(self) -> float:
        return len(self.paced) / math.fsum(self.key_times().values())


def run_phase(wl, seconds: float, first: dict, problems: list[str], tracer=None) -> Phase:
    """Run whole cycles of ops until ``seconds`` have passed.

    The first output per key is kept in ``first`` for the oracle check;
    each later output must equal it.
    """
    phase = Phase()
    op_counts: dict = {}
    cycle = wl.ops()
    start = perf_counter()
    recent = deque([reference_ms()], maxlen=PACE_WINDOW)
    c = 0
    while c == 0 or perf_counter() - start < seconds:
        for key, op in cycle:
            before = Counter(tracer.counts) if tracer else None
            with Pacer() as pacer:
                t0 = perf_counter()
                try:
                    out = op()
                except Exception as exc:  # a failed op is counted, the run goes on
                    out = exc
                dt = perf_counter() - t0 - pacer.spent
            during = pacer.samples + [reference_ms()]
            recent.extend(during)
            pace = statistics.median(during if len(during) >= PACE_WINDOW else recent)
            phase.times.append(dt)
            phase.paced.setdefault(key, []).append(dt * REF_MS / pace)
            phase.keys.append(key)
            problem = None
            if isinstance(out, Exception):
                problem = f"{key}: raised {type(out).__name__}: {out}"
            elif key not in first:
                first[key] = out
            elif out != first[key]:
                problem = f"{key}: output differs from its first run"
            phase.bad.append(problem is not None)
            if problem:
                problems.append(problem)
            if tracer:
                delta = tracer.counts - before
                if op_counts.setdefault(key, delta) != delta:
                    phase.count_mismatch.append(f"{key}: exact counts differ between two runs of the op")
        if c == 0 and tracer:
            phase.cycle0_ops = len(phase.times)
            phase.cycle0_counts = Counter(tracer.counts)
        c += 1
    return phase


def exact_counts(phase: Phase) -> dict[str, float]:
    n = phase.cycle0_counts
    calls = n["score_dist.calls"]
    trials = n["simulator.trials"]
    return {
        "simulator.trials": trials,
        "decision_tests.coins_per_trial": n["decision_tests.coins"] / trials if trials else 0.0,
        "score_dist.calls_per_op": calls / phase.cycle0_ops,
        "score_dist.tuples_per_op": n["score_dist.tuples"] / phase.cycle0_ops,
        "score_dist.atoms_per_call": n["score_dist.atoms"] / calls if calls else 0.0,
    }


def layer_metrics(tracer, phase: Phase) -> dict[str, float]:
    tot, own, calls = tracer.total_ns, tracer.self_ns, tracer.calls
    trials = tracer.counts["simulator.trials"]
    score_calls = tracer.counts["score_dist.calls"]

    def per(ns: float, n: int, scale: float) -> float:
        return ns / scale / n if n else 0.0

    def per_call(name: str, scale: float = 1e3, self_time: bool = False) -> float:
        return per(own(name) if self_time else tot(name), calls(name), scale)

    cli_spans = sorted({n for n, _ in tracer.stats if n.startswith("cli.")})
    estimation = ("estimation.read_log_file", "estimation.estimate_detection",
                  "estimation.estimate_correct_response", "estimation.estimate_false_response")
    return {
        "simulator.seed_us_per_trial": per(tot("simulator.derive_trial_seed") + tot("simulator.trial_rng"),
                                           trials, 1e3),
        "simulator.draw_us_per_trial": per(tot("simulator.draw_world"), trials, 1e3),
        "decision_tests.decide_us_per_trial": per(tot("decision_tests.mp_decide")
                                                  + tot("decision_tests.bayes_decide"), trials, 1e3),
        "simulator.aggregate_us_per_trial": per(own("simulator.run_trials"), trials, 1e3),
        "simulator.trial_self_us_per_trial": per(own("simulator.simulate_trial"), trials, 1e3),
        **exact_counts(phase),
        "score_dist.ns_per_tuple": per(tot("score_dist.score_distribution"),
                                       tracer.counts["score_dist.tuples"], 1.0),
        "score_dist.us_per_call": per(tot("score_dist.score_distribution"), score_calls, 1e3),
        "decision_tests.solve_mp_self_ms": per_call("decision_tests.solve_mp_test", 1e6, True),
        "decision_tests.oc_self_ms": per_call("decision_tests.operating_characteristics", 1e6, True),
        "decision_tests.bayes_self_us": per_call("decision_tests.bayes_test", 1e3, True),
        "model.derived_calls_per_op": calls("model.derived_stats") / len(phase.times),
        "model.derived_us": per_call("model.derived_stats"),
        "scenario_io.load_us": per_call("scenario_io.load_scenario"),
        "node_errors.report_us": per_call("node_errors.node_error_report"),
        "tables.render_us": per_call("tables.render"),
        "estimation.estimate_us": per(sum(tot(n) for n in estimation), calls("cli.estimate"), 1e3),
        "cli.command_self_ms": per(sum(own(n) for n in cli_spans), sum(calls(n) for n in cli_spans), 1e6),
    }


def provenance(seed: int) -> dict:
    import numpy
    import yaml
    from importlib.metadata import version

    import griddetect

    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                             cpu_model)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        if res.returncode == 0:
            commit = res.stdout.strip()
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": version("click"),
        "pyyaml": yaml.__version__,
        "git_commit": commit,
        "griddetect": griddetect.__version__,
        "seed": seed,
    }


def setup_samples(args) -> list[tuple[float, float]]:
    """(paced, unscaled) seconds from spawning a fresh process until its set-up is done."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.time()
        res = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=150, cwd=ROOT,
        )
        if res.returncode != 0:
            raise RuntimeError(f"set-up process failed: {res.stderr.strip()[-500:]}")
        t_done, ref = map(float, res.stdout.split()[-2:])
        samples.append(((t_done - t0) * REF_MS / ref, t_done - t0))
    return samples


def check_counts_repeat(name: str, seed: int, counts: dict) -> list[str]:
    """Compare exact counts with an earlier run of this seed in this checkout."""
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"counts-{name}-seed{seed}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        return [f"{k}: {earlier.get(k)!r} in an earlier run, {v!r} now"
                for k, v in counts.items() if earlier.get(k) != v]
    path.write_text(json.dumps(counts, indent=1) + "\n")
    return []


def golden_sim() -> int:
    """Regenerate the shipped simulation tables and compare with out/."""
    import io
    from contextlib import redirect_stdout

    from griddetect import cli

    ok = True
    for net in ("good", "weak"):
        golden = ROOT / "out" / f"simulation_{net}.csv"
        buf = io.StringIO()
        t0 = perf_counter()
        with redirect_stdout(buf):
            cli.main.main(args=["simulate", "--scenario", str(ROOT / "scenarios" / f"{net}_network.yaml"),
                                "--format", "csv"], prog_name="griddetect", standalone_mode=False)
        same = golden.is_file() and buf.getvalue().encode() == golden.read_bytes()
        ok &= same
        print(f"{'PASS' if same else 'FAIL'} {golden.relative_to(ROOT)} ({perf_counter() - t0:.1f} s)")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--golden-sim", action="store_true",
                        help="check out/simulation_*.csv byte for byte and exit")
    args = parser.parse_args(argv)
    if args.workload is None and not args.golden_sim:
        parser.error("--workload is required")

    # one thread: keep numpy's BLAS from starting a pool
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if not (ROOT / "src" / "griddetect" / "__init__.py").is_file():
        print(f"error: no griddetect package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
        from spans import Tracer
    except ImportError as exc:
        print(f"error: cannot import griddetect from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.golden_sim:
        return golden_sim()

    (BENCH / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=BENCH / "_work"))
    try:
        try:
            wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        except (OSError, ValueError) as exc:  # missing inputs; DomainError is a ValueError
            print(f"error: set-up failed: {exc}", file=sys.stderr)
            return 2
        if args.setup_only:
            t_done = time.time()
            print(repr(t_done), repr(statistics.median(reference_ms() for _ in range(5))))
            return 0
        return measure(args, wl, Tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl, Tracer) -> int:
    try:
        setup = setup_samples(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    first: dict = {}
    problems: list[str] = []
    plain = run_phase(wl, args.seconds, first, problems)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced = tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(trace_targets())
        wl.tracer = tracer
        try:
            traced = run_phase(wl, args.seconds, first, problems, tracer)
        finally:
            tracer.uninstall()
            wl.tracer = None

    bad_keys = set()
    for key, out in first.items():
        try:
            errs = wl.check(key, out)
        except Exception as exc:  # a crashing check is a failed check
            errs = [f"{key}: check raised {type(exc).__name__}: {exc}"]
        if errs:
            bad_keys.add(key)
            problems += errs
    extra = wl.extra_checks()
    problems += [f"{name}: mismatch" for name, ok in extra if not ok]
    phases = [p for p in (plain, traced) if p]
    n_ops = sum(len(p.times) for p in phases)
    # an op fails when it raised, differed from its key's first output, or its key failed the oracle
    failed = sum(bad or key in bad_keys for p in phases for key, bad in zip(p.keys, p.bad))
    failed += sum(1 for _, ok in extra if not ok)
    attempted = n_ops + len(extra)

    times_ms = sorted(t * 1e3 for t in plain.key_times().values())
    e2e = {
        "setup_s": (statistics.median(p for p, _ in setup), "s"),
        "ops_per_s": (plain.ops_per_s, "1/s"),
        "op_ms_p50": (statistics.median(times_ms), "ms"),
        "op_ms_p90": (statistics.quantiles(times_ms, n=10)[8], "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    prov = provenance(args.seed)
    layers = {}
    if traced:
        counts = exact_counts(traced)
        problems += traced.count_mismatch + check_counts_repeat(wl.name, args.seed, counts)
        layers = layer_metrics(tracer, traced)
        layers["trace.overhead_pct"] = (plain.ops_per_s / traced.ops_per_s - 1.0) * 100.0
        prov["tracing_overhead_pct"] = layers["trace.overhead_pct"]
    correct = not problems

    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    print(f"  {'op samples (distinct ops)':<40} {len(times_ms):>14d}")
    print(f"  {'ops run':<40} {len(plain.times):>14d}")
    unscaled = {
        "setup_s unscaled": statistics.median(u for _, u in setup),
        "op_ms_p50 unscaled": statistics.median(plain.times) * 1e3,
        "ops_per_s unscaled": len(plain.times) / math.fsum(plain.times),
    }
    for name, value in unscaled.items():
        print(f"  {name + ' (label)':<40} {value:>14.6g}")
    print(f"  {'ops_failed_frac':<40} {failed / attempted:>14.6g} ({failed}/{attempted})")
    for name, value in wl.labels(unscaled["ops_per_s unscaled"]).items():
        print(f"  {name + ' (label)':<40} {value:>14.6g}")
    for name, value in layers.items():
        print(f"  {name:<40} {value:>14.6g} {LAYER_UNITS[name]}")
    print("provenance " + json.dumps(prov))
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)

    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": wl.name, "seconds": args.seconds, "trace": args.trace, "provenance": prov,
        "correct": correct, "attempted": attempted, "failed": failed, "problems": problems[:100],
        "setup_samples_s": setup, "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "unscaled": unscaled,
        "per_layer": layers, "spans": tracer.dump() if tracer else [],
    }
    (RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    if args.trace:
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
