"""Write BENCH_<pr>.json: one point of the project's performance record.

    python3 tools/record.py --pr N      # or: make record PR=N

Records, for the working tree as it is:
- the commit, whether the tree differs from it, the sha256 of that
  difference (``git diff HEAD`` without Markdown files and BENCH_*.json,
  so that the measured code can be matched to the commit that holds it:
  ``git diff C^ C --binary --full-index -- . ':!*.md' ':!BENCH_*.json'``
  of that commit C hashes the same), and the environment: CPU count and
  model, Python, numpy, PyYAML and whether libyaml is present;
- the tier-1 wall time (ROADMAP's tier-1 command) with its pytest
  summary, and the ``make reproduce`` wall time, into a temporary
  directory, with whether all of its tables equal the committed ones in
  out/: each the median, least and greatest of a fixed number of runs (3 of
  tier-1, 5 of ``make reproduce``), since a host's speed can drift by up to
  2x over minutes;
- each workload's end-to-end metrics from ``bench/run.py --trace 0`` at
  seed 1 and the benchmark's own run length (BENCHMARK.json), so that
  every record compares with the last;
- ``simulate --format csv`` (100,000 trials over five priors), ``mp`` and
  ``bayes`` on both shipped scenarios, each the median wall time and median
  peak RSS (``os.wait4``) of 7 fresh processes;
- the cap cell's row: ``mp``, ``bayes`` and ``dist --format csv`` on a 4x31
  cell (2**20 count tuples, the exact analysis' cap) whose exact scores are
  all distinct, each the median of 7 fresh processes, and its ``simulate
  --format csv`` (100,000 trials), the median of 3 because it takes seconds;
- a 6x6 cell's row (six classes of six sensors, 117,649 count tuples):
  ``mp`` and ``dist --format csv`` under its integer weights
  (``--weight-mode paper-approx``), whose ties merge count tuples into
  atoms of many rows, and ``bayes``, whose error rates sum prefixes of
  117,649 masses, each the median of 7 fresh processes;
- the widest cell's row: ``mp`` and ``bayes`` on one class of 510 sensors
  and 11 single ones (2**20 - 2**11 count tuples, whose grid takes 24 MiB
  of uint16), each the median of 7 fresh processes;
- the split of one simulator block: a 250-trial ``run_trials`` call on the
  good scenario with ``simulate``'s six rules (p_e = 0.3), next to
  ``_streams.uniforms`` alone for the same block and that block's two
  stream stages, ``_streams._seed`` and ``_streams._draws``, on a workspace
  of their own, each the median of 7 rounds of 200 calls in one fresh
  process, the four taking rounds in turn, and the difference of the first
  two, the block's cost outside the streams.

Every timed process runs this interpreter (``sys.executable``), never a
``python`` found on PATH, which may be a wrapper script that adds its own
start-up to each process. Nothing under bench/ is edited.
"""

from __future__ import annotations

import argparse
import filecmp
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from pairs import ROOT, run

SEED = 1
TIER1_RUNS, REPRODUCE_RUNS = 3, 5
CAP_CELL = """schema: 1
channel: {p_c: 0.87, p_w: 0.13}
topology:
  kind: custom
  classes: [{count: 31, p_detect: 0.93}, {count: 31, p_detect: 0.71}, {count: 31, p_detect: 0.52},
            {count: 31, p_detect: 0.37}]
prior: {p_e: [0.1, 0.2, 0.3, 0.4, 0.5]}
loss_ratio: [5, 20]
sizes: [0.1, 0.05, 0.025, 0.01]
"""
# six classes of six sensors with integer weights: the designs WIDE_CELL_PINNED pins in tests/test_grid_cache.py
WIDE_CELL = """schema: 1
channel: {p_c: 0.85, p_w: 0.15}
topology:
  kind: custom
  classes: [{count: 6, p_detect: 0.93}, {count: 6, p_detect: 0.78}, {count: 6, p_detect: 0.61},
            {count: 6, p_detect: 0.47}, {count: 6, p_detect: 0.3}, {count: 6, p_detect: 0.12}]
prior: {p_e: [0.2]}
loss_ratio: [10]
sizes: [0.05]
approx: {weights: [17, 14, 11, 9, 6, 3]}
"""
# the widest grid under the cap: the cell "510p+11x1" of CAP_CELLS in tests/test_grid_cache.py, whose event law has
# positive masses
WIDEST_CELL = """schema: 1
channel: {p_c: 0.87, p_w: 0.13}
topology:
  kind: custom
  classes: [{count: 1, p_detect: 0.97}, {count: 1, p_detect: 0.885}, {count: 1, p_detect: 0.8},
            {count: 1, p_detect: 0.715}, {count: 1, p_detect: 0.63}, {count: 1, p_detect: 0.545},
            {count: 510, p_detect: 0.5}, {count: 1, p_detect: 0.46}, {count: 1, p_detect: 0.375},
            {count: 1, p_detect: 0.29}, {count: 1, p_detect: 0.205}, {count: 1, p_detect: 0.12}]
prior: {p_e: [0.1, 0.5]}
loss_ratio: [5, 20]
sizes: [0.1, 0.05, 0.01]
"""
SIMULATE = ["simulate", "--format", "csv"]
# each command's arguments and how many processes its median is taken over
CAP_COMMANDS = {"mp": (["mp"], 7), "bayes": (["bayes"], 7), "dist --format csv": (["dist", "--format", "csv"], 7),
                "simulate --format csv": (SIMULATE, 3)}
APPROX = ["--weight-mode", "paper-approx"]
WIDE_COMMANDS = {"mp --weight-mode paper-approx": (["mp", *APPROX], 7),
                 "dist --weight-mode paper-approx --format csv": (["dist", *APPROX, "--format", "csv"], 7),
                 "bayes": (["bayes"], 7)}
WIDEST_COMMANDS = {"mp": (["mp"], 7), "bayes": (["bayes"], 7)}
# run in a fresh process on a scenario file: microseconds per call, each the median of 7 rounds of 200 calls
BLOCK_SPLIT = """
import json, statistics, sys, time
import numpy as np
from griddetect import _streams, simulator
from griddetect.decision_tests import bayes_test, solve_mp_tests
from griddetect.model import LossRatio, Prior
from griddetect.scenario_io import load_scenario

sf, prior, trials = load_scenario(sys.argv[1]), Prior(0.3), 250
tests = [("bayes", bayes_test(sf.scenario, prior, LossRatio(l))) for l in sf.loss_ratios]
tests += [("mp", test) for test in solve_mp_tests(sf.scenario, sf.sizes, **sf.mp_overrides())]
n_draws = 1 + 2 * sf.scenario.topology.total_count + len(tests)
indices = np.arange(trials, dtype=np.uint64)
ws = _streams._Workspace().fit(trials, n_draws)
calls = {"run_trials": lambda: simulator.run_trials(sf.scenario, prior, tests, trials, 101),
         "streams": lambda: _streams.uniforms(101, indices, n_draws),  # the same block's uniforms
         "seed": lambda: _streams._seed(101, indices, ws),
         "draws": lambda: _streams._draws(n_draws, ws)}
rounds = {name: [] for name in calls}
for call in calls.values():
    call()
for _ in range(7):  # round by round in turn, so that a change of the host's speed reaches both
    for name, call in calls.items():
        start = time.perf_counter()
        for _ in range(200):
            call()
        rounds[name].append((time.perf_counter() - start) / 200 * 1e6)
split = {"trials": trials, "rules": len(tests)}
split.update((name + "_us", round(statistics.median(r), 1)) for name, r in rounds.items())
print(json.dumps(split))
"""
SHIPPED_COMMANDS = {"simulate --format csv": (SIMULATE, 7), "mp": (["mp"], 7), "bayes": (["bayes"], 7)}
SHIPPED = {net: ROOT / "scenarios" / f"{net}_network.yaml" for net in ("good", "weak")}
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))}


def timed(cmd: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=ENV, capture_output=True, text=True)
    return time.perf_counter() - start, proc


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def diff_sha256() -> str:
    diff = subprocess.run(["git", "diff", "HEAD", "--binary", "--full-index", "--", ".", ":!*.md", ":!BENCH_*.json"],
                          cwd=ROOT, capture_output=True, check=True).stdout
    return hashlib.sha256(diff).hexdigest()


def environment() -> dict:
    import numpy
    import yaml

    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {"cpu_count": os.cpu_count(), "cpu_model": cpu_model, "python": platform.python_version(),
            "numpy": numpy.__version__, "pyyaml": yaml.__version__,
            "libyaml": bool(getattr(yaml, "__with_libyaml__", False))}


def spread(walls: list[float], exits: list[int]) -> dict:
    """The runs' median, least and greatest wall times (s), and the first nonzero exit status, else 0."""
    return {"runs": len(walls), "wall_s": round(statistics.median(walls), 3), "wall_s_min": round(min(walls), 3),
            "wall_s_max": round(max(walls), 3), "exit": next((e for e in exits if e), 0)}


def tier1() -> dict:
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
    walls, exits = [], []
    for _ in range(TIER1_RUNS):
        wall, proc = timed(cmd)
        walls.append(wall)
        exits.append(proc.returncode)
        print(f"tier-1 run {len(walls)}: {wall:.1f} s", flush=True)
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return {"command": " ".join(["python", *cmd[1:]]), **spread(walls, exits), "summary": summary}


def reproduce() -> dict:
    shipped = sorted(p.name for p in (ROOT / "out").iterdir())
    walls, exits, differ = [], [], set()
    for _ in range(REPRODUCE_RUNS):
        with tempfile.TemporaryDirectory(prefix="record-") as out:
            wall, proc = timed(["make", "--no-print-directory", "reproduce", f"PYTHON={sys.executable}", f"OUT={out}"])
            made = Path(out)
            differ.update(name for name in shipped if not (made / name).is_file()
                          or not filecmp.cmp(ROOT / "out" / name, made / name, shallow=False))
        walls.append(wall)
        exits.append(proc.returncode)
        print(f"make reproduce run {len(walls)}: {wall:.1f} s", flush=True)
    return {**spread(walls, exits), "tables": len(shipped), "differ_from_out": sorted(differ)}


def wall_and_peak(cmd: list[str]) -> tuple[float, float]:
    """Wall time (s) and peak RSS (MB) of one fresh process, its output discarded."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=ENV, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise SystemExit(f"error: {' '.join(cmd)} exited {proc.returncode}")
    return wall, usage.ru_maxrss / 1024  # KiB on Linux


def command_times(label: str, path: Path, commands: dict[str, tuple[list[str], int]]) -> dict:
    """Each command on the scenario file ``path``: its median wall time and median peak RSS over its runs."""
    row = {}
    for name, (args, runs) in commands.items():
        cmd = [sys.executable, "-m", "griddetect.cli", *args, "--scenario", str(path)]
        walls, peaks = zip(*(wall_and_peak(cmd) for _ in range(runs)))
        row[name] = {"runs": runs, "wall_s": round(statistics.median(walls), 3),
                     "peak_rss_mb": round(statistics.median(peaks), 1)}
        print(f"{label} {name}: {row[name]}", flush=True)
    return row


def cell_row(label: str, scenario: str, commands: dict[str, tuple[list[str], int]]) -> dict:
    """command_times on a scenario file written from ``scenario``, with that text."""
    with tempfile.TemporaryDirectory(prefix="record-") as tmp:
        path = Path(tmp) / "cell.yaml"
        path.write_text(scenario)
        return {"scenario": scenario, "commands": command_times(label, path, commands)}


def block_split() -> dict:
    """One simulator block on the good scenario, timed in a fresh process (BLOCK_SPLIT), with its non-stream cost."""
    proc = subprocess.run([sys.executable, "-c", BLOCK_SPLIT, str(SHIPPED["good"])], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, check=True)
    split = json.loads(proc.stdout)
    split["non_stream_us"] = round(split["run_trials_us"] - split["streams_us"], 1)
    print(f"simulator block: {split}", flush=True)
    return split


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="the number in the file name BENCH_<pr>.json")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {
        "pr": args.pr,
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain")),
        "diff_sha256": diff_sha256(),
        "environment": environment(),
        "tier1": tier1(),
        "reproduce": reproduce(),
        "shipped": {net: command_times(net, path, SHIPPED_COMMANDS) for net, path in SHIPPED.items()},
        "cap_cell": cell_row("cap cell", CAP_CELL, CAP_COMMANDS),
        "wide_cell": cell_row("6x6 cell", WIDE_CELL, WIDE_COMMANDS),
        "widest_cell": cell_row("510+11x1 cell", WIDEST_CELL, WIDEST_COMMANDS),
        "sim_block": block_split(),
        "benchmark": {"seed": SEED, "run_seconds": bench["run_seconds"], "workloads": {}},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        result = run(ROOT, workload, SEED)
        record["benchmark"]["workloads"][workload] = {
            "correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {m["name"]: result["metrics"][m["name"]]["value"] for m in bench["end_to_end"]},
        }
        print(f"{workload}: {record['benchmark']['workloads'][workload]}", flush=True)
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {path.name}: tier-1 median {record['tier1']['wall_s']} s ({record['tier1']['summary']}), "
          f"make reproduce median {record['reproduce']['wall_s']} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
