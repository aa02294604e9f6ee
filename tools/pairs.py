"""Paired benchmark runs: a base commit against the working tree.

    python3 tools/pairs.py --workload exact-wide [--pairs 10] [--seed 1] [--base HEAD]
    python3 tools/pairs.py --workload all        # every workload in BENCHMARK.json, in turn

Exports --base with ``git archive`` into a temporary directory once, and the
working tree's files (tracked, and untracked but not ignored) into another,
so that the two sides differ only in their files; then, for each workload,
runs ``bench/run.py --trace 0`` in both, --pairs times, alternating which
side runs first; each run lasts the benchmark's own run length. Every run
is printed as it finishes, and each workload's summary after its last pair.
For every end-to-end metric in BENCHMARK.json the summary gives each side's
median and quartiles, the relative change of the medians, and the pairs
the working tree won (ties count for neither). A metric is "unresolved" when the base's interquartile
range, relative to its median, is wider than the metric's bound, unless
every working-tree run beats every base run. A gain holds when the working
tree wins at least nine tenths of the pairs, the medians differ by more
than the base's interquartile range, and no more ops failed in the working
tree than in the base; a change of the medians worse than the metric's
bound is marked as a regression. Nothing under bench/ is edited; each run
writes only the bench/results/ and bench/_work/ of its temporary tree.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def export(rev: str, dest: Path) -> None:
    """The files of ``rev`` as committed, written under ``dest``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def export_working_tree(dest: Path) -> None:
    """The working tree's files that git tracks or would add (untracked, not ignored), as they are on disk, copied
    under ``dest``; a tracked file deleted from the working tree is left out."""
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"], cwd=ROOT,
                           check=True, capture_output=True).stdout.decode().split("\0")
    for name in filter(None, names):
        if (ROOT / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def run(tree: Path, workload: str, seed: int) -> dict:
    """One benchmark run in ``tree``: the JSON object its last output line holds."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"error: {' '.join(cmd)} in {tree} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q1, q2, q3


def summarize(metrics: list[dict], runs: dict[str, list[dict]]) -> list[str]:
    n = len(runs["base"])
    failed = {side: sum(r["failed"] for r in runs[side]) for side in runs}
    lines = [f"{'metric':<12} {'base median [q1, q3]':>32} {'change median [q1, q3]':>32} {'change':>8} "
             f"{'wins':>6}  verdict"]
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        (b1, b2, b3), (c1, c2, c3) = quartiles(base), quartiles(change)
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        rel = (c2 - b2) / b2 if b2 else 0.0
        worse = rel if lower else -rel
        beats_all = all((c < b) if lower else (c > b) for b in base for c in change)
        if b2 and (b3 - b1) / b2 > m["bound"] and not beats_all:
            verdict = f"unresolved (base spread over bound {m['bound']:.0%})"
        elif (wins >= 0.9 * n and abs(c2 - b2) > b3 - b1 and worse < 0
              and failed["change"] <= failed["base"]):
            verdict = "gain"
        elif worse > m["bound"]:
            verdict = f"regression (bound {m['bound']:.0%})"
        else:
            verdict = "no gain claimed"
        lines.append(f"{name:<12} {f'{b2:.6g} [{b1:.6g}, {b3:.6g}]':>32} {f'{c2:.6g} [{c1:.6g}, {c3:.6g}]':>32} "
                     f"{rel:>+8.1%} {f'{wins}/{n}':>6}  {verdict}")
    for side in ("base", "change"):
        attempted = sum(r["attempted"] for r in runs[side])
        wrong = sum(not r["correct"] for r in runs[side])
        lines.append(f"{side}: {failed[side]}/{attempted} ops failed, {wrong} of {n} runs incorrect")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="a workload in BENCHMARK.json, or all of them")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--base", default="HEAD", help="commit to compare against (default HEAD)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    workloads = [w["name"] for w in bench["workloads"]] if args.workload == "all" else [args.workload]
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        trees = {"base": Path(tmp) / "base", "change": Path(tmp) / "change"}
        for tree in trees.values():
            tree.mkdir()
        export(args.base, trees["base"])
        export_working_tree(trees["change"])
        for workload in workloads:
            header = f"workload {workload} seed {args.seed}: {args.base} against the working tree, {args.pairs} pairs"
            print(header, flush=True)
            runs: dict[str, list[dict]] = {"base": [], "change": []}
            for i in range(args.pairs):
                for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                    result = run(trees[side], workload, args.seed)
                    runs[side].append(result)
                    values = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                                      for m in metrics)
                    print(f"pair {i + 1} {side:<6} {values}", flush=True)
            print("\n".join([f"summary of {header}"] + summarize(metrics, runs)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
