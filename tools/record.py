"""Write BENCH_<pr>.json: one point of the project's performance record.

    python3 tools/record.py --pr N      # or: make record PR=N

Records, for the working tree as it is:
- the commit, whether the tree differs from it, the sha256 of that
  difference (``git diff HEAD`` without Markdown files and BENCH_*.json,
  so that the measured code can be matched to the commit that holds it:
  ``git diff C^ C --binary --full-index -- . ':!*.md' ':!BENCH_*.json'``
  of that commit C hashes the same), and the environment: CPU count and
  model, Python, numpy, PyYAML and whether libyaml is present;
- the tier-1 wall time (ROADMAP's tier-1 command) and its pytest summary;
- the ``make reproduce`` wall time, into a temporary directory, and whether
  all of its tables equal the committed ones in out/;
- each workload's end-to-end metrics from ``bench/run.py --trace 0`` at
  seed 1 and the benchmark's own run length (BENCHMARK.json), so that
  every record compares with the last.

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
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from pairs import ROOT, run

SEED = 1
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


def tier1() -> dict:
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
    wall, proc = timed(cmd)
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return {"command": " ".join(["python", *cmd[1:]]), "wall_s": round(wall, 3), "exit": proc.returncode,
            "summary": summary}


def reproduce() -> dict:
    with tempfile.TemporaryDirectory(prefix="record-") as out:
        wall, proc = timed(["make", "--no-print-directory", "reproduce", f"PYTHON={sys.executable}", f"OUT={out}"])
        shipped = sorted(p.name for p in (ROOT / "out").iterdir())
        made = Path(out)
        differ = [name for name in shipped if not (made / name).is_file()
                  or not filecmp.cmp(ROOT / "out" / name, made / name, shallow=False)]
    return {"wall_s": round(wall, 3), "exit": proc.returncode, "tables": len(shipped), "differ_from_out": differ}


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
    print(f"wrote {path.name}: tier-1 {record['tier1']['wall_s']} s ({record['tier1']['summary']}), "
          f"make reproduce {record['reproduce']['wall_s']} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
