"""The committed tables regenerate byte for byte through the CLI.

Each case in out/ runs the command `make reproduce` runs for that file,
through griddetect.cli.main, and compares the written file with the golden
copy. The `dist` and `estimate` tables, which `make reproduce` does not
write, are compared with copies in tests/golden/; the estimate log is
regenerated at a fixed seed.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from griddetect import Condition, generate_trial_logs, load_scenario, write_log_file
from griddetect.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
NETWORKS = ("good", "weak")
# golden file stem per command
STEMS = {"errors": "errors", "bayes": "bayes", "mp": "mp", "simulate": "simulation"}
CASES = [
    (command, network, ext)
    for command in ("errors", "bayes", "mp")
    for ext in ("txt", "csv")
    for network in NETWORKS
] + [("simulate", network, "csv") for network in NETWORKS]
DIST_CASES = [
    (network, under, mode, ext)
    for network in NETWORKS
    for under in ("event", "normal")
    for mode in ("exact", "paper-approx")
    for ext in ("txt", "csv")
]


def _scenario(network: str) -> str:
    return str(ROOT / "scenarios" / f"{network}_network.yaml")


def _run(args, out: Path, ext: str) -> bytes:
    args = args + ["--out", str(out)] + (["--format", "csv"] if ext == "csv" else [])
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return out.read_bytes()


def write_estimate_log(path: Path) -> None:
    """Calibration logs of the good network at fixed seeds: 50 event, then 50 normal."""
    sc = load_scenario(_scenario("good")).scenario
    logs = generate_trial_logs(sc, Condition.CONTROLLED_EVENT, 50, 11)
    write_log_file(path, logs + generate_trial_logs(sc, Condition.NORMAL, 50, 12))


@pytest.mark.parametrize("command,network,ext", CASES)
def test_golden_table(tmp_path, command, network, ext):
    golden = ROOT / "out" / f"{STEMS[command]}_{network}.{ext}"
    assert _run([command, "--scenario", _scenario(network)], tmp_path / golden.name, ext) == golden.read_bytes()


@pytest.mark.parametrize("network,under,mode,ext", DIST_CASES)
def test_golden_dist(tmp_path, network, under, mode, ext):
    golden = GOLDEN / f"dist_{network}_{under}_{mode}.{ext}"
    args = ["dist", "--scenario", _scenario(network), "--under", under, "--weight-mode", mode]
    assert _run(args, tmp_path / golden.name, ext) == golden.read_bytes()


@pytest.mark.parametrize("ext", ["txt", "csv"])
def test_golden_estimate(tmp_path, ext):
    golden = GOLDEN / f"estimate.{ext}"
    log = tmp_path / "logs.csv"
    write_estimate_log(log)
    assert _run(["estimate", str(log)], tmp_path / golden.name, ext) == golden.read_bytes()
