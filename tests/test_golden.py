"""The committed tables regenerate byte for byte through the CLI.

Each case in out/ runs the command `make reproduce` runs for that file (a
step of tools/reproduce.py), through griddetect.cli.main, and compares the
written file with the golden copy. The `dist` and `estimate` tables, which
`make reproduce` does not write, are compared with copies in tests/golden/;
the estimate log is regenerated at a fixed seed, and equals its copy there.
"""

import importlib.util
from pathlib import Path

import pytest
from click.testing import CliRunner

from griddetect import Condition, generate_trial_logs, load_scenario, write_log_file
from griddetect.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
NETWORKS = ("good", "weak")
_spec = importlib.util.spec_from_file_location("reproduce", ROOT / "tools" / "reproduce.py")
reproduce = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reproduce)
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


@pytest.mark.parametrize("step", reproduce.STEPS, ids="-".join)
def test_golden_table(tmp_path, step):
    result = CliRunner().invoke(main, reproduce.step_args(step, tmp_path), catch_exceptions=False)
    assert result.exit_code == 0, result.output
    name = reproduce.table_name(*step)
    assert (tmp_path / name).read_bytes() == (ROOT / "out" / name).read_bytes()


def test_reproduce_stops_at_a_failed_write_with_one_error_line(tmp_path, capsys):
    (tmp_path / "errors_weak.txt").symlink_to(tmp_path / "missing" / "errors_weak.txt")
    assert reproduce.reproduce(tmp_path) == 1
    assert capsys.readouterr().err == f"error: cannot write {tmp_path / 'errors_weak.txt'}: No such file or directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["errors_good.txt", "errors_weak.txt"]
    assert (tmp_path / "errors_good.txt").read_bytes() == (ROOT / "out" / "errors_good.txt").read_bytes()


@pytest.mark.parametrize("network,under,mode,ext", DIST_CASES)
def test_golden_dist(tmp_path, network, under, mode, ext):
    golden = GOLDEN / f"dist_{network}_{under}_{mode}.{ext}"
    args = ["dist", "--scenario", _scenario(network), "--under", under, "--weight-mode", mode]
    assert _run(args, tmp_path / golden.name, ext) == golden.read_bytes()


def test_golden_estimate_log(tmp_path):
    # `make check` runs `estimate` on the committed copy
    write_estimate_log(tmp_path / "estimate_log.csv")
    assert (tmp_path / "estimate_log.csv").read_bytes() == (GOLDEN / "estimate_log.csv").read_bytes()


@pytest.mark.parametrize("ext", ["txt", "csv"])
def test_golden_estimate(tmp_path, ext):
    golden = GOLDEN / f"estimate.{ext}"
    log = tmp_path / "logs.csv"
    write_estimate_log(log)
    assert _run(["estimate", str(log)], tmp_path / golden.name, ext) == golden.read_bytes()
