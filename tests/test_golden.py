"""The committed tables in out/ regenerate byte for byte through the CLI.

Each case runs the command `make reproduce` runs for that file, through
griddetect.cli.main, and compares the written file with the golden copy.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from griddetect.cli import main

ROOT = Path(__file__).resolve().parents[1]
NETWORKS = ("good", "weak")
# golden file stem per command
STEMS = {"errors": "errors", "bayes": "bayes", "mp": "mp", "simulate": "simulation"}
CASES = [
    (command, network, ext)
    for command in ("errors", "bayes", "mp")
    for ext in ("txt", "csv")
    for network in NETWORKS
] + [("simulate", network, "csv") for network in NETWORKS]


@pytest.mark.parametrize("command,network,ext", CASES)
def test_golden_table(tmp_path, command, network, ext):
    golden = ROOT / "out" / f"{STEMS[command]}_{network}.{ext}"
    out = tmp_path / golden.name
    args = [command, "--scenario", str(ROOT / "scenarios" / f"{network}_network.yaml"),
            "--out", str(out)]
    if ext == "csv":
        args += ["--format", "csv"]
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    assert out.read_bytes() == golden.read_bytes()
