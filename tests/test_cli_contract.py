"""Property test of the CLI error contract.

For any scenario document, calibration log and option values, every
command exits 0 with nothing on stderr, exits 2 (a click usage error), or
exits 1 with exactly one stderr line that starts with ``error: ``. No other
exception escapes: a traceback is a failure of the contract. Every run is
made once with each YAML loader scenario_io can use.
"""

import tempfile
import traceback
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from griddetect import scenario_io
from griddetect.cli import main

from cases import YAML_LOADERS, scenario_documents

LOG_HEADER = "condition,trial,class_index,detected,responded"
SETTINGS = dict(
    derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large]
)


@st.composite
def scenario_bodies(draw):
    """Mostly a scenario document; sometimes raw bytes or text."""
    kind = draw(st.sampled_from(["document"] * 4 + ["bytes", "text"]))
    if kind == "bytes":
        return draw(st.binary(max_size=120))
    if kind == "text":
        return draw(st.text(max_size=120)).encode()
    return yaml.safe_dump(draw(scenario_documents()), sort_keys=False).encode()


def _not_int(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


def _mostly(valid, arbitrary):
    """``valid`` about four times in five, else ``arbitrary``."""
    return st.sampled_from([True] * 4 + [False]).flatmap(lambda ok: valid if ok else arbitrary)


sizes = st.floats(0, 1) | st.floats() | st.text(max_size=4)
OPTIONS = {
    "--format": _mostly(st.sampled_from(["text", "csv"]), st.text(max_size=4)),
    "--weight-mode": _mostly(st.sampled_from(["exact", "paper-approx"]), st.text(max_size=4)),
    "--sizes": _mostly(st.lists(sizes, max_size=4).map(lambda xs: ",".join(map(str, xs))), st.text(max_size=6)),
    "--under": _mostly(st.sampled_from(["event", "normal"]), st.text(max_size=4)),
    "--seed": _mostly(st.integers(-(2**70), 2**70).map(str), st.text(max_size=4)),
    "--trials": _mostly(st.integers(-3, 50).map(str), st.text(max_size=4).filter(_not_int)),
}
COMMAND_OPTIONS = {
    "errors": ["--format"],
    "bayes": ["--format"],
    "mp": ["--format", "--weight-mode", "--sizes"],
    "dist": ["--format", "--weight-mode", "--under"],
    "simulate": ["--format", "--weight-mode", "--seed"],
}


def assert_contract(args):
    for loader in YAML_LOADERS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scenario_io, "_LOADER", loader)
            result = CliRunner().invoke(main, args)
        if result.exception is not None and not isinstance(result.exception, SystemExit):
            raise AssertionError("".join(traceback.format_exception(*result.exc_info)))
        assert result.exit_code in (0, 1, 2), result.exit_code
        if result.exit_code == 0:
            assert result.stderr == ""
        elif result.exit_code == 1:
            lines = result.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr


@settings(max_examples=400, **SETTINGS)
@given(command=st.sampled_from(sorted(COMMAND_OPTIONS)), body=scenario_bodies(), data=st.data())
def test_scenario_commands_keep_the_contract(command, body, data):
    args = [command]
    for name in COMMAND_OPTIONS[command]:
        if data.draw(st.booleans(), label=f"use {name}"):
            args += [name, data.draw(OPTIONS[name], label=name)]
    if command == "simulate":  # always bounded: the file's n_trials may be large
        args += ["--trials", data.draw(OPTIONS["--trials"], label="--trials")]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.yaml"
        path.write_bytes(body)
        assert_contract(args + ["--scenario", str(path)])


@settings(max_examples=300, **SETTINGS)
@given(doc=scenario_documents())
def test_loaders_load_equal_data(doc):
    text = yaml.safe_dump(doc, sort_keys=False)
    loaded = {repr(yaml.load(text, Loader=loader)) for loader in YAML_LOADERS}  # repr: nan == nan, 1 != 1.0
    assert len(loaded) == 1, loaded


bits = st.sampled_from(["0", "1"])
records = st.tuples(st.sampled_from(["event", "normal"]), st.integers(0, 3).map(str),
                    st.integers(0, 2).map(str), bits, bits)
normal_records = records.map(lambda r: ("normal", r[1], r[2], "0", r[4]))
rows = st.lists(
    _mostly(normal_records | records, st.lists(st.text(max_size=4), max_size=6)).map(",".join),
    max_size=8,
)
log_bodies = _mostly(
    st.builds(lambda header, body: "\n".join([header] + body).encode(),
              _mostly(st.just(LOG_HEADER), st.text(max_size=20)), rows),
    st.binary(max_size=120),
)


@settings(max_examples=200, **SETTINGS)
@given(body=log_bodies, fmt=OPTIONS["--format"])
def test_estimate_keeps_the_contract(body, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.csv"
        path.write_bytes(body)
        assert_contract(["estimate", str(path), "--format", fmt])
