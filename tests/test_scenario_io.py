import copy
import datetime
import json
import os
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import griddetect as g
from griddetect import ScenarioError, decision_tests, scenario_io

import scenario_parser_reference as reference
from cases import REFUSED_FIELDS, YAML_LOADERS, minimal_document, scenario_documents

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


GOOD_YAML = """
schema: 1
channel: {p_c: 0.9, p_w: 0.1}
topology:
  kind: interior_square
  detect_probs: [0.9, 0.5, 0.3]
prior: {p_e: [0.1, 0.3, 0.5]}
loss_ratio: [5, 20]
sizes: [0.1, 0.05]
weight_mode: paper_approx
approx:
  weights: [5, 3, 2]
  alarm_probs: [0.8, 0.5, 0.35]
simulation: {n_trials: 5000, master_seed: 7}
"""


def parse(text):
    import yaml

    return g.parse_scenario(yaml.safe_load(text))


class TestParsing:
    def test_full_file(self):
        sf = parse(GOOD_YAML)
        assert sf.scenario.channel.p_c == 0.9
        assert sf.scenario.topology.counts == (1, 4, 4)
        assert sf.event_priors == (0.1, 0.3, 0.5)
        assert sf.loss_ratios == (5.0, 20.0)
        assert sf.sizes == (0.1, 0.05)
        assert sf.weight_mode == "paper_approx"
        assert sf.approx_weights == (5.0, 3.0, 2.0)
        assert sf.simulation.n_trials == 5000
        assert sf.mp_overrides() == {
            "weights": (5.0, 3.0, 2.0),
            "event_alarm_probs": (0.8, 0.5, 0.35),
        }

    def test_minimal_file(self):
        sf = parse(
            """
            schema: 1
            channel: {p_c: 0.8, p_w: 0.2}
            topology: {kind: hexagon_interior, detect_probs: [0.7, 0.3]}
            """
        )
        assert sf.event_priors == ()
        assert sf.loss_ratios == ()
        assert sf.weight_mode == "exact"
        assert sf.mp_overrides() == {}
        assert sf.simulation.n_trials == 100_000

    def test_mp_law_is_the_solvers_choice_in_every_mode(self):
        sf = parse(GOOD_YAML)
        stats = sf.scenario.derived()
        approx_law = g.ClassAlarmLaw((1, 4, 4), (0.8, 0.5, 0.35))
        no_probs = replace(sf, approx_alarm_probs=None)
        for f, want in [(sf, ((5.0, 3.0, 2.0), approx_law)), (no_probs, ((5.0, 3.0, 2.0), stats.event_law)),
                        (sf.with_weight_mode("exact"), (stats.weights, stats.event_law))]:
            assert decision_tests._mp_law(f.scenario, **f.mp_overrides()) == want
            assert g.solve_mp_test(f.scenario, 0.1, **f.mp_overrides()).weights == want[0]

    def test_scalar_sweeps(self):
        sf = parse(
            """
            schema: 1
            channel: {p_c: 0.8, p_w: 0.2}
            topology: {kind: hexagon_interior, detect_probs: [0.7, 0.3]}
            prior: {p_e: 0.25}
            loss_ratio: 5
            """
        )
        assert sf.event_priors == (0.25,)
        assert sf.loss_ratios == (5.0,)

    def test_custom_topology(self):
        sf = parse(
            """
            schema: 1
            channel: {p_c: 0.8, p_w: 0.2}
            topology:
              kind: custom
              classes:
                - {label: near, count: 2, p_detect: 0.6}
                - {label: far, count: 5, p_detect: 0.2}
            """
        )
        assert sf.scenario.topology.labels == ("near", "far")
        assert sf.scenario.topology.counts == (2, 5)

    def test_custom_topology_reordered(self):
        sf = parse(
            """
            schema: 1
            channel: {p_c: 0.8, p_w: 0.2}
            topology:
              kind: custom
              classes:
                - {count: 5, p_detect: 0.2}
                - {count: 2, p_detect: 0.6}
            """
        )
        assert sf.scenario.topology.detect_probs == (0.6, 0.2)

    def test_approx_lists_follow_the_validated_class_order(self):
        # the file lists the far class first; validation puts the near one first, and approx follows that order
        sf = parse(
            """
            schema: 1
            channel: {p_c: 0.8, p_w: 0.2}
            topology:
              kind: custom
              classes:
                - {label: far, count: 5, p_detect: 0.2}
                - {label: near, count: 2, p_detect: 0.6}
            weight_mode: paper_approx
            approx: {weights: [4, 1], alarm_probs: [0.55, 0.3]}
            """
        )
        assert sf.scenario.topology.labels == ("near", "far") and sf.scenario.topology.counts == (2, 5)
        stats = sf.scenario.derived()
        assert stats.weights[0] > stats.weights[1] and stats.alarm_probs[0] > stats.alarm_probs[1]
        want = ((4.0, 1.0), g.ClassAlarmLaw((2, 5), (0.55, 0.3)))
        assert decision_tests._mp_law(sf.scenario, **sf.mp_overrides()) == want
        rule = g.solve_mp_test(sf.scenario, 0.1, **sf.mp_overrides())
        assert rule.weights == (4.0, 1.0) and rule.class_counts == (2, 5)


class TestRejections:
    def reject(self, text, match):
        with pytest.raises(ScenarioError, match=match):
            parse(text)

    def test_unknown_top_key(self):
        self.reject(
            GOOD_YAML + "\nchanel: {}\n", "unknown key.*chanel"
        )

    def test_unknown_nested_key(self):
        self.reject(
            """
            schema: 1
            channel: {p_c: 0.9, p_w: 0.1, p_x: 0.2}
            topology: {kind: interior_square, detect_probs: [0.9, 0.5, 0.3]}
            """,
            "channel.*unknown key.*p_x",
        )

    def test_missing_schema(self):
        self.reject(
            "channel: {p_c: 0.9, p_w: 0.1}\ntopology: {kind: interior_square, detect_probs: [0.9, 0.5, 0.3]}",
            "missing required key.*schema",
        )

    def test_wrong_schema_version(self):
        self.reject(
            "schema: 2\nchannel: {p_c: 0.9, p_w: 0.1}\ntopology: {kind: interior_square, detect_probs: [0.9, 0.5, 0.3]}",
            "schema",
        )

    def test_invalid_channel_named(self):
        self.reject(
            """
            schema: 1
            channel: {p_c: 0.1, p_w: 0.9}
            topology: {kind: interior_square, detect_probs: [0.9, 0.5, 0.3]}
            """,
            "channel: need p_w < p_c",
        )

    def test_prior_out_of_range_named(self):
        self.reject(
            """
            schema: 1
            channel: {p_c: 0.9, p_w: 0.1}
            topology: {kind: interior_square, detect_probs: [0.9, 0.5, 0.3]}
            prior: {p_e: [0.1, 1.0]}
            """,
            r"prior.p_e\[1\]",
        )

    def test_loss_ratio_out_of_range_named(self):
        self.reject(
            """
            schema: 1
            channel: {p_c: 0.9, p_w: 0.1}
            topology: {kind: interior_square, detect_probs: [0.9, 0.5, 0.3]}
            loss_ratio: [5, -1]
            """,
            r"loss_ratio\[1\]: loss ratio must be a positive finite real",
        )

    def test_bad_size(self):
        self.reject(
            """
            schema: 1
            channel: {p_c: 0.9, p_w: 0.1}
            topology: {kind: interior_square, detect_probs: [0.9, 0.5, 0.3]}
            sizes: [0.1, 1.0]
            """,
            r"sizes\[1\]",
        )

    def test_paper_approx_needs_weights(self):
        self.reject(
            """
            schema: 1
            channel: {p_c: 0.9, p_w: 0.1}
            topology: {kind: interior_square, detect_probs: [0.9, 0.5, 0.3]}
            weight_mode: paper_approx
            """,
            "approx",
        )

    def test_approx_weight_count_checked(self):
        self.reject(
            GOOD_YAML.replace("weights: [5, 3, 2]", "weights: [5, 3]"),
            "approx.weights.*expected 3",
        )

    def test_negative_master_seed_named(self):
        self.reject(
            GOOD_YAML.replace("master_seed: 7", "master_seed: -1"),
            "simulation.master_seed.*64-bit",
        )

    def test_approx_alarm_prob_out_of_range_named(self):
        self.reject(
            GOOD_YAML.replace("alarm_probs: [0.8, 0.5, 0.35]", "alarm_probs: [1.5, 0.5, 0.35]"),
            r"approx.alarm_probs.*out of \[0, 1\]",
        )

    def test_zero_approx_weight_named(self):
        self.reject(
            GOOD_YAML.replace("weights: [5, 3, 2]", "weights: [5, 0, 2]"),
            "approx.weights.*class 1.*positive",
        )

    def test_non_finite_approx_weight_named(self):
        self.reject(
            GOOD_YAML.replace("weights: [5, 3, 2]", "weights: [5, .inf, 2]"),
            "approx.weights.*class 1.*finite",
        )

    def test_overflowing_approx_weights_named(self):
        # each weight is finite, but four class-1 alarms score 2e308
        self.reject(
            GOOD_YAML.replace("weights: [5, 3, 2]", "weights: [5, 5.0e+307, 2]"),
            "approx.weights: weights too large: the score with every sensor alarming overflows",
        )

    def test_count_past_the_float_range_overflows_approx_weights(self):
        self.reject(
            f"""
            schema: 1
            channel: {{p_c: 0.9, p_w: 0.1}}
            topology:
              kind: custom
              classes:
                - {{label: far, count: {10**400}, p_detect: 0.9}}
                - {{label: near, count: 2, p_detect: 0.4}}
            approx: {{weights: [1, 1]}}
            """,
            "approx.weights: weights too large",
        )

    def test_topology_tie_named(self):
        self.reject(
            """
            schema: 1
            channel: {p_c: 0.9, p_w: 0.1}
            topology:
              kind: custom
              classes:
                - {count: 1, p_detect: 0.5}
                - {count: 2, p_detect: 0.5}
            """,
            "topology.*merge",
        )

    def test_non_number_probability(self):
        self.reject(
            """
            schema: 1
            channel: {p_c: high, p_w: 0.1}
            topology: {kind: interior_square, detect_probs: [0.9, 0.5, 0.3]}
            """,
            "channel.p_c",
        )

    @pytest.mark.parametrize("fields, message", REFUSED_FIELDS, ids=[m.split(":")[0] for _, m in REFUSED_FIELDS])
    def test_refused_field_text(self, fields, message):
        with pytest.raises(ScenarioError) as info:
            parse(minimal_document(**fields))
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "value",
        ["{b: 1, a: [1, 2]}", "[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]", "[[[[1]]]]", "x" * 70, "!!set {q, b, a}",
         "2001-12-14", "1" * 60, "[[1, 2], {z: [3.5, null, true]}, '1e-3']", "true", "1.0"],
    )
    def test_short_value_shown_in_full(self, value):
        data = yaml.safe_load(f"schema: {value}\nchannel: {{}}\ntopology: {{}}\n")
        with pytest.raises(ScenarioError) as info:
            g.parse_scenario(data)
        assert str(info.value) == f"schema: expected version 1, got {data['schema']!r}"


def custom_cell(*classes: str) -> str:
    """A scenario text on a custom cell; each class is the inside of its flow mapping, without p_detect."""
    rows = "".join(f"\n    - {{{c}, p_detect: {p}}}" for c, p in zip(classes, (0.9, 0.6, 0.3)))
    return f"schema: 1\nchannel: {{p_c: 0.8, p_w: 0.2}}\ntopology:\n  kind: custom\n  classes:{rows}\n"


class TestLabels:
    def test_missing_and_null_labels_are_the_default(self):
        sf = parse(custom_cell("count: 1", "label: null, count: 2", "label: far, count: 3"))
        assert sf.scenario.topology.labels == ("class-1", "class-2", "far")

    def test_numbers_dates_and_escapes_give_their_text(self):
        sf = parse(custom_cell("label: 7, count: 1", "label: 2001-12-14, count: 2", 'label: "\\e[31mred", count: 3'))
        assert sf.scenario.topology.labels == ("7", "2001-12-14", "\x1b[31mred")

    @pytest.mark.parametrize(
        "classes, message",
        [
            (("label: '', count: 1", "count: 2"), "topology.classes[0].label: expected one non-empty line, got ''"),
            (("label: near, count: 1", 'label: "a\\nb", count: 2'),
             "topology.classes[1].label: expected one non-empty line, got 'a\\nb'"),
            (('label: "near\\n", count: 1', "count: 2"),
             "topology.classes[0].label: expected one non-empty line, got 'near\\n'"),
            (('label: "a\\u2028b", count: 1', "count: 2"),
             "topology.classes[0].label: expected one non-empty line, got 'a\\u2028b'"),
            (("label: near, count: 1", "label: far, count: 2", "label: near, count: 3"),
             "topology.classes[2].label: 'near' repeats topology.classes[0].label"),
            (("label: class-2, count: 1", "count: 2"),
             "topology.classes[1].label: 'class-2' repeats topology.classes[0].label"),
            (("count: 1", "label: class-1, count: 2"),
             "topology.classes[1].label: 'class-1' repeats topology.classes[0].label"),
            (("label: 1, count: 1", "label: '1', count: 2"),
             "topology.classes[1].label: '1' repeats topology.classes[0].label"),
        ],
        ids=["empty", "two-lines", "trailing-newline", "line-separator", "repeated", "default-taken", "takes-default",
             "number-and-text"],
    )
    def test_refused_label_named(self, classes, message):
        with pytest.raises(ScenarioError) as info:
            parse(custom_cell(*classes))
        assert str(info.value) == message

    def test_refused_before_the_count_of_its_class(self):
        with pytest.raises(ScenarioError, match=r"classes\[1\]\.label"):
            parse(custom_cell("label: near, count: 1", "label: near, count: -1"))


labels = (
    st.none() | st.integers(0, 3) | st.just(datetime.date(2001, 12, 14))
    | st.text("ab-1\n\r\x0b\x1b\u2028", max_size=3) | st.sampled_from(["near", "far", "class-1", "class-2", "near\n"])
)


@st.composite
def custom_documents(draw) -> dict:
    """A valid custom cell, labelled or not, with each optional section left out, partial or whole."""
    probs = draw(st.lists(st.sampled_from([0.9, 0.6, 0.3, 0.1]), min_size=1, max_size=4, unique=True))
    classes = [{"count": draw(st.integers(1, 3)), "p_detect": p} for p in probs]
    for cls in classes:
        if draw(st.booleans()):
            cls["label"] = draw(labels)
    doc = {"schema": 1, "channel": {"p_c": 0.8, "p_w": 0.2}, "topology": {"kind": "custom", "classes": classes}}
    optional = {
        "prior": {"p_e": [0.1, 0.3]},
        "loss_ratio": 5,
        "sizes": [0.1],
        "weight_mode": draw(st.sampled_from(["exact", "paper_approx"])),
        "approx": {
            "weights": list(range(len(probs), 0, -1)),
            "alarm_probs": [0.9 - 0.2 * i for i in range(len(probs))],
        },
        "simulation": {"n_trials": 10, "master_seed": 3},
    }
    for key, value in optional.items():
        if draw(st.booleans()):
            dropped = draw(st.sets(st.sampled_from(sorted(value)))) if isinstance(value, dict) else set()
            doc[key] = {k: v for k, v in value.items() if k not in dropped} if dropped else value
    return doc


REFUSED = ["refused label"]


def reference_document(doc) -> tuple[object, str | None]:
    """``doc`` as the reference parser must see it to follow the label rules, and the path of the label they refuse.

    Missing and null labels get their default text. The first label the rules refuse becomes a list, which the
    reference parser refuses at the same point in its checks, with its own message.
    """
    doc = copy.deepcopy(doc)
    topology = doc.get("topology") if isinstance(doc, dict) else None
    classes = topology.get("classes") if isinstance(topology, dict) and topology.get("kind") == "custom" else None
    if not isinstance(classes, list):
        return doc, None
    seen = set()
    for i, cnode in enumerate(classes):
        if not isinstance(cnode, dict) or isinstance(cnode.get("label"), (list, dict)):
            break
        if cnode.get("label") is None:
            cnode["label"] = f"class-{i + 1}"
        label = str(cnode["label"])
        if label.splitlines() != [label] or label in seen:
            cnode["label"] = list(REFUSED)
            return doc, f"topology.classes[{i}].label"
        seen.add(label)
    return doc, None


@settings(max_examples=300, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=scenario_documents() | custom_documents())
def test_parser_matches_the_reference_parser(doc):
    ref_doc, refused = reference_document(doc)
    try:
        want = reference.parse_scenario(ref_doc)
    except Exception as exc:
        with pytest.raises(Exception) as info:
            g.parse_scenario(doc)
        if refused is not None and str(exc) == f"{refused}: expected a string, got {REFUSED!r}":
            assert type(info.value) is ScenarioError and str(info.value).startswith(f"{refused}: ")
        else:
            assert (type(info.value), str(info.value)) == (type(exc), str(exc))
    else:
        assert repr(g.parse_scenario(doc)) == repr(want)


class TestLoadScenario:
    def test_load_from_disk(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(GOOD_YAML)
        sf = g.load_scenario(path)
        assert sf.sizes == (0.1, 0.05)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            g.load_scenario(tmp_path / "nope.yaml")

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("schema: [unclosed")
        with pytest.raises(ScenarioError, match="invalid YAML"):
            g.load_scenario(path)

    def test_error_names_file(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("schema: 1\n")
        with pytest.raises(ScenarioError, match="bad.yaml"):
            g.load_scenario(path)

    def test_checked_in_scenarios_parse(self):
        from pathlib import Path

        root = Path(__file__).resolve().parents[1] / "scenarios"
        good = g.load_scenario(root / "good_network.yaml")
        weak = g.load_scenario(root / "weak_network.yaml")
        assert good.scenario.topology.detect_probs == (0.9, 0.5, 0.3)
        assert weak.approx_weights == (10.0, 5.0, 2.0)
        assert good.weight_mode == weak.weight_mode == "paper_approx"

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
    def test_libyaml_loader_used_when_available(self):
        assert scenario_io._LOADER is yaml.CSafeLoader

    def test_loaders_agree_on_checked_in_scenarios(self, monkeypatch):
        scenario_io._load.cache_clear()  # so that each loader parses
        for name in ("good_network.yaml", "weak_network.yaml"):
            loaded = []
            for loader in YAML_LOADERS:
                monkeypatch.setattr(scenario_io, "_LOADER", loader)
                loaded.append(g.load_scenario(SCENARIOS / name))
            assert loaded[0] == loaded[-1]

    @pytest.mark.parametrize("loader", YAML_LOADERS, ids=lambda loader: loader.__name__)
    def test_nesting_bound_is_inclusive(self, tmp_path, monkeypatch, loader):
        monkeypatch.setattr(scenario_io, "_LOADER", loader)
        path = tmp_path / "deep.yaml"
        inner = scenario_io.MAX_YAML_DEPTH - 1  # the root mapping is the first level
        for depth, message in ((inner, "channel: expected a mapping, got list"),
                               (inner + 1, "nested deeper than 32 levels")):
            path.write_text(
                "schema: 1\n"
                "topology: {kind: interior_square, detect_probs: [0.9, 0.5, 0.3]}\n"
                f"channel: {'[' * depth}{']' * depth}\n"
            )
            with pytest.raises(ScenarioError) as info:
                g.load_scenario(path)
            assert str(info.value) == f"{path}: {message}"


class TestLoadMemo:
    """load_scenario reads its file on each call and parses a text once per path and loader."""

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        scenario_io._load.cache_clear()

    def test_rewrite_of_the_same_size_and_mtime_is_read(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(GOOD_YAML)
        first = g.load_scenario(path)
        stat = path.stat()
        path.write_text(GOOD_YAML.replace("n_trials: 5000", "n_trials: 6000"))
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert path.stat().st_size == stat.st_size and path.stat().st_mtime_ns == stat.st_mtime_ns
        assert (first.simulation.n_trials, g.load_scenario(path).simulation.n_trials) == (5000, 6000)

    def test_invalid_text_is_parsed_on_each_call(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(GOOD_YAML)
        good = g.load_scenario(path)
        path.write_text("schema: 1\n")
        for _ in range(2):
            with pytest.raises(ScenarioError) as info:
                g.load_scenario(path)
            assert str(info.value) == f"{path}: top level: missing required key(s) 'channel', 'topology'"
        assert scenario_io._load.cache_info().currsize == 1
        path.write_text(GOOD_YAML)
        assert g.load_scenario(path) is good

    def test_another_loader_parses_again(self, tmp_path, monkeypatch):
        path = tmp_path / "scenario.yaml"
        path.write_text(GOOD_YAML)
        first = g.load_scenario(path)
        monkeypatch.setattr(scenario_io, "_LOADER", type("Loader", (yaml.SafeLoader,), {}))
        second = g.load_scenario(path)
        assert second == first and second is not first
        assert g.load_scenario(path) is second

    def test_keeps_the_last_files(self, tmp_path):
        paths = [tmp_path / f"scenario{i}.yaml" for i in range(scenario_io.MEMO_FILES + 1)]
        for seed, path in enumerate(paths):
            path.write_text(GOOD_YAML.replace("master_seed: 7", f"master_seed: {seed}"))
        loaded = [g.load_scenario(path) for path in paths]
        assert [sf.simulation.master_seed for sf in loaded] == list(range(len(paths)))
        assert scenario_io._load.cache_info().currsize == scenario_io.MEMO_FILES
        assert g.load_scenario(paths[-1]) is loaded[-1] and g.load_scenario(paths[0]) is not loaded[0]


class _CountingFile:
    """A file opened by load_scenario that records how many bytes each read returns."""

    def __init__(self, fh, reads: list) -> None:
        self.fh, self.reads = fh, reads

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.fh.close()

    def read(self, size: int = -1) -> bytes:
        data = self.fh.read(size)
        self.reads.append(len(data))
        return data


def _outcome(load) -> tuple:
    try:
        return ("loaded", load())
    except ScenarioError as exc:
        return ("refused", str(exc))


class TestBoundedRead:
    """load_scenario reads a regular file only, and at most MAX_SCENARIO_BYTES + 1 bytes of it."""

    BOUND = scenario_io.MAX_SCENARIO_BYTES

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        scenario_io._load.cache_clear()

    @pytest.fixture
    def reads(self, monkeypatch) -> list:
        reads = []
        monkeypatch.setattr(scenario_io, "open", lambda *a, **kw: _CountingFile(open(*a, **kw), reads), raising=False)
        return reads

    def test_a_file_at_the_bound_loads_and_one_byte_more_is_refused(self, tmp_path):
        path = tmp_path / "padded.yaml"
        padding = self.BOUND - len(GOOD_YAML) - 1
        path.write_text(GOOD_YAML + "#" * padding + "\n")
        assert path.stat().st_size == self.BOUND
        assert g.load_scenario(path) == parse(GOOD_YAML)
        path.write_text(GOOD_YAML + "#" * (padding + 1) + "\n")
        with pytest.raises(ScenarioError) as info:
            g.load_scenario(path)
        assert str(info.value) == f"cannot read scenario file {path}: larger than {self.BOUND} bytes"

    def test_reads_one_byte_past_the_bound(self, tmp_path, reads):
        path = tmp_path / "huge.yaml"
        with open(path, "wb") as fh:
            fh.truncate(4 * self.BOUND)
        with pytest.raises(ScenarioError, match="larger than"):
            g.load_scenario(path)
        assert sum(reads) == self.BOUND + 1

    @pytest.mark.parametrize("size, outcome", [(BOUND // 2, "loaded"), (2 * BOUND, "refused")], ids=["under", "over"])
    def test_a_file_that_grows_after_stat_is_read_to_the_bound(self, tmp_path, reads, monkeypatch, size, outcome):
        path = tmp_path / "growing.yaml"
        path.write_text(GOOD_YAML + "#" * (size - len(GOOD_YAML) - 1) + "\n")
        stat = path.stat()  # as if stat ran while the file held its first line only
        stat = os.stat_result(stat[:6] + (GOOD_YAML.index("\n", 1) + 1,) + stat[7:])
        monkeypatch.setattr(scenario_io, "os", SimpleNamespace(stat=lambda p: stat))
        assert _outcome(lambda: g.load_scenario(path))[0] == outcome
        assert sum(reads) == min(size, self.BOUND + 1)

    @pytest.mark.parametrize("kind", ["directory", "character device"])
    def test_a_path_that_is_not_a_regular_file_is_refused_before_open(self, tmp_path, reads, kind):
        path = tmp_path if kind == "directory" else Path("/dev/null")
        if not path.exists():
            pytest.skip(f"no {path}")
        with pytest.raises(ScenarioError) as info:
            g.load_scenario(path)
        assert str(info.value) == f"cannot read scenario file {path}: it is a {kind}, not a regular file"
        assert reads == []

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("body", [GOOD_YAML.encode(), b"schema: 1\n", b"schema: [1\nchannel: 2\n",
                                      b"schema: 1\nchannel: {p_c: 0.9}  # \xe9\n"],
                             ids=["good", "missing-keys", "syntax-error", "not-utf8"])
    def test_same_data_and_messages_as_a_text_mode_read(self, tmp_path, bom, newline, body):
        path = tmp_path / "scenario.yaml"
        path.write_bytes(bom + body.replace(b"\n", newline))

        def text_mode_load():
            try:
                text = path.read_text()
            except UnicodeDecodeError as exc:
                raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
            return scenario_io._load.__wrapped__(path, text, scenario_io._LOADER)

        assert _outcome(lambda: g.load_scenario(path)) == _outcome(text_mode_load)


INDICATORS = "[{-:?"
# printable text rich in YAML indicators, for quoted scalars, keys and comments
indicator_text = st.text(alphabet="ab [{-:?}],#'\"&*!|>%@`", max_size=8)
plain_scalars = st.integers(-5, 99) | st.sampled_from(["x", "p_c", "1e-3", "true", "null", "0.5"])
quoted_scalars = indicator_text.map(json.dumps) | indicator_text.map(lambda t: "'" + t.replace("'", "''") + "'")
yaml_nodes = st.recursive(
    plain_scalars | quoted_scalars,
    lambda inner: st.tuples(st.booleans(), st.lists(inner, max_size=3))
    | st.tuples(st.booleans(), st.dictionaries(st.sampled_from(["a", "b", "c", "key"]), inner, max_size=3)),
    max_leaves=12,
)


def _flow(node) -> str:
    if not isinstance(node, tuple):
        return str(node)
    items = node[1]
    if isinstance(items, list):
        return "[" + ", ".join(map(_flow, items)) + "]"
    return "{" + ", ".join(f"{k}: {_flow(v)}" for k, v in items.items()) + "}"


def _block(node, indent: int, comments) -> list[str]:
    """Lines of a node in block style where it asks for it (and is not empty), else one flow line."""
    pad = " " * indent
    items = node[1]
    heads = [f"{pad}- " for _ in items] if isinstance(items, list) else [f"{pad}{k}: " for k in items]
    values = items if isinstance(items, list) else list(items.values())
    lines = []
    for head, value in zip(heads, values):
        if isinstance(value, tuple) and value[0] and value[1]:
            lines.append(head.rstrip() + comments())
            lines += _block(value, indent + 2, comments)
        else:
            lines.append(head + _flow(value) + comments())
    return lines


@st.composite
def yaml_documents(draw) -> str:
    """A YAML document text mixing block and flow collections, comments and quoted scalars."""
    root = draw(yaml_nodes)

    def comments() -> str:
        return draw(st.sampled_from(["", "  # " + draw(indicator_text)]))

    if isinstance(root, tuple) and root[0] and root[1]:
        lines = _block(root, 0, comments)
    else:
        lines = [_flow(root) + comments()]
    return "\n".join(["# " + draw(indicator_text)] + lines) + "\n"


def _deepest_nesting(text: str) -> int:
    depth = deepest = 0
    for event in yaml.parse(text, Loader=yaml.SafeLoader):
        if isinstance(event, yaml.CollectionStartEvent):
            depth += 1
            deepest = max(deepest, depth)
        elif isinstance(event, yaml.CollectionEndEvent):
            depth -= 1
    return deepest


class TestNestingBound:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(text=yaml_documents())
    def test_indicator_count_bounds_the_nesting(self, text):
        # every collection opens at an indicator of its own, wherever else they appear
        assert sum(map(text.count, INDICATORS)) >= _deepest_nesting(text)

    @pytest.mark.parametrize("loader", YAML_LOADERS, ids=lambda loader: loader.__name__)
    def test_block_document_one_level_too_deep_is_refused(self, tmp_path, monkeypatch, loader):
        monkeypatch.setattr(scenario_io, "_LOADER", loader)
        path = tmp_path / "deep.yaml"
        # the root mapping and 32 block sequences: 33 levels from 33 indicators
        path.write_text("channel:\n" + "".join(" " * (2 * i + 2) + "-\n" for i in range(31)) + " " * 64 + "- 1\n")
        assert sum(map(path.read_text().count, INDICATORS)) == 33
        with pytest.raises(ScenarioError) as info:
            g.load_scenario(path)
        assert str(info.value) == f"{path}: nested deeper than 32 levels"

    def test_shipped_scenarios_skip_the_event_walk(self, monkeypatch):
        scenario_io._load.cache_clear()  # so that each file parses

        def walk(*args, **kwargs):
            raise AssertionError("parse events walked")

        monkeypatch.setattr(yaml, "parse", walk)
        for name in ("good_network.yaml", "weak_network.yaml"):
            assert sum(map((SCENARIOS / name).read_text().count, INDICATORS)) <= scenario_io.MAX_YAML_DEPTH
            g.load_scenario(SCENARIOS / name)
