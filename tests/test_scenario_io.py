import json
from dataclasses import replace
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import griddetect as g
from griddetect import ScenarioError, decision_tests, scenario_io

from cases import YAML_LOADERS

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
        def walk(*args, **kwargs):
            raise AssertionError("parse events walked")

        monkeypatch.setattr(yaml, "parse", walk)
        for name in ("good_network.yaml", "weak_network.yaml"):
            assert sum(map((SCENARIOS / name).read_text().count, INDICATORS)) <= scenario_io.MAX_YAML_DEPTH
            g.load_scenario(SCENARIOS / name)
