import math
import random
import statistics
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import griddetect as g
from griddetect import Condition, DomainError, SensorRecord, TrialLog
from griddetect.estimation import _summarize
from griddetect.model import TOPOLOGY_KINDS
from griddetect.simulator import _block_rows, trial_rng

from cases import GOOD_CHANNEL, good_scenario, weak_scenario
from log_reader_reference import read_log_file as reference_read_log_file

LOG_HEADER = "condition,trial,class_index,detected,responded\n"


def event_log(*records):
    return TrialLog(condition=Condition.CONTROLLED_EVENT, records=tuple(records))


def normal_log(*records):
    return TrialLog(condition=Condition.NORMAL, records=tuple(records))


class TestLogValidation:
    def test_normal_log_cannot_detect(self):
        with pytest.raises(DomainError, match="detections"):
            normal_log(SensorRecord(0, 1, 1))

    def test_empty_log_rejected(self):
        with pytest.raises(DomainError):
            TrialLog(condition=Condition.NORMAL, records=())

    def test_record_bits(self):
        with pytest.raises(DomainError):
            SensorRecord(0, 2, 0)
        with pytest.raises(DomainError):
            SensorRecord(-1, 0, 0)


class TestDetectionEstimator:
    def test_single_sensor_proportion(self):
        logs = [
            event_log(SensorRecord(0, 1, 1)),
            event_log(SensorRecord(0, 1, 0)),
            event_log(SensorRecord(0, 0, 0)),
        ]
        estimates = g.estimate_detection(logs)
        assert estimates[0].value == pytest.approx(2 / 3)
        assert estimates[0].n_logs == 3

    def test_all_silent_is_a_valid_estimate(self):
        logs = [event_log(SensorRecord(0, 0, 0)), event_log(SensorRecord(0, 0, 0))]
        estimates = g.estimate_detection(logs)
        assert estimates[0].value == 0.0
        assert estimates[0].std_error == 0.0

    def test_per_log_averaging(self):
        # log proportions 1.0 and 0.0 average to 0.5 even with unequal sensor counts
        logs = [
            event_log(SensorRecord(0, 1, 1), SensorRecord(0, 1, 0), SensorRecord(0, 1, 1)),
            event_log(SensorRecord(0, 0, 0)),
        ]
        assert g.estimate_detection(logs)[0].value == pytest.approx(0.5)

    def test_missing_class_detected(self):
        logs = [event_log(SensorRecord(0, 1, 1))]
        with pytest.raises(DomainError, match="class indices"):
            g.estimate_detection(logs, expected_classes=2)

    def test_condition_enforced(self):
        with pytest.raises(DomainError, match="event-condition"):
            g.estimate_detection([normal_log(SensorRecord(0, 0, 1))])
        with pytest.raises(DomainError):
            g.estimate_detection([])


class TestResponseEstimators:
    def test_false_response_proportion(self):
        records = [SensorRecord(0, 0, 1), SensorRecord(0, 0, 1)] + [
            SensorRecord(0, 0, 0) for _ in range(7)
        ]
        assert g.estimate_false_response([normal_log(*records)]).value == pytest.approx(2 / 9)

    def test_false_response_all_zero(self):
        logs = [normal_log(SensorRecord(0, 0, 0), SensorRecord(1, 0, 0))]
        assert g.estimate_false_response(logs).value == 0.0

    def test_correct_response_conditions_on_detection(self):
        log = event_log(
            SensorRecord(0, 1, 1),
            SensorRecord(0, 1, 1),
            SensorRecord(0, 1, 1),
            SensorRecord(0, 1, 0),
            SensorRecord(0, 0, 1),  # undetected sensors must not dilute the estimate
        )
        assert g.estimate_correct_response([log]).value == pytest.approx(0.75)

    def test_correct_response_single_detection(self):
        assert g.estimate_correct_response([event_log(SensorRecord(0, 1, 1))]).value == 1.0

    def test_correct_response_requires_detections(self):
        logs = [event_log(SensorRecord(0, 0, 0))]
        with pytest.raises(DomainError, match="no detections"):
            g.estimate_correct_response(logs)

    def test_condition_enforced(self):
        with pytest.raises(DomainError, match="normal-condition"):
            g.estimate_false_response([event_log(SensorRecord(0, 1, 1))])


class TestRoundTrip:
    @pytest.mark.parametrize("scenario,detect,channel", [
        (good_scenario(), (0.9, 0.5, 0.3), (0.9, 0.1)),
        (weak_scenario(), (0.7, 0.3, 0.1), (0.8, 0.2)),
    ])
    def test_recovery_within_three_se(self, scenario, detect, channel):
        p_c, p_w = channel
        event_logs = g.generate_trial_logs(scenario, Condition.CONTROLLED_EVENT, 2000, 51)
        normal_logs = g.generate_trial_logs(scenario, Condition.NORMAL, 2000, 52)

        detection = g.estimate_detection(event_logs, expected_classes=3)
        for ci, true_p in enumerate(detect):
            est = detection[ci]
            assert est.std_error > 0
            assert abs(est.value - true_p) <= 3 * est.std_error

        est_pw = g.estimate_false_response(normal_logs)
        assert abs(est_pw.value - p_w) <= 3 * est_pw.std_error

        est_pc = g.estimate_correct_response(event_logs)
        assert abs(est_pc.value - p_c) <= 3 * est_pc.std_error

    def test_standard_errors_shrink(self):
        sc = good_scenario()
        logs = g.generate_trial_logs(sc, Condition.CONTROLLED_EVENT, 10_000, 61)
        ses = [
            g.estimate_detection(logs[:n])[1].std_error for n in (100, 1000, 10_000)
        ]
        assert ses[0] > ses[1] > ses[2] > 0

    def test_log_generation_deterministic(self):
        sc = good_scenario()
        a = g.generate_trial_logs(sc, Condition.NORMAL, 50, 9)
        b = g.generate_trial_logs(sc, Condition.NORMAL, 50, 9)
        assert a == b


def _draw_world_logs(scenario, condition, n_logs, seed):
    """generate_trial_logs by the reference path: one draw_world per log on its own generator."""
    truth = g.Truth.EVENT if condition is Condition.CONTROLLED_EVENT else g.Truth.NORMAL
    logs = []
    for i in range(n_logs):
        detections, responses = g.draw_world(scenario, truth, trial_rng(g.derive_trial_seed(seed, i)))
        records = [
            SensorRecord(ci, y, x)
            for ci, (ys, xs) in enumerate(zip(detections, responses))
            for y, x in zip(ys, xs)
        ]
        logs.append(TrialLog(condition=condition, records=tuple(records)))
    return logs


class TestBlockLogs:
    @pytest.mark.parametrize("condition", list(Condition))
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_equal_to_draw_world_across_a_block_boundary(self, condition, seed):
        # 300 sensors: blocks of a few hundred logs, so a short run crosses one
        topology = g.builtin_topology("custom", [0.9, 0.5, 0.2], counts=[100, 100, 100])
        sc = g.validate(g.ChannelModel(0.9, 0.1), topology)
        n_logs = _block_rows(2 * 300) + 3
        logs = g.generate_trial_logs(sc, condition, n_logs, seed)
        assert logs == _draw_world_logs(sc, condition, n_logs, seed)
        assert {type(r.detected) for log in logs for r in log.records} == {int}

    @pytest.mark.parametrize("condition", list(Condition))
    def test_equal_to_draw_world_on_the_interior_cell(self, condition):
        sc = good_scenario()
        assert g.generate_trial_logs(sc, condition, 60, 8) == _draw_world_logs(sc, condition, 60, 8)

    def test_draw_cap(self):
        topology = g.builtin_topology("custom", [0.9, 0.5], counts=[160, 161])
        sc = g.validate(g.ChannelModel(0.9, 0.1), topology)
        with pytest.raises(DomainError, match="321 sensors; log generation is capped"):
            g.generate_trial_logs(sc, Condition.NORMAL, 1, 0)

    def test_n_logs_must_be_positive(self):
        with pytest.raises(DomainError) as info:
            g.generate_trial_logs(good_scenario(), Condition.NORMAL, 0, 0)
        assert str(info.value) == "n_logs must be positive, got 0"


class TestLogFileFormat:
    def test_round_trip(self, tmp_path):
        sc = good_scenario()
        logs = g.generate_trial_logs(sc, Condition.CONTROLLED_EVENT, 5, 1) + g.generate_trial_logs(
            sc, Condition.NORMAL, 5, 2
        )
        path = tmp_path / "logs.csv"
        g.write_log_file(path, logs)
        back = g.read_log_file(path)
        assert back == logs

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(DomainError, match="header"):
            g.read_log_file(path)

    def test_field_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("condition,trial,class_index,detected,responded\nevent,0,0,7,1\n")
        with pytest.raises(DomainError, match="line 2"):
            g.read_log_file(path)

    @pytest.mark.parametrize("kind", sorted(TOPOLOGY_KINDS))
    def test_round_trip_every_builtin_topology(self, tmp_path, kind):
        n_classes = len(TOPOLOGY_KINDS[kind])
        topology = g.builtin_topology(kind, (0.9, 0.5, 0.3)[:n_classes])
        sc = g.validate(g.ChannelModel(*GOOD_CHANNEL), topology)
        logs = g.generate_trial_logs(sc, Condition.CONTROLLED_EVENT, 40, 3) + g.generate_trial_logs(
            sc, Condition.NORMAL, 40, 4
        )
        path = tmp_path / "logs.csv"
        g.write_log_file(path, logs)
        assert g.read_log_file(path) == logs

    @pytest.mark.parametrize(
        "row, message",
        [
            ("event,9,0,7,1", "detected/responded must be 0 or 1"),
            ("evnt,9,0,1,1", "'evnt' is not a valid Condition"),
            ("event,x,0,1,1", "invalid literal for int() with base 10: 'x'"),
            ("evnt,x,0,7,1", "'evnt' is not a valid Condition"),
            ("event,x,0,7,1", "invalid literal for int() with base 10: 'x'"),
            ("event, x,0,1,1", "invalid literal for int() with base 10: ' x'"),
            ("event,0,0,7,1", "detected/responded must be 0 or 1"),
            ("normal,0,0,0,0", "trial 0 mixes conditions"),
        ],
    )
    def test_bad_row_after_repeated_good_rows(self, tmp_path, row, message):
        # rows repeating earlier fields reuse their parse; a bad one still names its own line
        path = tmp_path / "bad.csv"
        path.write_text(LOG_HEADER + "event,0,0,1,1\n" * 50 + row + "\n")
        with pytest.raises(DomainError) as info:
            g.read_log_file(path)
        assert str(info.value) == f"line 52: {message}"

    def test_padded_fields(self, tmp_path):
        path = tmp_path / "padded.csv"
        path.write_text(LOG_HEADER + " event, 1, 0, 1, 1\nevent,1,0,1,1\nnormal , 2,1 ,0, 0\n")
        assert g.read_log_file(path) == [
            event_log(SensorRecord(0, 1, 1), SensorRecord(0, 1, 1)),
            normal_log(SensorRecord(1, 0, 0)),
        ]

    def test_trial_ids_equal_as_integers_form_one_trial(self, tmp_path):
        path = tmp_path / "ids.csv"
        path.write_text(LOG_HEADER + "event,1,0,1,1\nevent,01,1,0,0\nevent, 1,0,1,0\nevent,2,0,0,0\n")
        assert g.read_log_file(path) == [
            event_log(SensorRecord(0, 1, 1), SensorRecord(1, 0, 0), SensorRecord(0, 1, 0)),
            event_log(SensorRecord(0, 0, 0)),
        ]

    def test_mixed_condition_trial_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "condition,trial,class_index,detected,responded\n"
            "event,0,0,1,1\n"
            "normal,0,0,0,0\n"
        )
        with pytest.raises(DomainError, match="mixes conditions"):
            g.read_log_file(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("condition,trial,class_index,detected,responded\n")
        with pytest.raises(DomainError, match="no records"):
            g.read_log_file(path)


# Trial id texts, several naming one trial as integers; a trial's condition follows its integer's parity.
TRIAL_TEXTS = ("0", "1", "2", "3", "01", " 1", "1 ", "+2", "0_3")
CONDITION_TEXTS = {"event": ("event", " event", "event "), "normal": ("normal", "normal ")}
BAD_ROWS = (  # one of each error class, after the good rows or among them; the last fails on its first field
    ("evnt", "0", "0", "1", "1"), ("event", "x", "0", "1", "1"), ("event", "0", "-1", "1", "1"),
    ("event", "0", "y", "1", "1"), ("event", "0", "0", "7", "1"), ("event", "0", "0", "1", "2"),
    ("normal", "0", "0", "0", "0"), ("event", "01", "0", "0", "0"), ("normal", "1", "0", "1", "0"),
    ("event", "0", "0", "1"), ("event", "0", "0", "1", "1", "1"), ("evnt", "x", "0", "7", "1"),
)


@st.composite
def log_files(draw) -> bytes:
    """A calibration log: good rows over interleaved trial ids, padded, quoted or blank, then maybe one bad row."""
    rows = []
    for _ in range(draw(st.integers(0, 40))):
        t = draw(st.sampled_from(TRIAL_TEXTS))
        condition = "event" if int(t) % 2 == 0 else "normal"
        detected = draw(st.sampled_from(("0", "1", " 1"))) if condition == "event" else "0"
        rows.append((draw(st.sampled_from(CONDITION_TEXTS[condition])), t, draw(st.sampled_from(("0", "1", "2", " 2"))),
                     detected, draw(st.sampled_from(("0", "1", "1 ")))))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(BAD_ROWS)))
    lines = []
    for row in rows:
        lines.extend([""] * draw(st.integers(0, 1)))  # blank lines still count toward line numbers
        lines.append(",".join(f'"{f}"' if draw(st.integers(0, 5)) == 0 else f for f in row))
    newline = draw(st.sampled_from(("\n", "\r\n")))
    return newline.join([LOG_HEADER.strip()] + lines + [""]).encode()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(body=log_files())
def test_reader_matches_the_reference_reader(tmp_path, body):
    path = tmp_path / "log.csv"
    path.write_bytes(body)
    try:
        want = reference_read_log_file(path)
    except DomainError as exc:
        with pytest.raises(DomainError) as info:
            g.read_log_file(path)
        assert str(info.value) == str(exc)
    else:
        assert g.read_log_file(path) == want


def _proportion_samples():
    rng = random.Random(17)
    for _ in range(300):
        m = rng.randint(1, 12)
        yield [rng.randint(0, m) / m for _ in range(rng.randint(2, 50))]  # one class size
        yield [rng.randint(0, b) / b for b in (rng.randint(1, 9) for _ in range(rng.randint(2, 50)))]
        yield [rng.random() for _ in range(rng.randint(2, 50))]
    yield from ([0.3, 0.7], [1.0, 0.0], [0.1, 0.1 + 2**-52], [2 / 3] * 7, [0.0] * 4, [1.0] * 40, [0.0, 1e-300])


@pytest.mark.skipif(sys.version_info < (3, 11), reason="statistics.stdev rounds correctly from Python 3.11 on")
def test_standard_error_is_bit_identical_to_statistics():
    for proportions in _proportion_samples():
        n = len(proportions)
        est = _summarize(proportions)
        assert est.std_error == statistics.stdev(proportions) / math.sqrt(n), proportions
        assert est.value == statistics.fmean(proportions)
