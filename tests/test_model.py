import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import griddetect as g
from griddetect import DomainError

from cases import GOOD_DETECT, good_scenario, weak_scenario


class TestChannelModel:
    def test_valid(self):
        ch = g.ChannelModel(p_c=0.9, p_w=0.1)
        assert ch.alarm_margin == pytest.approx(0.8)
        assert not ch.silent_when_undetected

    def test_equal_probs_rejected(self):
        with pytest.raises(DomainError, match="p_w < p_c"):
            g.ChannelModel(p_c=0.5, p_w=0.5)

    def test_inverted_probs_rejected(self):
        with pytest.raises(DomainError):
            g.ChannelModel(p_c=0.2, p_w=0.8)

    @pytest.mark.parametrize("p_c,p_w", [(1.2, 0.1), (0.9, -0.1), (0.0, 0.0), (0.5, 1.0)])
    def test_out_of_range_rejected(self, p_c, p_w):
        with pytest.raises(DomainError):
            g.ChannelModel(p_c=p_c, p_w=p_w)

    def test_perfect_channel_flagged(self):
        ch = g.ChannelModel(p_c=1.0, p_w=0.0)
        assert ch.silent_when_undetected
        assert ch.alarm_margin == 1.0


class TestTopology:
    def test_builtin_counts(self):
        assert g.builtin_topology("interior_square", [0.9, 0.5, 0.3]).counts == (1, 4, 4)
        assert g.builtin_topology("corner_square", [0.9, 0.5, 0.3]).counts == (1, 2, 1)
        assert g.builtin_topology("edge_square", [0.9, 0.5, 0.3]).counts == (1, 3, 2)
        assert g.builtin_topology("hexagon_interior", [0.9, 0.5]).counts == (1, 6)

    def test_builtin_length_mismatch(self):
        with pytest.raises(DomainError, match="3 classes"):
            g.builtin_topology("interior_square", [0.9, 0.5])
        with pytest.raises(DomainError, match="2 classes"):
            g.builtin_topology("hexagon_interior", [0.9, 0.5, 0.3])

    def test_unknown_kind(self):
        with pytest.raises(DomainError, match="unknown topology kind"):
            g.builtin_topology("triangle", [0.9])

    def test_custom_requires_counts(self):
        with pytest.raises(DomainError, match="counts"):
            g.builtin_topology("custom", [0.9, 0.5])
        topo = g.builtin_topology("custom", [0.9, 0.5], counts=[2, 7])
        assert topo.counts == (2, 7)
        assert topo.total_count == 9

    def test_class_validation(self):
        with pytest.raises(DomainError, match="count"):
            g.SensorClass(label="a", count=0, detect_prob=0.5)
        with pytest.raises(DomainError):
            g.SensorClass(label="a", count=1, detect_prob=0.0)
        with pytest.raises(DomainError):
            g.Topology(())

    def test_builtin_kind_refuses_counts(self):
        with pytest.raises(DomainError) as info:
            g.builtin_topology("interior_square", [0.9, 0.5, 0.3], counts=[1, 4, 4])
        assert str(info.value) == "topology kind 'interior_square' fixes its class counts; do not pass counts"

    def test_alarm_law_needs_a_class(self):
        with pytest.raises(DomainError) as info:
            g.ClassAlarmLaw((), ())
        assert str(info.value) == "alarm law needs at least one class"


class TestValidate:
    def test_reorders_descending(self):
        topo = g.builtin_topology("custom", [0.3, 0.7], counts=[4, 1])
        sc = g.validate(g.ChannelModel(0.8, 0.2), topo)
        assert sc.topology.detect_probs == (0.7, 0.3)
        assert sc.topology.counts == (1, 4)

    def test_equal_detect_probs_rejected(self):
        topo = g.builtin_topology("custom", [0.5, 0.5], counts=[1, 4])
        with pytest.raises(DomainError, match="merge"):
            g.validate(g.ChannelModel(0.8, 0.2), topo)

    def test_alarm_probability_that_rounds_to_p_w_rejected(self):
        topo = g.builtin_topology("custom", [1e-300, 1e-301], counts=[1, 2])
        with pytest.raises(DomainError, match="class 'class-1': alarm probability 5e-324 is too close to p_w"):
            g.validate(g.ChannelModel(1e-300, 5e-324), topo)

    def test_equal_alarm_probs_after_rounding_rejected(self):
        # distinct detect_probs whose alarm probabilities both underflow to 0
        topo = g.builtin_topology("custom", [1e-300, 1e-301], counts=[1, 2])
        with pytest.raises(DomainError, match="share alarm probability 0.0; merge"):
            g.validate(g.ChannelModel(1e-300, 0.0), topo)

    def test_idempotent(self):
        sc = good_scenario()
        again = g.validate(sc.channel, sc.topology, sc.prior)
        assert again == sc

    def test_prior_carried(self):
        sc = g.validate(g.ChannelModel(0.9, 0.1), g.builtin_topology("interior_square", GOOD_DETECT), g.Prior(0.2))
        assert sc.prior.event_prob == 0.2

    def test_prior_bounds(self):
        with pytest.raises(DomainError):
            g.Prior(0.0)
        with pytest.raises(DomainError):
            g.Prior(1.0)
        assert g.Prior(0.25).normal_prob == 0.75

    def test_loss_ratio_bounds(self):
        with pytest.raises(DomainError):
            g.LossRatio(0.0)
        with pytest.raises(DomainError):
            g.LossRatio(-2.0)
        assert g.LossRatio(5.0).value == 5.0


class TestDerivedStats:
    def test_good_network_values(self):
        sc = good_scenario()
        stats = sc.derived()
        assert sc.channel.alarm_margin == pytest.approx(0.8)
        assert stats.alarm_probs == pytest.approx((0.82, 0.5, 0.34))
        assert stats.silence_probs == pytest.approx((0.18, 0.5, 0.66))
        # first weight is log(41): alarm odds 0.82/0.18 against false-alarm odds 1/9
        assert stats.weights[0] == pytest.approx(math.log(41.0), abs=1e-12)
        assert stats.weights == pytest.approx((3.714, 2.197, 1.534), abs=5e-4)
        assert all(math.isfinite(w) for w in stats.weights)

    def test_weights_are_the_log_of_the_odds_quotient(self):
        stats, p_w = good_scenario().derived(), 0.1
        for a, w in zip(stats.alarm_probs, stats.weights):
            assert w == math.log(a * (1.0 - p_w) / ((1.0 - a) * p_w))

    @pytest.mark.parametrize("p_w", [5e-324, 1e-310])
    def test_weights_of_a_subnormal_p_w_are_finite(self, p_w):
        # the quotient's denominator rounds to 0 (5e-324) or the quotient overflows (1e-310)
        stats = g.validate(g.ChannelModel(0.9, p_w), g.builtin_topology("interior_square", (0.9, 0.7, 0.5))).derived()
        for a, w in zip(stats.alarm_probs, stats.weights):
            assert w == pytest.approx(math.log(a / (1.0 - a)) - math.log(p_w), rel=1e-15)

    def test_weak_network_weights(self):
        stats = weak_scenario().derived()
        assert stats.weights == pytest.approx((1.876, 0.897, 0.340), abs=5e-4)

    def test_perfect_channel_flags_infinite_weights(self):
        sc = g.validate(g.ChannelModel(1.0, 0.0), g.builtin_topology("custom", [0.9], counts=[1]))
        stats = sc.derived()
        assert stats.alarm_probs == (0.9,)
        assert stats.silence_probs == pytest.approx((0.1,))
        assert stats.weights == (math.inf,)
        assert sc.channel.silent_when_undetected

    def test_complement_identity(self):
        for sc in (good_scenario(), weak_scenario()):
            stats = sc.derived()
            for a, q in zip(stats.alarm_probs, stats.silence_probs):
                assert a + q == pytest.approx(1.0, abs=1e-15)
                assert a > sc.channel.p_w

    @given(
        p=st.floats(0.05, 0.95),
        delta=st.floats(0.01, 0.04),
        p_w=st.floats(0.05, 0.4),
        margin=st.floats(0.1, 0.5),
    )
    def test_weight_monotone_in_detect_prob(self, p, delta, p_w, margin):
        p_c = min(p_w + margin, 0.99)
        topo = g.builtin_topology("custom", [p], counts=[1])
        ch = g.ChannelModel(p_c=p_c, p_w=p_w)
        w_lo = g.derived_stats(ch, topo).weights[0]
        topo_hi = g.builtin_topology("custom", [min(p + delta, 0.999)], counts=[1])
        w_hi = g.derived_stats(ch, topo_hi).weights[0]
        assert w_hi > w_lo

    def test_weight_monotone_in_channel(self):
        topo = g.builtin_topology("custom", [0.6], counts=[1])
        base = g.derived_stats(g.ChannelModel(0.8, 0.2), topo).weights[0]
        assert g.derived_stats(g.ChannelModel(0.9, 0.2), topo).weights[0] > base
        assert g.derived_stats(g.ChannelModel(0.8, 0.1), topo).weights[0] > base


# probabilities from the whole float range: subnormals, 1e-300, 1 - 2**-53 and the ends
unit_floats = st.floats(0.0, 1.0) | st.floats(0.0, 1e-300) | st.sampled_from(
    [0.0, 5e-324, 1e-310, 1e-300, 1e-10, 0.5, 1 - 2**-53, 1.0]
)
# priors and loss ratios whose products and quotients underflow or overflow
float_extremes = st.sampled_from([0.9999999999999999, 1e-300, 1e-10, 1e308, 5e-324])


class TestInvariantsAfterRounding:
    """Any channel, detection probabilities, prior and loss ratio is either refused at
    validate or yields weights, error rates and rules inside their ranges."""

    # the reproductions: an odds quotient that divides by zero, one that overflows, and
    # classes whose alarm probabilities round to p_w
    @example(channel=[5e-324, 0.9], classes=[(1, 0.9), (4, 0.7), (4, 0.5)], p_e=0.2, loss=5.0, size=0.1)
    @example(channel=[1e-310, 0.9], classes=[(1, 0.9), (4, 0.7), (4, 0.5)], p_e=0.2, loss=5.0, size=0.1)
    @example(channel=[5e-324, 1e-300], classes=[(1, 1e-300), (2, 1e-301)], p_e=0.5, loss=5.0, size=0.1)
    # p_n * p_w rounds to 0 while P(normal | alarm) rounds to 1 or 2 of the smallest subnormal
    @example(channel=[5e-324, 0.9], classes=[(1, 0.9), (4, 0.7), (4, 0.5)], p_e=0.5, loss=5.0, size=0.1)
    # p_e * Q_i is subnormal, and a small 1 - p_w magnifies the bits it loses
    @example(channel=[0.999, 0.9999999999], classes=[(1, 1.0), (4, 0.7), (4, 0.5)], p_e=1e-310, loss=5.0, size=0.1)
    @settings(derandomize=True, deadline=None, max_examples=300,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        channel=st.lists(unit_floats, min_size=2, max_size=2).map(sorted),  # (p_w, p_c)
        # at most 3 classes of at most 3 sensors: at most 64 count tuples
        classes=st.lists(st.tuples(st.integers(1, 3), unit_floats), min_size=1, max_size=3),
        p_e=st.floats(0.0, 1.0) | float_extremes,
        loss=st.floats(5e-324, 1e308) | float_extremes,
        size=st.floats(0.0, 1.0) | float_extremes,
    )
    def test_refused_at_validate_or_in_range(self, channel, classes, p_e, loss, size):
        p_w, p_c = channel
        try:
            channel = g.ChannelModel(p_c=p_c, p_w=p_w)
            topology = g.builtin_topology("custom", [q for _, q in classes], counts=[n for n, _ in classes])
            prior, loss_ratio = g.Prior(p_e), g.LossRatio(loss)
        except DomainError:
            return  # refused before any derived quantity exists
        try:
            sc = g.validate(channel, topology, prior)
        except DomainError:
            return
        stats = sc.derived()
        assert all(0.0 <= a <= 1.0 for a in stats.alarm_probs + stats.silence_probs)
        for a, w in zip(stats.alarm_probs, stats.weights):
            assert w > 0.0, (a, w)
            assert w < math.inf or p_w == 0.0 or a == 1.0, (a, w)
        report = g.node_error_report(sc, prior)
        for family in (report.type1, report.type2, report.event_given_silent, report.normal_given_alarm):
            assert all(0.0 <= v <= 1.0 for v in family), family
        # both posteriors within a few rounding errors of the exact posteriors of the rounded inputs
        n, e, w = (Fraction(x) for x in (prior.normal_prob, prior.event_prob, p_w))
        posteriors = [(n * w / (n * w + e * Fraction(a)) if w else 0, v)
                      for a, v in zip(stats.alarm_probs, report.normal_given_alarm)]
        posteriors += [(e * Fraction(q) / (e * Fraction(q) + n * (1 - w)), v)
                       for q, v in zip(stats.silence_probs, report.event_given_silent)]
        for exact, v in posteriors:
            assert abs(Fraction(v) - exact) <= exact * Fraction(2) ** -50 + Fraction(2) ** -1074, (v, float(exact))
        certain = p_w > 0.0 and 1.0 in stats.alarm_probs  # no finite weight exists: rules refuse
        try:
            rules = [g.bayes_test(sc, prior, loss_ratio)]
            if 0.0 < size < 1.0:
                rules.append(g.solve_mp_test(sc, size))
        except DomainError:
            assert certain
            return
        assert not certain
        assert p_w == 0.0 or not math.isnan(rules[0].threshold)
        for rule in rules:
            ops = g.operating_characteristics(rule, sc)
            assert 0.0 <= ops.type1 <= 1.0 and 0.0 <= ops.power <= 1.0, (rule, ops)
