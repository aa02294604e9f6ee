import random
from fractions import Fraction

import pytest

import griddetect as g

from cases import degenerate_scenario, good_scenario, random_scenario, weak_scenario


def report(scenario, p_e):
    return g.node_error_report(scenario, g.Prior(p_e))


class TestClosedForms:
    def test_good_type1(self):
        rep = report(good_scenario(), 0.1)
        assert rep.type1 == pytest.approx((0.1800, 0.5000, 0.6600), abs=5e-5)
        assert rep.type2 == pytest.approx((0.1, 0.1, 0.1))

    def test_weak_type1(self):
        rep = report(weak_scenario(), 0.1)
        assert rep.type1 == pytest.approx((0.3800, 0.6200, 0.7400), abs=5e-5)

    def test_good_posteriors_low_prior(self):
        rep = report(good_scenario(), 0.1)
        assert rep.event_given_silent[0] == pytest.approx(0.0217, abs=5e-5)
        assert rep.normal_given_alarm[0] == pytest.approx(0.5233, abs=5e-5)
        assert rep.normal_given_alarm[2] == pytest.approx(0.7258, abs=5e-5)

    def test_weak_posteriors_low_prior(self):
        rep = report(weak_scenario(), 0.1)
        assert rep.event_given_silent[0] == pytest.approx(0.0501, abs=5e-5)

    def test_posterior_identities(self):
        # closed forms re-derived from the joint law of (truth, response)
        sc = weak_scenario()
        stats = sc.derived()
        p_w = sc.channel.p_w
        for p_e in (0.15, 0.35, 0.6):
            rep = report(sc, p_e)
            p_n = 1.0 - p_e
            for i in range(3):
                silent_joint_event = p_e * stats.silence_probs[i]
                silent_joint_normal = p_n * (1.0 - p_w)
                assert rep.event_given_silent[i] == pytest.approx(
                    silent_joint_event / (silent_joint_event + silent_joint_normal), rel=1e-14
                )
                alarm_joint_event = p_e * stats.alarm_probs[i]
                alarm_joint_normal = p_n * p_w
                assert rep.normal_given_alarm[i] == pytest.approx(
                    alarm_joint_normal / (alarm_joint_event + alarm_joint_normal), rel=1e-14
                )

    def test_perfect_channel_posteriors(self):
        rep = report(degenerate_scenario(), 0.3)
        assert rep.type2 == (0.0, 0.0, 0.0)
        assert rep.normal_given_alarm == (0.0, 0.0, 0.0)
        assert rep.type1 == pytest.approx((0.1, 0.5, 0.7))

    def test_subnormal_p_w_keeps_the_alarm_posterior(self):
        # p_n * p_w = 0.5 * 5e-324 rounds to 0; the posteriors round to one or two of the smallest subnormal
        sc = g.validate(g.ChannelModel(p_c=0.9, p_w=5e-324), g.builtin_topology("custom", [0.9, 0.7, 0.5], [1, 4, 4]))
        joint_normal = Fraction(0.5) * Fraction(5e-324)
        exact = [joint_normal / (joint_normal + Fraction(0.5) * Fraction(a)) for a in sc.derived().alarm_probs]
        assert report(sc, 0.5).normal_given_alarm == tuple(map(float, exact)) == (5e-324, 1e-323, 1e-323)

    def test_detect_prob_anchors(self):
        # vanishing detection: silence approaches 1 - p_w; perfect detection: 1 - p_c
        ch = g.ChannelModel(0.85, 0.15)
        lo = g.derived_stats(ch, g.builtin_topology("custom", [1e-12], counts=[1]))
        hi = g.derived_stats(ch, g.builtin_topology("custom", [1.0], counts=[1]))
        assert lo.silence_probs[0] == pytest.approx(1.0 - 0.15, abs=1e-11)
        assert hi.silence_probs[0] == pytest.approx(1.0 - 0.85, abs=1e-15)


class TestMonotonicity:
    def test_directions_on_random_grid(self):
        rng = random.Random(2024)
        for _ in range(300):
            sc = random_scenario(rng)
            p_e = rng.uniform(0.05, 0.9)
            base = report(sc, p_e)
            i = rng.randrange(len(sc.topology.classes))

            bumped = _bump_class(sc, i)
            if bumped is not None:
                rep = report(bumped, p_e)
                assert rep.event_given_silent[i] < base.event_given_silent[i]
                assert rep.normal_given_alarm[i] < base.normal_given_alarm[i]

            up_pc = _with_channel(sc, sc.channel.p_c + (1.0 - sc.channel.p_c) / 2, sc.channel.p_w)
            rep = report(up_pc, p_e)
            assert rep.event_given_silent[i] < base.event_given_silent[i]
            assert rep.normal_given_alarm[i] < base.normal_given_alarm[i]

            up_pw = _with_channel(sc, sc.channel.p_c, sc.channel.p_w + (sc.channel.p_c - sc.channel.p_w) / 4)
            rep = report(up_pw, p_e)
            assert rep.event_given_silent[i] > base.event_given_silent[i]
            assert rep.normal_given_alarm[i] > base.normal_given_alarm[i]

            rep = report(sc, p_e + (1.0 - p_e) / 2)
            assert rep.event_given_silent[i] > base.event_given_silent[i]
            assert rep.normal_given_alarm[i] < base.normal_given_alarm[i]

    def test_independent_of_other_classes(self):
        sc = good_scenario()
        base = report(sc, 0.2)
        # nudge the middle class only; first and last posteriors must not move a bit
        probs = list(sc.topology.detect_probs)
        probs[1] += 0.07
        other = g.validate(sc.channel, g.builtin_topology("interior_square", probs))
        rep = report(other, 0.2)
        for i in (0, 2):
            assert rep.event_given_silent[i] == base.event_given_silent[i]
            assert rep.normal_given_alarm[i] == base.normal_given_alarm[i]


def _with_channel(sc, p_c, p_w):
    return g.validate(g.ChannelModel(p_c=p_c, p_w=p_w), sc.topology)


def _bump_class(sc, i):
    """Raise class i's detection probability, keeping the strict ordering."""
    probs = list(sc.topology.detect_probs)
    upper = 1.0 if i == 0 else probs[i - 1]
    room = upper - probs[i]
    if room <= 1e-6:
        return None
    probs[i] += room / 2
    counts = sc.topology.counts
    return g.validate(sc.channel, g.builtin_topology("custom", probs, counts=counts))


def test_report_shape_and_bounds():
    rng = random.Random(7)
    for _ in range(50):
        sc = random_scenario(rng)
        rep = report(sc, rng.uniform(0.05, 0.95))
        k = len(sc.topology.classes)
        assert len(rep.type1) == len(rep.type2) == k
        assert len(rep.event_given_silent) == len(rep.normal_given_alarm) == k
        for seq in (rep.type1, rep.type2, rep.event_given_silent, rep.normal_given_alarm):
            assert all(0.0 <= v <= 1.0 for v in seq)


def test_subnormal_joint_silence_keeps_its_bits():
    # p_e * Q_i is subnormal: each posterior is the exact posterior of the rounded inputs, rounded once
    topology = g.builtin_topology("custom", [1.0, 0.7, 0.5], counts=[1, 4, 4])
    sc, prior = g.validate(g.ChannelModel(p_c=0.9999999999, p_w=0.1), topology), g.Prior(1e-310)
    rep = g.node_error_report(sc, prior)
    p_e, p_n = Fraction(prior.event_prob), Fraction(prior.normal_prob)
    exact = [p_e * Fraction(q) / (p_e * Fraction(q) + p_n * (1 - Fraction(0.1))) for q in sc.derived().silence_probs]
    assert rep.event_given_silent == tuple(map(float, exact))
    assert rep.event_given_silent[1] == 3.000000000778e-311


def test_subnormal_prior_at_p_w_zero():
    # p_e * A_i underflows to 0, but an alarm is impossible under the normal hypothesis
    for sc in (degenerate_scenario(), g.validate(g.ChannelModel(0.8, 0.0), good_scenario().topology)):
        rep = report(sc, 5e-324)
        assert rep.normal_given_alarm == (0.0,) * 3
        assert all(0.0 <= x < 1e-300 for x in rep.event_given_silent)
