import itertools
import math
import random
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import griddetect as g
from griddetect import DomainError, Verdict, decision_tests
from griddetect.scenario_io import load_scenario
from griddetect.score_dist import MERGE_REL_TOL, atom_tolerance, cell_grid, cell_masses, exact_sum, tuple_scores

from cases import (
    FixedCoin,
    GOOD_APPROX,
    WEAK_APPROX,
    degenerate_scenario,
    good_scenario,
    random_scenario,
    weak_scenario,
)

SHIPPED = Path(__file__).resolve().parents[1] / "scenarios"

# Frozen by exact atom enumeration of the integer-approximated laws; the
# reference table prints these k values rounded to two decimals.
TABLE3 = {
    ("good", 0.10): (8.0, 0.03823299009140923),
    ("good", 0.05): (6.0, 0.13575437891777045),
    ("good", 0.025): (5.0, 0.18315718773937867),
    ("good", 0.01): (3.0, 0.331947410804944),
    ("weak", 0.10): (7.0, 0.07926097393689989),
    ("weak", 0.05): (5.0, 0.018118427069044388),
    ("weak", 0.025): (2.0, 0.3931184270690444),
    ("weak", 0.01): (0.0, 0.6096631611034903),
}

# Frozen closed-form Bayes thresholds for the twelve (prior, loss) rows.
BAYES_THRESHOLDS = {
    ("good", 0.1, 5): 5.788990950160054,
    ("good", 0.3, 5): 4.439064233211037,
    ("good", 0.5, 5): 3.591766372823834,
    ("good", 0.1, 20): 4.402696589040163,
    ("good", 0.3, 20): 3.052769872091147,
    ("good", 0.5, 20): 2.2054720117039435,
    ("weak", 0.1, 5): 2.663642304243624,
    ("weak", 0.3, 5): 1.313715587294608,
    ("weak", 0.5, 5): 0.4664177269074046,
    ("weak", 0.1, 20): 1.2773479431237331,
    ("weak", 0.3, 20): -0.07257877382528255,
    ("weak", 0.5, 20): -0.919876634212486,
}


def scenario_named(name):
    return good_scenario() if name == "good" else weak_scenario()


def approx_named(name):
    return GOOD_APPROX if name == "good" else WEAK_APPROX


def _event_law(sc):
    stats = sc.derived()
    return g.score_distribution(stats.weights, g.ClassAlarmLaw(sc.topology.counts, stats.alarm_probs))


class TestSolveMPTest:
    @pytest.mark.parametrize("name,size", sorted(TABLE3))
    def test_frozen_approximate_rules(self, name, size):
        lam, k = TABLE3[(name, size)]
        test = g.solve_mp_test(scenario_named(name), size, **approx_named(name))
        assert test.threshold == lam
        assert test.boundary_prob == pytest.approx(k, abs=1e-12)
        assert test.exact_size == pytest.approx(size, abs=1e-12)

    def test_exact_mode_size_calibration(self):
        for sc in (good_scenario(), weak_scenario()):
            for size in (0.5, 0.1, 0.01, 0.317):
                test = g.solve_mp_test(sc, size)
                assert test.exact_size == pytest.approx(size, abs=1e-12)
                h0 = g.score_distribution(
                    test.weights,
                    g.ClassAlarmLaw(sc.topology.counts, sc.derived().alarm_probs),
                )
                recomputed = h0.prob_below(test.threshold) + test.boundary_prob * h0.prob_at(test.threshold)
                assert recomputed == pytest.approx(size, abs=1e-12)

    def test_random_size_exactness(self):
        rng = random.Random(11)
        for _ in range(30):
            sc = random_scenario(rng)
            size = rng.uniform(0.001, 0.999)
            test = g.solve_mp_test(sc, size)
            assert test.exact_size == pytest.approx(size, abs=1e-12)

    def test_size_on_a_cumulative_mass_takes_the_next_atom(self):
        # size = P(X <= v_i), summed atom by atom: the rule rejects every atom
        # up to v_i and none of v_{i+1}
        sc = good_scenario()
        h0 = _event_law(sc)
        values = [a.value for a in h0.atoms]
        cumulative = list(itertools.accumulate(a.prob for a in h0.atoms))
        sizes = [(i, c) for i, c in enumerate(cumulative) if 0.0 < c < 1.0]
        assert len(sizes) > 40
        for i, size in sizes:
            test = g.solve_mp_test(sc, size)
            assert (test.threshold, test.boundary_prob, test.exact_size) == (values[i + 1], 0.0, size)

    def test_walk_matches_running_sum(self):
        rng = random.Random(5)
        for _ in range(20):
            sc = random_scenario(rng)
            size = rng.uniform(0.001, 0.999)
            h0 = _event_law(sc)
            below = 0.0
            for atom in h0.atoms:
                if size < below + atom.prob or atom is h0.atoms[-1]:
                    k = min(1.0, max(0.0, (size - below) / atom.prob))
                    break
                below += atom.prob
            test = g.solve_mp_test(sc, size)
            expected = (atom.value, k, below + k * atom.prob)
            assert (test.threshold, test.boundary_prob, test.exact_size) == expected

    def test_tiny_size_lands_on_lowest_atom(self):
        sc = weak_scenario()
        test = g.solve_mp_test(sc, 0.01, **WEAK_APPROX)
        assert test.threshold == 0.0
        assert 0.0 < test.boundary_prob < 1.0

    @pytest.mark.parametrize("size", [0.0, 1.0, -0.2, 1.5])
    def test_size_bounds(self, size):
        with pytest.raises(DomainError):
            g.solve_mp_test(good_scenario(), size)

    def test_table_of_sizes_equals_one_size_at_a_time(self):
        rng = random.Random(8)
        cases = [(random_scenario(rng), {}) for _ in range(10)]
        cases += [(weak_scenario(), WEAK_APPROX), (good_scenario(), {"weights": (5.0, 3.0, 2.0)}),
                  (degenerate_scenario(), {})]
        for sc, overrides in cases:
            sizes = [rng.uniform(0.001, 0.5) for _ in range(4)]
            want = [g.solve_mp_test(sc, size, **overrides) for size in sizes]
            assert decision_tests.solve_mp_tests(sc, sizes, **overrides) == want

    def test_table_builds_one_score_law(self, monkeypatch):
        calls = []
        law = decision_tests.score_law_prefix
        monkeypatch.setattr(decision_tests, "score_law_prefix", lambda *a: calls.append(a) or law(*a))
        tests = decision_tests.solve_mp_tests(good_scenario(), (0.1, 0.05, 0.025, 0.01), **GOOD_APPROX)
        assert [t.requested_size for t in tests] == [0.1, 0.05, 0.025, 0.01]
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "sizes, message",
        [((0.1, 2.0), "overrides are meaningless"), ((2.0, 0.1), "test size must lie in")],
    )
    def test_table_fails_where_its_first_bad_size_would(self, sizes, message):
        # each size is checked before the rule that needs it, as size by size
        with pytest.raises(DomainError, match=message):
            decision_tests.solve_mp_tests(degenerate_scenario(), sizes, weights=(1.0, 1.0, 1.0))

    def test_certain_alarm_class_rejected(self):
        sc = g.validate(
            g.ChannelModel(1.0, 0.2), g.builtin_topology("custom", [1.0, 0.5], counts=[1, 2])
        )
        with pytest.raises(DomainError, match="certain"):
            g.solve_mp_test(sc, 0.1)
        with pytest.raises(DomainError, match="certain"):
            g.bayes_test(sc, g.Prior(0.1), g.LossRatio(5))


def _reference_walk(dist, cum, size):
    """The search of solve_mp_tests over a whole law ``dist`` and its running sum ``cum``."""
    i = min(int(np.searchsorted(cum, size, side="right")), len(cum) - 1)
    below, prob = (float(cum[i - 1]) if i else 0.0), float(dist.probs[i])
    k = min(1.0, max(0.0, (size - below) / prob))
    return float(dist.values[i]), k, below + k * prob


class TestBoundedWalk:
    """solve_mp_tests sums the event law only up to its largest size, with the bits of a walk over the whole law."""

    # a size that rounded atom sums pass and the exact running sum never does, so the whole law is summed;
    # a size inside the first atom; zero-mass tuples, merged afresh
    @example(classes=[(1, 19, 3, 1e-13), (3, 15, 2, 0.9), (3, 10, 3, 1e-13), (1, 5, 1, 0.2)], integer=True,
             override=True, sizes=[0.9999999999999999], at_sums=[])
    @example(classes=[(3, 18, 3, 0.5), (3, 10, 2, 0.5), (3, 4, 1, 0.5)], integer=True, override=False,
             sizes=[1e-320, 0.3], at_sums=[])
    @example(classes=[(3, 18, 2, 0.0), (3, 10, 1, 0.4), (2, 4, 1, 1.0)], integer=True, override=True,
             sizes=[0.05, 0.5], at_sums=[])
    # a size one unit in the last place above a running sum, which rounded atom sums pass an atom early
    @example(classes=[(3, 15, 3, 0.5), (3, 8, 3, 0.5), (2, 6, 4, 0.5)], integer=True, override=False,
             sizes=[], at_sums=[(7, 1)])
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        # per class: count, detection probability in 20ths, integer weight, event alarm probability override
        classes=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 19), st.integers(1, 4),
                                   st.sampled_from([0.0, 1e-13, 0.2, 0.5, 1 - 1e-13, 1.0])),
                         min_size=2, max_size=5, unique_by=lambda c: c[1]),
        integer=st.booleans(),
        override=st.booleans(),
        sizes=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
                       | st.sampled_from([5e-324, 1e-320, 0.5, 0.9999999999999999]), min_size=1, max_size=4),
        # sizes a few units in the last place above an atom's running sum, which rounded atom sums may pass
        # an atom early
        at_sums=st.lists(st.tuples(st.integers(0, 63), st.integers(0, 3)), max_size=2),
    )
    def test_same_bits_as_the_whole_law(self, classes, integer, override, sizes, at_sums):
        classes = sorted(classes, key=lambda c: -c[1])
        counts = [c[0] for c in classes]
        topology = g.builtin_topology("custom", [c[1] / 20 for c in classes], counts=counts)
        sc = g.validate(g.ChannelModel(p_c=0.9, p_w=0.1), topology)
        overrides = {"weights": [float(c[2]) for c in classes]} if integer else {}
        if override:
            overrides["event_alarm_probs"] = [c[3] for c in classes]
        weights = overrides.get("weights", sc.derived().weights)
        law = g.ClassAlarmLaw(counts, overrides["event_alarm_probs"]) if override else sc.derived().event_law
        dist = g.score_distribution(weights, law)
        cum = np.cumsum(dist.probs)
        above = [(s := float(cum[j % len(cum)])) + ulps * math.ulp(s) for j, ulps in at_sums]
        sizes = sizes + [size for size in above if 0.0 < size < 1.0]
        solved = decision_tests.solve_mp_tests(sc, sizes, **overrides)
        got = [(t.threshold, t.boundary_prob, t.exact_size) for t in solved]
        want = [_reference_walk(dist, cum, size) for size in sizes]
        assert [[x.hex() for x in row] for row in got] == [[x.hex() for x in row] for row in want]

    @pytest.mark.parametrize("n_classes", [5, 6])
    def test_wide_exact_laws_past_the_first_piece(self, n_classes):
        # one-row atoms: the running sum grows over 4,096 rows, then four times as many, until it passes the size
        topology = g.builtin_topology("custom", (0.93, 0.78, 0.61, 0.47, 0.3, 0.12)[:n_classes],
                                      counts=(6,) * n_classes)
        sc = g.validate(g.ChannelModel(p_c=0.85, p_w=0.15), topology)
        dist = g.score_distribution(sc.derived().weights, sc.derived().event_law)
        assert (np.diff(dist.starts) == 1).all()
        cum = np.cumsum(dist.probs)
        pieces = [4096 * 4**p for p in range(5) if 4096 * 4**p < len(cum)]
        # the running sum at each piece boundary, one ulp either side of it, and sizes up to 1 - 2**-53
        at_bounds = [f(float(cum[n - 1])) for n in pieces
                     for f in (lambda s: s, lambda s: s + math.ulp(s), lambda s: s - math.ulp(s))]
        sizes = [0.0098, 0.2, 0.5, 0.99, 1 - 2**-52, 1 - 2**-53] + [s for s in at_bounds if 0.0 < s < 1.0]
        want = [[x.hex() for x in _reference_walk(dist, cum, size)] for size in sizes]
        one_at_a_time = [g.solve_mp_test(sc, size) for size in sizes]
        assert [[x.hex() for x in (t.threshold, t.boundary_prob, t.exact_size)] for t in one_at_a_time] == want
        assert decision_tests.solve_mp_tests(sc, sizes) == one_at_a_time


class TestMPDecide:
    def make_good_rule(self):
        return g.solve_mp_test(good_scenario(), 0.10, **GOOD_APPROX)

    def test_high_score_accepts(self):
        decision = g.mp_decide(self.make_good_rule(), g.Observation((1, 4, 4)), FixedCoin())
        assert decision.verdict is Verdict.ACCEPT_H0
        assert decision.declared_event
        assert not decision.randomized

    def test_low_score_rejects(self):
        decision = g.mp_decide(self.make_good_rule(), g.Observation((0, 0, 0)), FixedCoin())
        assert decision.verdict is Verdict.REJECT_H0
        assert not decision.randomized

    def test_boundary_uses_coin(self):
        rule = self.make_good_rule()  # threshold 8; (0,2,1) scores 3*2 + 2*1 = 8
        reject = g.mp_decide(rule, g.Observation((0, 2, 1)), FixedCoin(0.01))
        accept = g.mp_decide(rule, g.Observation((0, 2, 1)), FixedCoin(0.99))
        assert reject.verdict is Verdict.REJECT_H0 and reject.randomized
        assert accept.verdict is Verdict.ACCEPT_H0 and accept.randomized

    def test_observation_validation(self):
        rule = self.make_good_rule()
        with pytest.raises(DomainError):
            g.mp_decide(rule, g.Observation((1, 4)), FixedCoin())
        with pytest.raises(DomainError):
            g.mp_decide(rule, g.Observation((2, 0, 0)), FixedCoin())
        with pytest.raises(DomainError):
            g.Observation((-1, 0, 0))

    def test_never_rejecting_threshold(self):
        rule = self.make_good_rule()
        frozen = g.MPTest(
            weights=rule.weights, class_counts=rule.class_counts, threshold=-math.inf,
            boundary_prob=0.5, requested_size=0.1, exact_size=0.0, exact_power=0.0,
        )
        assert g.mp_decide(frozen, g.Observation((0, 0, 0)), FixedCoin()).verdict is Verdict.ACCEPT_H0

    def test_rejection_region_is_lower_set(self):
        rule = g.solve_mp_test(good_scenario(), 0.07)
        scored = []
        for xs in itertools.product(range(2), range(5), range(5)):
            score = sum(w * x for w, x in zip(rule.weights, xs))
            decision = g.mp_decide(rule, g.Observation(xs), FixedCoin(0.999999))
            deterministic_reject = decision.verdict is Verdict.REJECT_H0 and not decision.randomized
            scored.append((score, deterministic_reject))
        rejected_scores = [s for s, r in scored if r]
        assert rejected_scores
        cutoff = max(rejected_scores)
        for score, rejected in scored:
            if score <= cutoff:
                assert rejected


class TestBayesTest:
    @pytest.mark.parametrize("name,p_e,loss", sorted(BAYES_THRESHOLDS))
    def test_frozen_thresholds(self, name, p_e, loss):
        expected = BAYES_THRESHOLDS[(name, p_e, loss)]
        test = g.bayes_test(scenario_named(name), g.Prior(p_e), g.LossRatio(loss))
        assert test.threshold == pytest.approx(expected, abs=1e-12)
        assert test.applicable == (expected > 0)

    def test_not_applicable_has_no_normalized_weights(self):
        test = g.bayes_test(weak_scenario(), g.Prior(0.3), g.LossRatio(20))
        assert not test.applicable
        assert test.normalized_weights is None

    def test_normalized_weight_ratios(self):
        test = g.bayes_test(good_scenario(), g.Prior(0.1), g.LossRatio(5))
        lam = test.normalized_weights
        w = test.weights
        for i in range(3):
            for j in range(3):
                assert lam[i] / lam[j] == pytest.approx(w[i] / w[j], rel=1e-12)
        # the reliable network's weights are close to the 5:3:2 integer pattern
        assert w[0] / w[2] == pytest.approx(5 / 2, rel=0.05)

    def test_applicability_matches_loss_inequality(self):
        rng = random.Random(23)
        for _ in range(200):
            sc = random_scenario(rng)
            p_e = rng.uniform(0.05, 0.9)
            loss = math.exp(rng.uniform(-2, 6))
            test = g.bayes_test(sc, g.Prior(p_e), g.LossRatio(loss))
            stats = sc.derived()
            bound = (1 - p_e) / p_e
            for n, a, q in zip(sc.topology.counts, stats.alarm_probs, stats.silence_probs):
                d_term = 1.0 + (a - sc.channel.p_w) / q
                bound *= d_term**n
            assert test.applicable == (loss < bound)

    def test_threshold_monotone_in_loss(self):
        sc = good_scenario()
        thresholds = [
            g.bayes_test(sc, g.Prior(0.2), g.LossRatio(l)).threshold
            for l in (0.1, 1.0, 5.0, 50.0, 500.0)
        ]
        assert all(a > b for a, b in zip(thresholds, thresholds[1:]))


class TestBayesDecide:
    def test_examples(self):
        test = g.bayes_test(good_scenario(), g.Prior(0.1), g.LossRatio(5))
        # score 3.714 + 2.197 = 5.911 is above the 5.789 threshold: keep the event call
        assert g.bayes_decide(test, g.Observation((1, 1, 0))).verdict is Verdict.ACCEPT_H0
        assert g.bayes_decide(test, g.Observation((0, 0, 0))).verdict is Verdict.REJECT_H0
        assert not g.bayes_decide(test, g.Observation((0, 0, 0))).randomized

    def test_not_applicable_accepts_everything(self):
        test = g.bayes_test(weak_scenario(), g.Prior(0.3), g.LossRatio(20))
        for xs in itertools.product(range(2), range(5), range(5)):
            assert g.bayes_decide(test, g.Observation(xs)).verdict is Verdict.ACCEPT_H0

    def test_score_at_threshold_accepts(self):
        base = g.bayes_test(good_scenario(), g.Prior(0.1), g.LossRatio(5))
        w = base.weights
        tweaked = g.BayesTest(
            weights=w, class_counts=base.class_counts, threshold=w[0],
            applicable=True, normalized_weights=tuple(x / w[0] for x in w),
        )
        assert g.bayes_decide(tweaked, g.Observation((1, 0, 0))).verdict is Verdict.ACCEPT_H0


class TestOperatingCharacteristics:
    def test_exact_rule_type1_equals_size(self):
        rng = random.Random(3)
        for _ in range(20):
            sc = random_scenario(rng)
            size = rng.uniform(0.01, 0.6)
            ops = g.operating_characteristics(g.solve_mp_test(sc, size), sc)
            assert ops.type1 == pytest.approx(size, abs=1e-12)

    def test_approximate_rule_true_rates(self):
        test = g.solve_mp_test(good_scenario(), 0.10, **GOOD_APPROX)
        ops = g.operating_characteristics(test, good_scenario())
        assert ops.type1 == pytest.approx(0.09590195884707527, abs=1e-12)
        assert ops.power == pytest.approx(0.9439977063290622, abs=1e-12)
        # the reference simulation reports (0.9014, 0.9437) for this rule
        assert 1.0 - ops.type1 == pytest.approx(0.9014, abs=0.005)
        assert ops.power == pytest.approx(0.9437, abs=0.005)

    def test_bayes_rule_rates(self):
        sc = good_scenario()
        test = g.bayes_test(sc, g.Prior(0.1), g.LossRatio(5))
        ops = g.operating_characteristics(test, sc)
        assert ops.type1 == pytest.approx(0.09339996599999997, abs=1e-12)
        assert ops.power == pytest.approx(0.942776334, abs=1e-12)

    def test_non_applicable_bayes_never_rejects(self):
        sc = weak_scenario()
        test = g.bayes_test(sc, g.Prior(0.3), g.LossRatio(20))
        assert g.operating_characteristics(test, sc) == (0.0, 0.0)

    def test_topology_mismatch_rejected(self):
        rule = g.solve_mp_test(good_scenario(), 0.1)
        other = g.validate(g.ChannelModel(0.9, 0.1), g.builtin_topology("corner_square", (0.9, 0.5, 0.3)))
        with pytest.raises(DomainError, match="class counts"):
            g.operating_characteristics(rule, other)


def _random(seed):
    return random_scenario(random.Random(seed))


# (scenario, rule) builders covering every rule kind: exact and approximated
# MP, a hand-built MP rule with threshold -inf, applicable and non-applicable
# Bayes, and under p_w = 0 randomized and deterministic MP and applicable and
# non-applicable Bayes.
AGREEMENT_CASES = {
    "good-mp-exact": lambda sc: g.solve_mp_test(sc, 0.07),
    "good-mp-approx": lambda sc: g.solve_mp_test(sc, 0.10, **GOOD_APPROX),
    "good-bayes": lambda sc: g.bayes_test(sc, g.Prior(0.1), g.LossRatio(5)),
    "good-mp-never-rejecting": lambda sc: g.MPTest(
        weights=GOOD_APPROX["weights"], class_counts=sc.topology.counts, threshold=-math.inf,
        boundary_prob=0.5, requested_size=0.1, exact_size=0.0, exact_power=0.0,
    ),
    "weak-mp-exact": lambda sc: g.solve_mp_test(sc, 0.025),
    "weak-mp-approx-lowest-atom": lambda sc: g.solve_mp_test(sc, 0.01, **WEAK_APPROX),
    "weak-bayes": lambda sc: g.bayes_test(sc, g.Prior(0.1), g.LossRatio(5)),
    "weak-bayes-not-applicable": lambda sc: g.bayes_test(sc, g.Prior(0.3), g.LossRatio(20)),
    "random0-mp-exact": lambda sc: g.solve_mp_test(sc, 0.2),
    "random1-mp-exact": lambda sc: g.solve_mp_test(sc, 0.05),
    "random2-bayes": lambda sc: g.bayes_test(sc, g.Prior(0.4), g.LossRatio(2)),
    "degenerate-mp-randomized": lambda sc: g.solve_mp_test(sc, 0.001),
    "degenerate-mp-deterministic": lambda sc: g.solve_mp_test(sc, 0.01),
    "degenerate-bayes": lambda sc: g.bayes_test(sc, g.Prior(0.1), g.LossRatio(5)),
    "degenerate-bayes-not-applicable": lambda sc: g.bayes_test(sc, g.Prior(0.1), g.LossRatio(1e4)),
}
AGREEMENT_SCENARIOS = {
    "good": good_scenario,
    "weak": weak_scenario,
    "random0": lambda: _random(0),
    "random1": lambda: _random(1),
    "random2": lambda: _random(2),
    "degenerate": degenerate_scenario,
}


def _decided_reject_prob(rule, xs):
    """Reject probability of one count tuple read off mp_decide/bayes_decide."""
    obs = g.Observation(xs)
    if isinstance(rule, g.BayesTest):
        decision = g.bayes_decide(rule, obs)
    else:
        decision = g.mp_decide(rule, obs, FixedCoin(0.0))
    if decision.randomized:
        return rule.boundary_prob
    return float(decision.verdict is Verdict.REJECT_H0)


def _binomial_mass(xs, counts, probs):
    return math.prod(math.comb(n, x) * q**x * (1.0 - q) ** (n - x) for x, n, q in zip(xs, counts, probs))


@pytest.mark.parametrize("case", sorted(AGREEMENT_CASES))
def test_decide_agrees_with_operating_characteristics(case):
    sc = AGREEMENT_SCENARIOS[case.split("-")[0]]()
    rule = AGREEMENT_CASES[case](sc)
    counts = sc.topology.counts
    event_probs = sc.derived().alarm_probs
    normal_probs = (sc.channel.p_w,) * len(counts)
    type1, power = [], []
    for xs in itertools.product(*(range(n + 1) for n in counts)):
        p = _decided_reject_prob(rule, xs)
        type1.append(p * _binomial_mass(xs, counts, event_probs))
        power.append(p * _binomial_mass(xs, counts, normal_probs))
    ops = g.operating_characteristics(rule, sc)
    assert abs(ops.type1 - math.fsum(type1)) <= 1e-12
    assert abs(ops.power - math.fsum(power)) <= 1e-12
    if case.endswith("not-applicable"):
        assert not rule.applicable and ops == (0.0, 0.0)
    if case.endswith("never-rejecting"):
        assert ops == (0.0, 0.0)
    if case.endswith("randomized") or case.endswith("lowest-atom"):
        assert 0.0 < rule.boundary_prob < 1.0
    if case.endswith("deterministic"):
        assert rule.boundary_prob == 1.0
    assert rule.degenerate == case.startswith("degenerate")


# (scenario, weight overrides, size) for MP rules whose boundary coin is live
BOUNDARY_CASES = {
    "good-exact": (good_scenario, {}, 0.07),
    "good-approx": (good_scenario, GOOD_APPROX, 0.10),
    "weak-exact": (weak_scenario, {}, 0.025),
    "weak-approx": (weak_scenario, WEAK_APPROX, 0.01),
    "random3": (lambda: _random(3), {}, 0.1),
    "random4": (lambda: _random(4), {}, 0.2),
    "random5": (lambda: _random(5), {}, 0.03),
}


@pytest.mark.parametrize("case", sorted(BOUNDARY_CASES))
def test_boundary_atom_is_the_coin_set(case):
    make, overrides, size = BOUNDARY_CASES[case]
    sc = make()
    rule = g.solve_mp_test(sc, size, **overrides)
    assert 0.0 < rule.boundary_prob < 1.0
    counts = sc.topology.counts
    q0 = overrides.get("event_alarm_probs", sc.derived().alarm_probs)
    dist = g.score_distribution(rule.weights, g.ClassAlarmLaw(counts, q0))
    coin_tuples = {
        xs for xs in itertools.product(*(range(n + 1) for n in counts))
        if g.mp_decide(rule, g.Observation(xs), FixedCoin(0.5)).randomized
    }
    (atom,) = [a for a in dist.atoms if a.value == rule.threshold]
    assert coin_tuples == set(atom.support)
    for a in dist.atoms:
        assert a.value == tuple_scores(rule.weights, np.array([a.support[0]]))[0]


def _vector_masses(sc):
    """Independent per-vector masses from raw Bernoulli products."""
    stats = sc.derived()
    p_w = sc.channel.p_w
    qs = [stats.alarm_probs[i] for i, n in enumerate(sc.topology.counts) for _ in range(n)]
    masses = []
    for bits in itertools.product((0, 1), repeat=len(qs)):
        p0 = p1 = 1.0
        for b, q in zip(bits, qs):
            p0 *= q if b else 1.0 - q
            p1 *= p_w if b else 1.0 - p_w
        masses.append((p0, p1))
    return masses


def _random_same_size_power(masses, size, rng):
    """Power of a random test of exactly the given size: fill vectors in random order."""
    order = list(range(len(masses)))
    rng.shuffle(order)
    used = power = 0.0
    for idx in order:
        p0, p1 = masses[idx]
        if used + p0 <= size:
            used += p0
            power += p1
        else:
            if p0 > 0.0:
                power += (size - used) / p0 * p1
            break
    return power


class TestNPOptimality:
    @pytest.mark.parametrize("name", ["good", "weak"])
    @pytest.mark.parametrize("size", [0.1, 0.05, 0.025, 0.01])
    def test_table_scenarios(self, name, size):
        assert g.np_optimality_check(scenario_named(name), size)

    def test_midrange_size(self):
        assert g.np_optimality_check(good_scenario(), 0.5)

    def test_degenerate_scenario(self):
        assert g.np_optimality_check(degenerate_scenario(), 0.01)
        assert g.np_optimality_check(degenerate_scenario(), 0.001)

    def test_solved_power_dominates_random_tests(self):
        rng = random.Random(29)
        for sc in (good_scenario(), weak_scenario()):
            size = 0.1
            solved = g.solve_mp_test(sc, size)
            masses = _vector_masses(sc)
            for _ in range(25):
                assert _random_same_size_power(masses, size, rng) <= solved.exact_power + 1e-12

    def test_enumeration_cap(self):
        sc = g.validate(
            g.ChannelModel(0.9, 0.1), g.builtin_topology("custom", [0.5], counts=[21])
        )
        with pytest.raises(DomainError, match="capped"):
            g.np_optimality_check(sc, 0.1)


class TestDegenerateChannel:
    # p_w = 0, p_c = 1: every response mirrors the detection bit exactly

    def test_mp_deterministic_when_size_allows(self):
        sc = degenerate_scenario()
        all_silent = 0.1 * 0.5**4 * 0.7**4
        test = g.solve_mp_test(sc, 0.01)
        assert test.degenerate
        assert test.boundary_prob == 1.0
        assert test.exact_size == pytest.approx(all_silent, abs=1e-15)
        assert test.exact_power == 1.0

    def test_mp_randomized_when_size_small(self):
        sc = degenerate_scenario()
        all_silent = 0.1 * 0.5**4 * 0.7**4
        test = g.solve_mp_test(sc, 0.001)
        assert test.degenerate
        assert test.boundary_prob == pytest.approx(0.001 / all_silent, abs=1e-12)
        assert test.exact_size == pytest.approx(0.001, abs=1e-15)
        assert test.exact_power == pytest.approx(test.boundary_prob)

    def test_mp_decide_degenerate(self):
        sc = degenerate_scenario()
        randomized = g.solve_mp_test(sc, 0.001)
        assert g.mp_decide(randomized, g.Observation((0, 0, 0)), FixedCoin(0.1)).verdict is Verdict.REJECT_H0
        assert g.mp_decide(randomized, g.Observation((0, 0, 0)), FixedCoin(0.9)).verdict is Verdict.ACCEPT_H0
        assert g.mp_decide(randomized, g.Observation((0, 1, 0)), FixedCoin()).verdict is Verdict.ACCEPT_H0
        deterministic = g.solve_mp_test(sc, 0.01)
        decision = g.mp_decide(deterministic, g.Observation((0, 0, 0)), FixedCoin())
        assert decision.verdict is Verdict.REJECT_H0 and not decision.randomized

    def test_mp_overrides_rejected(self):
        with pytest.raises(DomainError, match="p_w = 0"):
            g.solve_mp_test(degenerate_scenario(), 0.01, weights=(5, 3, 2))

    def test_bayes_applicability_bound(self):
        sc = degenerate_scenario()
        bound = 5997.50104123282  # 9 / ((1-0.9)(1-0.5)^4(1-0.3)^4) for p_e = 0.1
        applicable = g.bayes_test(sc, g.Prior(0.1), g.LossRatio(5))
        assert applicable.degenerate and applicable.applicable
        at_scale = g.bayes_test(sc, g.Prior(0.1), g.LossRatio(bound * 1.001))
        assert not at_scale.applicable
        below = g.bayes_test(sc, g.Prior(0.1), g.LossRatio(bound * 0.999))
        assert below.applicable

    def test_bayes_decide_degenerate(self):
        test = g.bayes_test(degenerate_scenario(), g.Prior(0.1), g.LossRatio(5))
        assert g.bayes_decide(test, g.Observation((0, 0, 0))).verdict is Verdict.REJECT_H0
        assert g.bayes_decide(test, g.Observation((0, 0, 1))).verdict is Verdict.ACCEPT_H0

    def test_degenerate_operating_characteristics(self):
        sc = degenerate_scenario()
        all_silent = 0.1 * 0.5**4 * 0.7**4
        test = g.solve_mp_test(sc, 0.001)
        ops = g.operating_characteristics(test, sc)
        assert ops.type1 == pytest.approx(test.boundary_prob * all_silent, abs=1e-15)
        assert ops.power == pytest.approx(test.boundary_prob, abs=1e-15)


def _grid_mask_rates(rule, *laws):
    """Error rates summed over the whole grid: each tuple's reject probability
    from its score, the rejecting tuples masked out, their weighted masses summed,
    at most 1."""
    weights, lo, hi, k = decision_tests._rule_form(rule)
    scores = tuple_scores(weights, cell_grid(rule.class_counts))
    reject = np.where(scores < lo, 1.0, np.where(scores <= hi, k, 0.0))
    hit = reject > 0.0
    return [min(1.0, exact_sum(cell_masses(law)[hit] * reject[hit])) for law in laws]


def _assert_prefix_rates_match(rule, sc, solved=True):
    counts = sc.topology.counts
    event = g.ClassAlarmLaw(counts, sc.derived().alarm_probs)
    normal = g.ClassAlarmLaw(counts, (sc.channel.p_w,) * len(counts))
    want = [x.hex() for x in _grid_mask_rates(rule, event, normal)]
    assert [x.hex() for x in g.operating_characteristics(rule, sc)] == want
    if isinstance(rule, g.MPTest) and solved:
        assert rule.exact_power.hex() == want[1]


def _threshold_on(bound, score):
    """A threshold whose lo (t - tolerance) or hi (t + tolerance) bound is exactly ``score``."""
    sign = -1.0 if bound == "lo" else 1.0
    t = score / (1.0 + sign * MERGE_REL_TOL)
    for _ in range(64):
        edge = t + sign * atom_tolerance(t)
        if edge == score:
            return t
        t = math.nextafter(t, math.inf if edge < score else -math.inf)
    raise AssertionError(f"no threshold puts {bound} on {score}")


class TestPrefixRates:
    """Error rates summed over the reject prefix of the cell's score order
    have the bits of the sum over the whole grid's reject mask."""

    @pytest.mark.parametrize("name", ["good", "weak"])
    def test_shipped_networks(self, name):
        sf = load_scenario(SHIPPED / f"{name}_network.yaml")
        sc = sf.scenario
        for size in sf.sizes:
            _assert_prefix_rates_match(g.solve_mp_test(sc, size), sc)
            _assert_prefix_rates_match(g.solve_mp_test(sc, size, **sf.mp_overrides()), sc)
        for prior in sf.priors():
            for loss in sf.loss_ratios:
                _assert_prefix_rates_match(g.bayes_test(sc, prior, g.LossRatio(loss)), sc)

    def test_random_scenarios(self):
        rng = random.Random("prefix-rates")
        for _ in range(30):
            sc = random_scenario(rng, max_classes=4, max_count=5)
            w = sc.derived().weights
            int_w = tuple(float(max(1, round(3 * x / min(w)))) for x in w)
            for weights in (None, int_w):
                _assert_prefix_rates_match(g.solve_mp_test(sc, rng.uniform(0.005, 0.5), weights=weights), sc)
            _assert_prefix_rates_match(g.bayes_test(sc, g.Prior(rng.uniform(0.05, 0.5)), g.LossRatio(rng.uniform(1, 40))), sc)

    def test_non_applicable_and_p_w_zero_rules(self):
        weak = weak_scenario()
        rule = g.bayes_test(weak, g.Prior(0.3), g.LossRatio(20))
        assert not rule.applicable
        _assert_prefix_rates_match(rule, weak)
        sc = degenerate_scenario()
        for size in (0.001, 0.01):
            _assert_prefix_rates_match(g.solve_mp_test(sc, size), sc)
        for loss in (5, 1e4):
            _assert_prefix_rates_match(g.bayes_test(sc, g.Prior(0.1), g.LossRatio(loss)), sc)

    def test_hand_built_rules(self):
        sc = good_scenario()
        rule = g.solve_mp_test(sc, 0.05, **GOOD_APPROX)
        # threshold -inf (lo = -inf, hi = nan: nothing rejects), and k = 0 and
        # k = 1 on the boundary atom
        never = replace(rule, threshold=-math.inf, boundary_prob=0.5)
        assert g.operating_characteristics(never, sc) == (0.0, 0.0)
        for k in (0.0, 1.0, 0.5):
            _assert_prefix_rates_match(replace(never, boundary_prob=k), sc, solved=False)
            _assert_prefix_rates_match(replace(rule, boundary_prob=k), sc, solved=False)
        # a score exactly on lo is a boundary row, one exactly on hi too
        for bound in ("lo", "hi"):
            edge = replace(rule, threshold=_threshold_on(bound, rule.threshold), boundary_prob=0.5)
            weights, lo, hi, _ = decision_tests._rule_form(edge)
            assert (lo if bound == "lo" else hi) == rule.threshold
            _assert_prefix_rates_match(edge, sc, solved=False)

    def test_boundary_atom_of_several_tuples(self):
        sc = good_scenario()
        rule = g.solve_mp_test(sc, 0.05, **GOOD_APPROX)
        scores = tuple_scores(rule.weights, cell_grid(sc.topology.counts))
        assert np.count_nonzero(scores == rule.threshold) > 1
        assert 0.0 < rule.boundary_prob < 1.0
        _assert_prefix_rates_match(rule, sc)


def test_scenario_laws_give_the_rates_of_fresh_laws():
    """Rates read from the laws DerivedStats keeps carry the bits of laws built afresh,
    for exact, override and p_w = 0 rules."""
    rng = random.Random("scenario-laws")
    for _ in range(12):
        sc = random_scenario(rng, max_classes=4, max_count=4)
        silent = g.validate(g.ChannelModel(p_c=sc.channel.p_c, p_w=0.0), sc.topology)
        for cell in (sc, silent):
            counts, stats = cell.topology.counts, cell.derived()
            assert stats.event_law == g.ClassAlarmLaw(counts, stats.alarm_probs)
            assert stats.normal_law == g.ClassAlarmLaw(counts, (cell.channel.p_w,) * len(counts))
        w = sc.derived().weights
        overrides = dict(weights=tuple(float(max(1, round(3 * x / min(w)))) for x in w),
                         event_alarm_probs=tuple(round(q, 1) for q in sc.derived().alarm_probs))
        size, prior, loss = rng.uniform(0.005, 0.5), g.Prior(rng.uniform(0.05, 0.5)), g.LossRatio(rng.uniform(1, 40))
        for cell, rule in [
            (sc, g.solve_mp_test(sc, size)),
            (sc, g.solve_mp_test(sc, size, **overrides)),
            (sc, g.bayes_test(sc, prior, loss)),
            (silent, g.solve_mp_test(silent, size)),
            (silent, g.bayes_test(silent, prior, loss)),
        ]:
            _assert_prefix_rates_match(rule, cell)


def _quotient_threshold(sc, prior, loss):
    """The p_w > 0 threshold as one expression: log(p_n / (l * p_e)) plus the per-sensor silence terms."""
    p_e, p_n, l, p_w = prior.event_prob, prior.normal_prob, loss.value, sc.channel.p_w
    return math.log(p_n / (l * p_e)) + math.fsum(
        n * math.log((1.0 - p_w) / q) for n, q in zip(sc.topology.counts, sc.derived().silence_probs)
    )


def _all_silent_bound(sc, prior):
    """(p_n / p_e) over the all-silent tuple's event mass: a p_w = 0 rule is applicable for losses below it."""
    all_silent = math.prod(q**n for q, n in zip(sc.derived().silence_probs, sc.topology.counts))
    return math.inf if all_silent == 0.0 else (prior.normal_prob / prior.event_prob) / all_silent


FLOAT_EXTREMES = [(0.9999999999999999, 1e308), (1e-300, 1e-300), (1e-300, 1e-10), (0.5, 1e-300), (5e-324, 5.0)]


class TestOneBayesThreshold:
    """One log-odds threshold decides applicability in both channel regimes."""

    def test_p_w_positive_keeps_the_bits_of_the_quotient(self):
        rng = random.Random("one-threshold/p_w>0")
        checked = 0
        for _ in range(300):
            sc = random_scenario(rng, max_classes=4, max_count=6)
            p_e = rng.choice([rng.uniform(0.001, 0.999), 10 ** rng.uniform(-320, -3), 1.0 - 10 ** rng.uniform(-16, -3)])
            prior = g.Prior(p_e)
            loss = g.LossRatio(rng.choice([math.exp(rng.uniform(-5, 10)), 10 ** rng.uniform(-300, 300)]))
            den = loss.value * prior.event_prob
            if not (den > 0.0 and 0.0 < prior.normal_prob / den < math.inf):
                continue
            rule = g.bayes_test(sc, prior, loss)
            assert rule.threshold.hex() == _quotient_threshold(sc, prior, loss).hex()
            assert rule.applicable == (rule.threshold > 0.0)
            checked += 1
        assert checked > 200

    def test_p_w_zero_applicability_is_the_all_silent_bound(self):
        rng = random.Random("one-threshold/p_w=0")
        for _ in range(300):
            base = random_scenario(rng, max_classes=6, max_count=8)
            sc = g.validate(g.ChannelModel(p_c=base.channel.p_c, p_w=0.0), base.topology)
            prior = g.Prior(rng.uniform(0.01, 0.99))
            bound = _all_silent_bound(sc, prior)
            for loss in (bound * math.exp(rng.uniform(-5, 5)), bound * (1.0 + rng.uniform(-1e-10, 1e-10))):
                if not 0.0 < loss < math.inf or abs(loss - bound) <= 1e-12 * bound:
                    continue
                rule = g.bayes_test(sc, prior, g.LossRatio(loss))
                assert rule.applicable == (loss < bound)
                assert rule.degenerate and math.isnan(rule.threshold) and rule.normalized_weights is None

    def test_p_w_zero_class_that_never_stays_silent(self):
        # p_c = detect_prob = 1: the all-silent tuple has event mass 0, so every loss ratio is below the bound
        sc = g.validate(g.ChannelModel(p_c=1.0, p_w=0.0), g.builtin_topology("custom", (1.0, 0.5), counts=(2, 3)))
        for p_e, loss in FLOAT_EXTREMES:
            rule = g.bayes_test(sc, g.Prior(p_e), g.LossRatio(loss))
            assert rule.applicable
            assert g.operating_characteristics(rule, sc) == (0.0, 1.0)

    @pytest.mark.parametrize("p_w", [0.1, 0.0])
    @pytest.mark.parametrize("p_e, loss", FLOAT_EXTREMES)
    def test_float_extremes(self, p_w, p_e, loss):
        sc = g.validate(g.ChannelModel(p_c=0.9, p_w=p_w), g.builtin_topology("interior_square", (0.9, 0.5, 0.3)))
        rule = g.bayes_test(sc, g.Prior(p_e), g.LossRatio(loss))
        assert math.isfinite(rule.threshold) or p_w == 0.0
        # only the first pair, a loss ratio of 1e308 against p_n of 1e-16, accepts H0 everywhere
        assert rule.applicable == (loss < 1e300)
        ops = g.operating_characteristics(rule, sc)
        _assert_prefix_rates_match(rule, sc)
        counts = sc.topology.counts
        reject = decision_tests._RuleForms.of([rule], len(counts)).reject_probs(cell_grid(counts))[:, 0]
        stats = sc.derived()
        if not rule.applicable:
            assert ops == (0.0, 0.0)
        elif p_w > 0.0:  # the threshold is past every score: the rates are the masses of the whole grid, at most 1
            assert reject.all()
            assert list(ops) == [min(1.0, exact_sum(cell_masses(law))) for law in (stats.event_law, stats.normal_law)]
        else:
            assert reject.tolist() == [1.0] + [0.0] * (len(reject) - 1)
            assert list(ops) == [cell_masses(stats.event_law)[0], 1.0]


def _summed_again(rule, sc):
    """Both rates of a rule summed under the scenario's laws, as operating_characteristics sums a rate it does not reuse."""
    stats = sc.derived()
    form = decision_tests._rule_form(rule)
    return [x.hex() for x in decision_tests._rejection_rates(sc.topology.counts, form, stats.event_law, stats.normal_law)]


class TestPowerReuse:
    """operating_characteristics returns the exact_power a solved MP rule was solved with when the scenario's
    normal law is the one that power was summed under, with the bits of summing it again."""

    SIZES = (0.01, 0.025, 0.05, 0.1)

    @pytest.mark.parametrize("name", ["good", "weak", "p_w=0", "good approx"])
    def test_reused_power_has_the_bits_of_a_fresh_sum(self, name):
        sc = degenerate_scenario() if name == "p_w=0" else scenario_named(name.split()[0])
        overrides = GOOD_APPROX if name == "good approx" else {}
        for rule in decision_tests.solve_mp_tests(sc, self.SIZES, **overrides):
            assert rule.normal_law is sc.derived().normal_law
            assert [x.hex() for x in g.operating_characteristics(rule, sc)] == _summed_again(rule, sc)

    def test_other_p_w_gets_its_own_power(self):
        sc = good_scenario()
        other = g.validate(g.ChannelModel(p_c=0.9, p_w=0.05), sc.topology)
        for rule in decision_tests.solve_mp_tests(sc, self.SIZES):
            oc = g.operating_characteristics(rule, other)
            assert [x.hex() for x in oc] == _summed_again(rule, other)
            assert oc.power != rule.exact_power

    def test_same_p_w_other_p_c_reuses(self):
        sc = good_scenario()
        other = g.validate(g.ChannelModel(p_c=0.8, p_w=sc.channel.p_w), sc.topology)
        rule = g.solve_mp_test(sc, 0.05)
        assert rule.normal_law == other.derived().normal_law
        assert [x.hex() for x in g.operating_characteristics(rule, other)] == _summed_again(rule, other)
        # the recorded power is returned, not summed: a copy given the law returns whatever power it holds
        forged = replace(rule, exact_power=0.5)
        object.__setattr__(forged, "normal_law", rule.normal_law)
        assert g.operating_characteristics(forged, other).power == 0.5

    def test_copies_and_hand_built_rules_sum_afresh(self):
        sc = good_scenario()
        rule = g.solve_mp_test(sc, 0.05)
        init = {f.name: getattr(rule, f.name) for f in fields(rule) if f.init}
        for copy in (replace(rule), replace(rule, exact_power=0.5), g.MPTest(**{**init, "exact_power": 0.5})):
            assert copy.normal_law is None
            assert [x.hex() for x in g.operating_characteristics(copy, sc)] == _summed_again(rule, sc)

    def test_repr_eq_and_hash_leave_the_law_out(self):
        for sc in (good_scenario(), degenerate_scenario()):
            rule = g.solve_mp_test(sc, 0.05)
            hand = g.MPTest(**{f.name: getattr(rule, f.name) for f in fields(rule) if f.init})
            assert "normal_law" not in repr(rule)
            assert repr(rule) == repr(hand)
            assert rule == hand and hash(rule) == hash(hand)
