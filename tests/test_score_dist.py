import itertools
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import griddetect as g
from griddetect import DomainError
from griddetect.score_dist import (
    MAX_COUNT_TUPLES,
    VECTOR_SUM_MIN_LENGTH,
    _atom_starts,
    _check_weights,
    atom_tolerance,
    cell_ranking,
    count_tuples,
    exact_sum,
    tuple_scores,
)

from cases import (
    GOOD_CHANNEL,
    GOOD_DETECT,
    INTERIOR_COUNTS,
    WEAK_CHANNEL,
    WEAK_DETECT,
    random_scenario,
)

# Exact masses for the integer-approximated reliable-network law, derived by
# enumerating all 50 count tuples by hand and cross-checked by the 512-vector
# enumeration below.
TABLE3_FEED = dict(
    weights=(5.0, 3.0, 2.0),
    law=g.ClassAlarmLaw(INTERIOR_COUNTS, (0.8, 0.5, 0.35)),
    below_8=0.097525390625,
    at_8=0.064724453125,
)


class TestScoreDistribution:
    def test_frozen_table3_feed(self):
        dist = g.score_distribution(TABLE3_FEED["weights"], TABLE3_FEED["law"])
        assert dist.prob_below(8.0) == pytest.approx(TABLE3_FEED["below_8"], abs=1e-12)
        assert dist.prob_at(8.0) == pytest.approx(TABLE3_FEED["at_8"], abs=1e-12)

    def test_equal_scores_merge_with_support(self):
        dist = g.score_distribution(TABLE3_FEED["weights"], TABLE3_FEED["law"])
        (atom,) = [a for a in dist.atoms if a.value == 8.0]
        assert set(atom.support) == {(0, 2, 1), (0, 0, 4), (1, 1, 0)}

    def test_tuples_gathered_on_first_use(self):
        law = g.ClassAlarmLaw(INTERIOR_COUNTS, (0.82, 0.5, 0.0))  # class 3 never alarms: rows left out
        dist = g.score_distribution((5.0, 3.0, 2.0), law)
        assert "tuples" not in vars(dist)
        assert len(dist.order) == 2 * 5
        np.testing.assert_array_equal(dist.tuples, count_tuples(INTERIOR_COUNTS)[dist.order])
        assert [len(a.support) for a in dist.atoms] == np.diff(dist.starts, append=len(dist.order)).tolist()
        assert all(t[2] == 0 for a in dist.atoms for t in a.support)

    def test_deterministic_alarms_single_atom(self):
        law = g.ClassAlarmLaw(INTERIOR_COUNTS, (1.0, 1.0, 1.0))
        dist = g.score_distribution((1.0, 1.0, 1.0), law)
        assert len(dist.atoms) == 1
        assert dist.atoms[0].value == pytest.approx(9.0)
        assert dist.atoms[0].prob == pytest.approx(1.0)

    def test_normalization_and_ordering(self):
        law = g.ClassAlarmLaw(INTERIOR_COUNTS, (0.82, 0.5, 0.34))
        dist = g.score_distribution((5.0, 3.0, 2.0), law)
        total_tuples = sum(len(a.support) for a in dist.atoms)
        assert total_tuples == 2 * 5 * 5
        assert math.fsum(a.prob for a in dist.atoms) == pytest.approx(1.0, abs=1e-12)
        for a, b in zip(dist.atoms, dist.atoms[1:]):
            assert b.value - a.value > atom_tolerance(a.value)

    def test_atoms_merge_against_their_first_score(self):
        # consecutive scores are 6e-10 apart, within tolerance of each other,
        # but the third is 1.2e-9 past the atom's first score
        law = g.ClassAlarmLaw((1, 1, 1), (0.3, 0.4, 0.5))
        dist = g.score_distribution((1.0, 1.0 + 6e-10, 1.0 + 1.2e-9), law)
        merged = [(a.value, set(a.support)) for a in dist.atoms if 0.0 < a.value < 2.0]
        assert merged == [(1.0, {(1, 0, 0), (0, 1, 0)}), (1.0 + 1.2e-9, {(0, 0, 1)})]

    def test_prob_below_edges(self):
        dist = g.score_distribution(TABLE3_FEED["weights"], TABLE3_FEED["law"])
        assert dist.prob_below(-1.0) == 0.0
        assert dist.prob_below(dist.min_value) == 0.0
        assert dist.prob_below(dist.max_value + 1.0) == pytest.approx(1.0, abs=1e-12)
        assert dist.prob_at(dist.max_value + 1.0) == 0.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan, 1e308])  # 1e308: the (1, 2) score overflows
    def test_weight_validation(self, bad):
        law = g.ClassAlarmLaw((1, 2), (0.5, 0.5))
        with pytest.raises(DomainError):
            g.score_distribution((1.0, bad), law)

    def test_overflow_check_reads_the_all_alarm_score_of_tuple_scores(self):
        # weights whose exact all-alarm score lies within 1e-15 of the float range either way
        rng = random.Random(11)
        for _ in range(300):
            counts = tuple(rng.randint(2, 9) for _ in range(rng.randint(1, 5)))  # >= 2: every weight finite
            shares = [rng.random() + 0.01 for _ in counts]
            total, nudge = math.fsum(shares), 1 + rng.uniform(-1e-15, 1e-15)
            weights = tuple(s / total / n * sys.float_info.max * nudge for s, n in zip(shares, counts))
            with np.errstate(over="ignore"):
                top = tuple_scores(weights, np.array([counts]))[0]
            if math.isinf(top):
                with pytest.raises(DomainError, match="weights too large"):
                    _check_weights(weights, counts)
            else:
                _check_weights(weights, counts)

    def test_weight_length_mismatch(self):
        with pytest.raises(DomainError):
            g.score_distribution((1.0,), g.ClassAlarmLaw((1, 2), (0.5, 0.5)))

    def test_law_validation(self):
        with pytest.raises(DomainError):
            g.ClassAlarmLaw((0,), (0.5,))
        with pytest.raises(DomainError):
            g.ClassAlarmLaw((1,), (1.5,))
        with pytest.raises(DomainError):
            g.ClassAlarmLaw((1, 1), (0.5,))


class TestCountTupleGrid:
    def test_lexicographic_grid(self):
        grid = count_tuples((1, 2, 3))
        assert grid.shape == (24, 3)
        assert [tuple(row) for row in grid.tolist()] == list(itertools.product(range(2), range(3), range(4)))

    def test_grid_cap(self):
        assert len(count_tuples((MAX_COUNT_TUPLES - 1,))) == MAX_COUNT_TUPLES
        with pytest.raises(DomainError, match=f"{MAX_COUNT_TUPLES + 1} count tuples"):
            count_tuples((MAX_COUNT_TUPLES,))
        # a class count far past float range fails on the cap, not on the binomial masses
        law = g.ClassAlarmLaw((10**20, 2), (0.5, 0.5))
        with pytest.raises(DomainError, match=f"{3 * (10**20 + 1)} count tuples"):
            g.score_distribution((1.0, 1.0), law)


def _sequential_atoms(values, masses):
    """Reference merge, one sorted score at a time: a score joins the current
    atom while it is within tolerance of that atom's first score."""
    atoms = []
    for v, m in zip(values, masses):
        if atoms and v - atoms[-1][0] <= atom_tolerance(atoms[-1][0]):
            atoms[-1][1].append(m)
        else:
            atoms.append((v, [m]))
    return [(v, math.fsum(ms)) for v, ms in atoms]


class TestAtomMerge:
    def test_matches_sequential_merge(self):
        # gaps around the tolerance make runs of near-equal scores that
        # drift past their first score
        rng = np.random.default_rng(3)
        gaps = [0.0, 1e-10, 3e-10, 5e-10, 9.99e-10, 1e-9, 2e-9, 1e-3, 1.0]
        for _ in range(300):
            n = int(rng.integers(1, 40))
            scale = 10.0 ** int(rng.integers(-2, 7))
            values = rng.permutation(np.cumsum(rng.choice(gaps, size=n) * max(1.0, scale)) + scale)
            masses = rng.random(n) + 0.01
            order = np.argsort(values, kind="stable")
            ranked, ranked_masses = values[order].tolist(), masses[order].tolist()
            bounds = [*_atom_starts(values[order]).tolist(), n]
            got = [(ranked[a], math.fsum(ranked_masses[a:b])) for a, b in zip(bounds, bounds[1:])]
            assert got == _sequential_atoms(ranked, ranked_masses)


def _positive_mass_reference(weights, law):
    """Sequential merge of the positive-mass count tuples in stable score order,
    each tuple's mass its binomial masses multiplied in class order."""
    rows = count_tuples(law.counts).tolist()
    scores = tuple_scores(weights, np.array(rows)).tolist()
    masses = []
    for xs in rows:
        m = 1.0
        for x, n, q in zip(xs, law.counts, law.alarm_probs):
            m *= math.comb(n, x) * q**x * (1.0 - q) ** (n - x)
        masses.append(m)
    ranked = sorted((i for i in range(len(rows)) if masses[i] > 0.0), key=scores.__getitem__)
    return ranked, _sequential_atoms([scores[i] for i in ranked], [masses[i] for i in ranked])


class TestZeroMassFallback:
    """Alarm probabilities of exactly 0 or 1 leave tuples of zero mass, which
    are dropped and the rest merged afresh, not read off the cached atoms."""

    WEIGHTS = (2.0, 1.0, 1.0, 3.0)
    LAW = g.ClassAlarmLaw((2, 3, 3, 2), (0.0, 0.6, 0.35, 1.0))

    def test_matches_reference_and_brute_force(self):
        dist = g.score_distribution(self.WEIGHTS, self.LAW)
        order, want = _positive_mass_reference(self.WEIGHTS, self.LAW)
        assert dist.order.tolist() == order
        assert list(zip(dist.values.tolist(), dist.probs.tolist())) == want
        assert max(np.diff(dist.starts, append=len(dist.order))) > 1
        TestBruteForceOracle().equivalent(self.WEIGHTS, self.LAW)

    def test_mp_rule_on_the_fallback(self):
        topology = g.builtin_topology("custom", (0.9, 0.6, 0.4, 0.2), counts=self.LAW.counts)
        sc = g.validate(g.ChannelModel(p_c=0.9, p_w=0.1), topology)
        rule = g.solve_mp_test(sc, 0.1, weights=self.WEIGHTS, event_alarm_probs=self.LAW.alarm_probs)
        _, want = _positive_mass_reference(self.WEIGHTS, self.LAW)
        assert rule.threshold in [v for v, _ in want]
        assert rule.exact_size == pytest.approx(0.1, abs=1e-12)

    def test_drops_a_head_and_merges_afresh(self):
        # (1, 0, 0) heads an atom with (0, 1, 0) on the whole grid, leaving
        # (0, 0, 1) 1.2e-9 past it; without it the other two are one atom
        weights = (1.0, 1.0 + 6e-10, 1.0 + 1.2e-9)
        assert cell_ranking((1, 1, 1), weights)[3].tolist()[1:3] == [1.0, 1.0 + 1.2e-9]
        law = g.ClassAlarmLaw((1, 1, 1), (0.0, 0.4, 0.5))
        dist = g.score_distribution(weights, law)
        _, want = _positive_mass_reference(weights, law)
        assert list(zip(dist.values.tolist(), dist.probs.tolist())) == want
        assert dist.values.tolist()[1] == 1.0 + 6e-10 and len(dist.values) == 3
        TestBruteForceOracle().equivalent(weights, law)

    def test_cached_and_shared_arrays_are_read_only(self):
        law = g.ClassAlarmLaw(self.LAW.counts, (0.1, 0.6, 0.35, 0.9))
        order, ranked, starts, values, *_ = ranking = cell_ranking(law.counts, self.WEIGHTS)
        dist = g.score_distribution(self.WEIGHTS, law)
        assert dist.order is order and dist.starts is starts and dist.values is values
        assert order.dtype == np.int32 and np.all(np.diff(ranked) >= 0.0)
        for a in ranking:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1


class TestBruteForceOracle:
    def equivalent(self, weights, law):
        fast = g.score_distribution(weights, law)
        slow = g.brute_force_distribution(weights, law)
        assert len(fast.atoms) == len(slow.atoms)
        for a, b in zip(fast.atoms, slow.atoms):
            assert abs(a.value - b.value) <= 1e-12
            assert abs(a.prob - b.prob) <= 1e-12
            assert set(a.support) == set(b.support)

    @pytest.mark.parametrize("kind,n_probs", [
        ("interior_square", 3), ("corner_square", 3), ("edge_square", 3), ("hexagon_interior", 2),
    ])
    @pytest.mark.parametrize("detect,channel", [
        (GOOD_DETECT, GOOD_CHANNEL), (WEAK_DETECT, WEAK_CHANNEL),
    ])
    @pytest.mark.parametrize("hypothesis", ["event", "normal"])
    def test_all_builtin_topologies(self, kind, n_probs, detect, channel, hypothesis):
        sc = g.validate(g.ChannelModel(*channel), g.builtin_topology(kind, detect[:n_probs]))
        stats = sc.derived()
        counts = sc.topology.counts
        q = stats.alarm_probs if hypothesis == "event" else (sc.channel.p_w,) * len(counts)
        self.equivalent(stats.weights, g.ClassAlarmLaw(counts, q))

    def test_random_scenarios(self):
        rng = random.Random(91)
        for _ in range(30):
            sc = random_scenario(rng, max_classes=3, max_count=3)
            stats = sc.derived()
            counts = sc.topology.counts
            for q in (stats.alarm_probs, (sc.channel.p_w,) * len(counts)):
                self.equivalent(stats.weights, g.ClassAlarmLaw(counts, q))

    def test_enumeration_cap(self):
        law = g.ClassAlarmLaw((21,), (0.5,))
        with pytest.raises(DomainError, match="capped"):
            g.brute_force_distribution((1.0,), law)


class TestDistributionProperties:
    def test_mean_identity(self):
        rng = random.Random(5)
        for _ in range(40):
            sc = random_scenario(rng)
            stats = sc.derived()
            counts = sc.topology.counts
            law = g.ClassAlarmLaw(counts, stats.alarm_probs)
            dist = g.score_distribution(stats.weights, law)
            expected = sum(w * n * q for w, n, q in zip(stats.weights, counts, stats.alarm_probs))
            assert dist.mean() == pytest.approx(expected, abs=1e-10)

    def test_stochastic_dominance(self):
        # raising any class alarm probability shifts mass upward everywhere
        rng = random.Random(17)
        for _ in range(25):
            sc = random_scenario(rng)
            stats = sc.derived()
            counts = sc.topology.counts
            qs = list(stats.alarm_probs)
            i = rng.randrange(len(qs))
            bumped = list(qs)
            bumped[i] = min(1.0, bumped[i] + rng.uniform(0.01, 0.2))
            lo = g.score_distribution(stats.weights, g.ClassAlarmLaw(counts, qs))
            hi = g.score_distribution(stats.weights, g.ClassAlarmLaw(counts, bumped))
            for atom in lo.atoms:
                v = atom.value
                assert 1.0 - hi.prob_below(v) >= 1.0 - lo.prob_below(v) - 1e-12


def assert_sums_as_fsum(a):
    a = np.asarray(a, dtype=float)
    want = math.fsum(a.tolist()).hex()
    assert exact_sum(a).hex() == want
    # the same terms in two parts, short or long each: still one rounding of their whole sum
    for cut in {0, len(a) // 3, min(len(a), VECTOR_SUM_MIN_LENGTH - 1), len(a)}:
        assert exact_sum(a[:cut], a[cut:]).hex() == want


class TestExactSum:
    """exact_sum equals math.fsum bit for bit, on both sides of VECTOR_SUM_MIN_LENGTH, of one array or two."""

    LENGTHS = (0, 1, VECTOR_SUM_MIN_LENGTH - 1, VECTOR_SUM_MIN_LENGTH, VECTOR_SUM_MIN_LENGTH + 1)
    TERMS = st.one_of(
        st.just(0.0),
        st.floats(0.0, 2.0**-1022, exclude_max=True),  # subnormals
        st.floats(1e-300, 1.0),
        st.integers(-1074, 0).map(lambda e: 2.0**e),
    )

    @settings(max_examples=150, deadline=None)
    @given(n=st.sampled_from(LENGTHS), pool=st.lists(TERMS, min_size=1, max_size=6), seed=st.integers(0, 2**32 - 1))
    def test_terms_from_a_small_pool(self, n, pool, seed):
        # n terms drawn from a few values, so equal terms recur in every bucket
        assert_sums_as_fsum(np.random.default_rng(seed).choice(pool, size=n))

    @pytest.mark.parametrize("n", LENGTHS)
    def test_terms_spanning_1e_300_to_1(self, n):
        assert_sums_as_fsum(10.0 ** -np.random.default_rng(n).uniform(0, 300, n))

    @pytest.mark.parametrize("n", LENGTHS[2:])
    @pytest.mark.parametrize("e", [0, -30, -1000])
    @pytest.mark.parametrize("halves", [1, 2, 3, 5])
    @pytest.mark.parametrize("nudge", [0.0, 2.0**-1074])
    def test_half_way_ties(self, n, e, halves, nudge):
        # 2**e plus k half-ulps lands on a tie for odd k, which rounds to even unless nudged
        terms = [2.0**e] + [2.0 ** (e - 53)] * halves + [nudge]
        assert_sums_as_fsum(terms + [0.0] * (n - len(terms)))

    def test_max_count_tuples_equal_terms(self):
        # 2**20 copies of a term with a full mantissa: every head and tail sits in one bucket
        assert_sums_as_fsum(np.full(MAX_COUNT_TUPLES, 0.1))

