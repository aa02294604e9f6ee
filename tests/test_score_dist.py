import itertools
import math
import random
import sys
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import griddetect as g
from griddetect import DomainError, score_dist
from griddetect.score_dist import (
    MAX_COUNT_TUPLES,
    VECTOR_SUM_MIN_LENGTH,
    _atom_starts,
    _check_weights,
    atom_tolerance,
    cell_ranking,
    count_tuples,
    exact_sum,
    score_law_walk,
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
        assert grid.shape == (24, 3) and grid.dtype == np.uint8 and grid.flags.c_contiguous
        assert [tuple(row) for row in grid.tolist()] == list(itertools.product(range(2), range(3), range(4)))

    @pytest.mark.parametrize("counts", [(31,) * 4, (510,) + (1,) * 11, (5,) * 6], ids=["4x31", "510+11x1", "6x6"])
    def test_grid_is_built_as_one_copy(self, counts):
        tracemalloc.start()
        try:
            grid = count_tuples(counts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= grid.nbytes + 64 * 1024
        dims = tuple(n + 1 for n in counts)  # the reference: np.indices, transposed
        reference = np.indices(dims, dtype=grid.dtype).reshape(len(dims), -1).T
        assert grid.flags.c_contiguous and grid.shape == reference.shape and np.array_equal(grid, reference)

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
        order, ranked, starts, values = ranking = cell_ranking(law.counts, self.WEIGHTS)
        dist = g.score_distribution(self.WEIGHTS, law)
        assert dist.order is order and dist.starts is starts and dist.values is values
        assert order.dtype == starts.dtype == np.int32 and np.all(np.diff(ranked) >= 0.0)
        for a in ranking:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1


class TestScoreLawPrefix:
    """The most-powerful walk reads score_distribution's arrays and their running sum bit for bit, whatever the
    store holds, and the cell's ranked scores."""

    LAWS = {
        # 16,807 atoms of one row each
        "one-row": ((3.1271571777319735, 2.562923014316304, 2.045071142849928, 1.6505516110456546, 1.1592369104845446),
                    g.ClassAlarmLaw((6,) * 5, (0.8, 0.6, 0.5, 0.4, 0.3))),
        # 7,741 atoms, 5,477 of them of several rows: the running sum adds the stored per-atom masses
        "integer": ((1000.0, 300.0, 70.0, 11.0, 3.0), g.ClassAlarmLaw((6,) * 5, (0.8, 0.6, 0.5, 0.4, 0.3))),
        "zero-mass": (TestZeroMassFallback.WEIGHTS, TestZeroMassFallback.LAW),
    }

    @pytest.mark.parametrize("case", LAWS)
    def test_prefixes_of_the_whole_law(self, monkeypatch, case):
        weights, law = self.LAWS[case]
        order, _, starts, _ = cell_ranking(law.counts, weights)
        assert (len(starts) < len(order)) == (case != "one-row")  # tied: atoms of several rows
        monkeypatch.setattr(score_dist, "_store", OrderedDict())  # cold: the walk builds what it reads
        monkeypatch.setattr(score_dist, "_store_bytes", 0)
        cold, warm = (score_law_walk(weights, law) for _ in range(2))
        dist = g.score_distribution(weights, law)
        whole = (dist.values, dist.probs, np.cumsum(dist.probs))
        for got in (cold, warm):
            assert [a.tobytes() for a in got[:3]] == [a.tobytes() for a in whole]
            assert got[3] is cell_ranking(law.counts, weights)[1]
        # a positive law's walk is summed once and kept; one with zero masses is summed afresh, not kept
        walks = [key for key in score_dist._store if key[0] == "_law_walk"]
        if case == "zero-mass":
            assert walks == [] and warm[2] is not cold[2]
        else:
            assert walks == [("_law_walk", law.counts, law.alarm_probs, weights)] and warm[2] is cold[2]


def _crafted(n: int, kind: str) -> np.ndarray:
    rng = np.random.default_rng(n)
    return {
        "zeros": np.zeros(n),
        "subnormals": rng.uniform(0.0, 2.0**-1022, n),
        "ones": np.ones(n),
        "mixed": rng.choice([0.0, 1.0, 2.0**-1074, 2.0**-1030, 0.1], n),
        # 1e-300 to 1: 997 binary exponents, 34 limbs a row
        "wide": 10.0 ** -rng.uniform(0, 300, n),
    }[kind]


class TestCheckpointLimbs:
    """A prefix summed from its checkpoint's limbs and the fewer than one stride of masses after it, with and without
    boundary terms times k, has the bits of math.fsum of the prefix; a law's checkpoints come every stride ranks, the
    least power of two of at least 4 times its limb width, so its rows hold at most a quarter of its masses' bytes."""

    @staticmethod
    def stride(rows: np.ndarray, masses: np.ndarray, s: int) -> int:
        assert s >= 4 * rows.shape[1] > s // 2 and s & (s - 1) == 0
        assert rows.shape[0] == len(masses) // s and rows.nbytes <= masses.nbytes / 4
        return s

    @staticmethod
    def cuts(n: int, s: int) -> list[int]:
        return sorted(i for i in {0, 1, s - 1, s, s + 1, 2 * s, n // 3, n - 1, n} if 0 <= i <= n)

    @pytest.mark.parametrize("kind", ["zeros", "subnormals", "ones", "mixed", "wide"])
    @pytest.mark.parametrize("n", [511, 3 * 512 + 7, 2**14 + 5 * 512])  # the last spans two passes
    def test_crafted_arrays(self, kind, n):
        a = _crafted(n, kind)
        rows, s = score_dist._checkpoint_limbs(a)
        self.stride(rows, a, s)
        # three limbs a mass, one more per 32 binary exponents it spans: 1e-300 to 1 spans 997, 2**-1074 to 1 1075
        assert s == {"zeros": 16, "subnormals": 16, "ones": 16, "mixed": 256, "wide": 256}[kind]
        for i in self.cuts(n, s):
            c = i // s
            limbs = (rows[c - 1],) if c else ()
            for j, k in ((i, 0.0), (min(n, i + 300), 0.3), (n, 1.0)):
                want = math.fsum(a[:i].tolist() + (a[i:j] * k).tolist()).hex()
                assert exact_sum(*limbs, a[c * s:i], a[i:j] * k).hex() == want

    def test_a_full_cell_of_one_term(self):
        # 2**20 rows of a full mantissa: the lowest limbs sum to almost 2**52, the most a column holds
        a = np.full(MAX_COUNT_TUPLES, 1.0 - 2.0**-53)
        rows, _ = score_dist._checkpoint_limbs(a)
        assert exact_sum(rows[-1]).hex() == math.fsum(a.tolist()).hex()

    @pytest.mark.parametrize("case", [*TestScoreLawPrefix.LAWS, "cap"])
    def test_real_laws(self, case):
        if case == "cap":  # the 4x31 cap cell's normal law under its exact weights: 2**20 masses
            topology = g.builtin_topology("custom", (0.93, 0.71, 0.52, 0.37), counts=(31,) * 4)
            stats = g.validate(g.ChannelModel(p_c=0.87, p_w=0.13), topology).derived()
            law, weights = stats.normal_law, stats.weights
        else:
            law, weights = TestScoreLawPrefix.LAWS[case][::-1]
        masses, rows, stride = score_dist._ranked_law(law.counts, law.alarm_probs, weights)
        n = len(masses)
        assert not rows.flags.writeable
        for i in self.cuts(n, self.stride(rows, masses, stride)):
            for j, k in ((i, 0.0), (min(n, i + 40), 0.6)):
                want = math.fsum(masses[:i].tolist() + (masses[i:j] * k).tolist()).hex()
                assert score_dist.ranked_sum(law, weights, i, j, k).hex() == want

    def test_a_law_shorter_than_one_stride(self):
        law, weights = g.ClassAlarmLaw((2, 2), (0.3, 0.6)), (2.0, 1.0)
        masses, rows, stride = score_dist._ranked_law(law.counts, law.alarm_probs, weights)
        assert rows.shape == (0, 3) and self.stride(rows, masses, stride) == 16 > len(masses) == 9
        for i in range(10):
            for j in range(i, 10):
                want = math.fsum(masses[:i].tolist() + (masses[i:j] * 0.7).tolist()).hex()
                assert score_dist.ranked_sum(law, weights, i, j, 0.7).hex() == want

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(data=st.data(), n_classes=st.integers(1, 5), integer=st.booleans(), k_kind=st.sampled_from([0, 1, "random"]))
    def test_ranked_sum_is_fsum_of_the_prefix(self, data, n_classes, integer, k_kind):
        counts = tuple(data.draw(st.lists(st.integers(1, 6), min_size=n_classes, max_size=n_classes)))
        probs = st.one_of(st.sampled_from([0.0, 1.0, 1e-9, 0.5]), st.floats(0.0, 1.0))
        law = g.ClassAlarmLaw(counts, tuple(data.draw(probs) for _ in counts))
        weight = st.integers(1, 9).map(float) if integer else st.floats(0.01, 100.0)
        weights = tuple(data.draw(weight) for _ in counts)
        masses = score_dist._ranked_law(law.counts, law.alarm_probs, weights)[0]
        n = len(masses)
        i = data.draw(st.integers(0, n))
        j = data.draw(st.integers(i, n))
        k = data.draw(st.floats(0.0, 1.0)) if k_kind == "random" else float(k_kind)
        want = math.fsum(masses[:i].tolist() + (masses[i:j] * k).tolist()).hex()
        assert score_dist.ranked_sum(law, weights, i, j, k).hex() == want


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

