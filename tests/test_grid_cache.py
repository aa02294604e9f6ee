"""The cached grids, rankings and ranked masses: results do not depend on what the caches hold.

Every exact error rate and score law reads the grid of its cell from
``score_dist.cell_grid``, its ranking from ``score_dist.cell_ranking`` and
its law's masses in that ranking from ``score_dist.ranked_masses``. These
tests pin the designs of a wide cell, check that cold caches give the same
results as warm ones, that the caches stay within their bounds, that the
ranked masses of a rotation of cells stay put, and that nothing can write to
what the caches hold.
"""

from __future__ import annotations

import random
import sys
import threading

import numpy as np
import pytest

import griddetect as g
from griddetect import _streams, score_dist
from griddetect.decision_tests import bayes_test, operating_characteristics, solve_mp_test

from cases import random_scenario


CACHES = (score_dist.cell_grid.cache_clear, score_dist.cell_ranking.cache_clear, score_dist._ranked.clear)
MiB = 2**20
CHARGE = 2**16  # the least an entry of the ranked-mass store counts


def _clear_caches() -> None:
    for clear in CACHES:
        clear()


def _count_masses(monkeypatch) -> list:
    """The laws whose masses are computed from here on, one entry per computation."""
    computed, cell_masses = [], score_dist.cell_masses
    monkeypatch.setattr(score_dist, "cell_masses", lambda law: computed.append(law) or cell_masses(law))
    return computed


def _stored() -> list[int]:
    """The charge of each entry the ranked-mass store keeps, least recently used first."""
    return [max(ranked.nbytes, CHARGE) for ranked, _ in score_dist._ranked.values()]


def _int_weights(weights) -> tuple[float, ...]:
    return tuple(float(max(1, round(3 * w / min(weights)))) for w in weights)


def _designs(scenario, size, weights, prior, loss, before=lambda: None) -> list[str]:
    """repr of the MP rule, the Bayes rule and both operating characteristics,
    calling ``before`` ahead of each of the four calls."""
    before()
    mp = solve_mp_test(scenario, size, weights=weights)
    before()
    bt = bayes_test(scenario, prior, loss)
    out = [mp, bt]
    for rule in (mp, bt):
        before()
        out.append(operating_characteristics(rule, scenario))
    return [repr(x) for x in out]


def _wide_cell() -> g.ValidatedScenario:
    topology = g.builtin_topology("custom", (0.93, 0.78, 0.61, 0.47, 0.3, 0.12), counts=(6,) * 6)
    return g.validate(g.ChannelModel(p_c=0.85, p_w=0.15), topology)


# Six classes of six sensors (117,649 count tuples), recorded before the grid
# was cached: exact weights, integer weights, and a Bayes rule.
WIDE_EXACT_WEIGHTS = (
    "(3.1271571777319735, 2.562923014316304, 2.045071142849928, 1.6505516110456546, "
    "1.1592369104845446, 0.5487400010052165)"
)
WIDE_CELL_PINNED = [
    f"MPTest(weights={WIDE_EXACT_WEIGHTS}, class_counts=(6, 6, 6, 6, 6, 6), "
    "threshold=31.542174531272263, boundary_prob=0.27435503436926123, requested_size=0.05, "
    "exact_size=0.05, exact_power=0.9999829129169235, degenerate=False)",
    "OperatingCharacteristics(type1=0.05000000000000022, power=0.9999829129169235)",
    "MPTest(weights=(17.0, 14.0, 11.0, 9.0, 6.0, 3.0), class_counts=(6, 6, 6, 6, 6, 6), "
    "threshold=171.0, boundary_prob=0.39623427967056557, requested_size=0.05, exact_size=0.05, "
    "exact_power=0.9999828435105288, degenerate=False)",
    "OperatingCharacteristics(type1=0.05, power=0.9999828435105288)",
    f"BayesTest(weights={WIDE_EXACT_WEIGHTS}, class_counts=(6, 6, 6, 6, 6, 6), "
    "threshold=23.415587291414873, applicable=True, normalized_weights=(0.13355023467118074, "
    "0.1094537148447256, 0.08733802476949772, 0.07048943895807454, 0.04950706108958322, "
    "0.023434816909606505), degenerate=False)",
    "OperatingCharacteristics(type1=0.0013056482211605417, power=0.9966774400048728)",
]


def test_wide_cell_designs_are_pinned():
    sc = _wide_cell()
    int_w = _int_weights(sc.derived().weights)
    assert int_w == (17.0, 14.0, 11.0, 9.0, 6.0, 3.0)
    rules = [
        solve_mp_test(sc, 0.05),
        solve_mp_test(sc, 0.05, weights=int_w),
        bayes_test(sc, g.Prior(0.2), g.LossRatio(10.0)),
    ]
    got = []
    for rule in rules:
        got += [repr(rule), repr(operating_characteristics(rule, sc))]
    assert got == WIDE_CELL_PINNED


@pytest.mark.parametrize("kind", ["exact", "integer"])
def test_cold_cache_matches_warm(kind):
    rng = random.Random(f"grid-cache/{kind}")
    for _ in range(12):
        sc = random_scenario(rng, max_classes=4, max_count=5)
        weights = _int_weights(sc.derived().weights) if kind == "integer" else None
        args = (sc, rng.uniform(0.01, 0.3), weights, g.Prior(rng.uniform(0.05, 0.5)), g.LossRatio(rng.uniform(1, 30)))
        _designs(*args)  # fill the cache
        assert _designs(*args, before=_clear_caches) == _designs(*args)


def test_cache_holds_at_most_its_bound(monkeypatch):
    _clear_caches()
    assert score_dist._RANKED_BYTES == 32 * MiB  # a cap cell's two laws under two weight vectors
    monkeypatch.setattr(score_dist, "_RANKED_BYTES", 5 * CHARGE)
    # each cell brings two alarm laws and two weight vectors
    for n in range(1, 2 * score_dist.GRID_CACHE_SIZE + 2):
        sc = g.validate(g.ChannelModel(p_c=0.9, p_w=0.1), g.builtin_topology("custom", (0.8, 0.4), counts=(n, 2)))
        mp = solve_mp_test(sc, 0.1, weights=(2.0, 1.0))
        operating_characteristics(mp, sc)
        operating_characteristics(bayes_test(sc, g.Prior(0.3), g.LossRatio(5.0)), sc)
        assert sum(_stored()) <= 5 * CHARGE
    for cache in (score_dist.cell_grid, score_dist.cell_ranking):
        assert cache.cache_info().currsize == cache.cache_info().maxsize
    assert score_dist.cell_grid.cache_info().maxsize == score_dist.GRID_CACHE_SIZE
    assert _stored() == [CHARGE] * 5  # small arrays count 64 KiB each


def test_store_keeps_within_its_budget_by_bytes(monkeypatch):
    _clear_caches()
    monkeypatch.setattr(score_dist, "_RANKED_BYTES", 4 * MiB)
    weights = (5.0, 4.0, 3.0, 2.0, 1.0)
    # 1.1 to 1.6 MiB of masses a law: two or three of them fit
    for n in (9, 10, 11, 12, 13, 9, 10):
        for q in (0.1, 0.2):
            law = g.ClassAlarmLaw((10, 10, 10, 10, n), (0.5, 0.4, 0.3, 0.2, q))
            ranked, positive = score_dist.ranked_masses(law, weights)
            assert positive and ranked.nbytes == 8 * 11**4 * (n + 1)
            assert sum(_stored()) <= 4 * MiB
            assert score_dist._ranked[law.counts, law.alarm_probs, weights][0] is ranked


def test_entry_larger_than_the_budget_is_returned_not_kept(monkeypatch):
    _clear_caches()
    monkeypatch.setattr(score_dist, "_RANKED_BYTES", MiB)
    computed = _count_masses(monkeypatch)
    small, large = g.ClassAlarmLaw((2, 2), (0.3, 0.6)), g.ClassAlarmLaw((7,) * 6, (0.3,) * 6)
    score_dist.ranked_masses(small, (2.0, 1.0))
    weights = (6.0, 5.0, 4.0, 3.0, 2.0, 1.0)
    for _ in range(2):
        ranked, _ = score_dist.ranked_masses(large, weights)
        assert ranked.nbytes == 2 * MiB
        order = score_dist.cell_ranking(large.counts, weights)[0]
        assert ranked.tobytes() == score_dist.cell_masses(large)[order].tobytes()
    assert computed.count(large) == 2 + 2  # both calls compute, and so do the two checks
    assert _stored() == [CHARGE]  # the small law stays


def test_second_rotation_computes_nothing_afresh(monkeypatch):
    # four cells, each with an event and a normal law under exact and integer weights: 16 keys
    _clear_caches()
    cells = [g.validate(g.ChannelModel(p_c=0.9, p_w=0.1),
                        g.builtin_topology("custom", (0.8, 0.5, 0.3), counts=(n, 3, 3))) for n in (3, 4, 5, 6)]
    computed = _count_masses(monkeypatch)
    for rotation in range(2):
        for sc in cells:
            for weights in (None, _int_weights(sc.derived().weights)):
                operating_characteristics(solve_mp_test(sc, 0.1, weights=weights), sc)
                operating_characteristics(bayes_test(sc, g.Prior(0.3), g.LossRatio(5.0)), sc)
        assert len(computed) == 16
    assert len(_stored()) == 16


def test_store_is_safe_across_threads(monkeypatch):
    _clear_caches()
    monkeypatch.setattr(score_dist, "_RANKED_BYTES", 3 * CHARGE)
    laws = [g.ClassAlarmLaw((4, 3, n), (0.5, 0.3, 0.1)) for n in range(1, 9)]
    want = {law: score_dist.cell_masses(law)[score_dist.cell_ranking(law.counts, (3.0, 2.0, 1.0))[0]].tobytes()
            for law in laws}
    errors = []

    def work(seed):
        rng = random.Random(seed)
        try:
            for _ in range(2000):
                law = rng.choice(laws)
                if score_dist.ranked_masses(law, (3.0, 2.0, 1.0))[0].tobytes() != want[law]:
                    errors.append(law)
        except RuntimeError as exc:  # the store changed size while another thread iterated over it
            errors.append(exc)

    # more threads than cores, switching often: unguarded, one thread's eviction would iterate over the store
    # while another inserts into it
    threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    assert sum(_stored()) == 3 * CHARGE


def test_cached_arrays_are_read_only(monkeypatch):
    _clear_caches()
    computed = _count_masses(monkeypatch)
    sc = _wide_cell()
    operating_characteristics(solve_mp_test(sc, 0.05), sc)
    # the event law for the walk and the size, the normal law for the power: each computed once
    assert computed == [sc.derived().event_law, sc.derived().normal_law] and len(_stored()) == 2
    grid = score_dist.cell_grid(sc.topology.counts)
    assert grid.dtype == np.uint8 and grid.shape == (7**6, 6)
    ranking = score_dist.cell_ranking(sc.topology.counts, sc.derived().weights)
    assert ranking[0].dtype == np.int32
    int_ranking = score_dist.cell_ranking(sc.topology.counts, _int_weights(sc.derived().weights))
    assert len(int_ranking[4]) > 0  # integer weights tie: atoms of several rows, with their bounds
    cached = [grid, *ranking, *int_ranking]
    for law in (sc.derived().event_law, sc.derived().normal_law):
        ranked, positive = score_dist.ranked_masses(law, sc.derived().weights)
        assert positive and ranked.tobytes() == score_dist.cell_masses(law)[ranking[0]].tobytes()
        cached.append(ranked)
    for limbs in _streams._jumps(25):
        cached.extend(limbs)
    for a in cached:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1


@pytest.mark.parametrize("kind", ["exact", "integer"])
def test_ranking_holds_the_bounds_of_its_multi_row_atoms(kind):
    rng = random.Random(f"atom-bounds/{kind}")
    for _ in range(12):
        sc = random_scenario(rng, max_classes=4, max_count=5)
        weights = sc.derived().weights
        order, ranked, starts, values, multi, spans = score_dist.cell_ranking(
            sc.topology.counts, _int_weights(weights) if kind == "integer" else weights)
        ends = np.append(starts[1:], len(ranked))
        assert multi.tolist() == np.flatnonzero(ends - starts > 1).tolist()
        assert spans.tolist() == [[starts[i], ends[i]] for i in multi.tolist()]
        assert multi.dtype == spans.dtype == np.int32 and spans.shape == (len(multi), 2)
