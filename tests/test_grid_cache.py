"""The cached count-tuple grid: results do not depend on what the cache holds.

Every exact error rate and score law reads the grid of its cell from
``score_dist.cell_grid``. These tests pin the designs of a wide cell, check
that a cold cache gives the same results as a warm one, that the cache stays
within its bounds and that nothing can write to what it holds.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

import griddetect as g
from griddetect import _streams, score_dist
from griddetect.decision_tests import bayes_test, operating_characteristics, solve_mp_test

from cases import random_scenario


CACHES = (score_dist.cell_grid, score_dist.cell_masses, score_dist.cell_ranking, score_dist._binomial_pmf)


def _clear_caches() -> None:
    for cache in CACHES:
        cache.cache_clear()


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


def test_cache_holds_at_most_its_bound():
    _clear_caches()
    # each cell brings two alarm laws and two weight vectors
    for n in range(1, 2 * score_dist.GRID_CACHE_SIZE + 2):
        sc = g.validate(g.ChannelModel(p_c=0.9, p_w=0.1), g.builtin_topology("custom", (0.8, 0.4), counts=(n, 2)))
        mp = solve_mp_test(sc, 0.1, weights=(2.0, 1.0))
        operating_characteristics(mp, sc)
        operating_characteristics(bayes_test(sc, g.Prior(0.3), g.LossRatio(5.0)), sc)
    for cache in CACHES[:3]:
        assert cache.cache_info().currsize == cache.cache_info().maxsize
    assert score_dist.cell_grid.cache_info().maxsize == score_dist.GRID_CACHE_SIZE


def test_cached_arrays_are_read_only():
    _clear_caches()
    sc = _wide_cell()
    operating_characteristics(solve_mp_test(sc, 0.05), sc)
    grid = score_dist.cell_grid(sc.topology.counts)
    assert grid.dtype == np.uint8 and grid.shape == (7**6, 6)
    ranking = score_dist.cell_ranking(sc.topology.counts, sc.derived().weights)
    assert ranking[0].dtype == np.int32
    cached = [grid, *ranking, score_dist._binomial_pmf(6, 0.15)]
    for probs in (sc.derived().alarm_probs, (0.15,) * 6):
        cached.append(score_dist.cell_masses(g.ClassAlarmLaw((6,) * 6, probs)))
    for limbs in _streams._jumps(25):
        cached.extend(limbs)
    for a in cached:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1
    assert score_dist.cell_masses.cache_info().misses == 2
