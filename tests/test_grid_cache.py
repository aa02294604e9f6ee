"""The stored rankings, masses and walks: results do not depend on what the store holds.

Every exact error rate and score law reads the ranking of its cell from
``score_dist.cell_ranking`` and one entry of its law in that ranking: the
ranked masses with the exact limbs of every checkpoint
(``score_dist._ranked_law``, which ``ranked_sum`` reads). A most-powerful
walk, and a score law with atoms of several rows, also read the law's walk:
its mass per atom, summed once, and their running sum. All are kept in one
store bounded by bytes, with the simulator's verdict tables; no grid of
count tuples is kept. These tests pin the designs of a wide cell, check that
a cold store gives the same results as a warm one, that the store charges
what its entries hold and stays within its budget, that a rotation of cells,
and each command on a cap cell, builds nothing twice while a quarter less
budget makes one build twice, that a warm design reads few entries, and that
nothing can write to what the store holds or to the stream constants blocks
share.
"""

from __future__ import annotations

import dataclasses
import math
import random
import sys
import threading
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest
from click.testing import CliRunner

import griddetect as g
from griddetect import _streams, decision_tests, score_dist, simulator
from griddetect.cli import main
from griddetect.decision_tests import bayes_test, operating_characteristics, solve_mp_test, solve_mp_tests

from cases import GOOD_APPROX, good_scenario, random_scenario


MiB = 2**20


def _clear_store() -> None:
    with score_dist._store_lock:
        score_dist._store.clear()
        score_dist._store_bytes = 0


def _count_masses(monkeypatch) -> list:
    """The laws whose masses are computed from here on, one entry per computation."""
    computed, cell_masses = [], score_dist.cell_masses
    monkeypatch.setattr(score_dist, "cell_masses", lambda law: computed.append(law) or cell_masses(law))
    return computed


KINDS = {"cell_ranking": "ranking", "_ranked_law": "law", "_law_walk": "walk", "_plan": "plan"}


def _count_builds(monkeypatch) -> dict[str, list]:
    """The keys of the rankings, ranked laws, walks and verdict tables stored from here on, one entry per build, in a
    store that starts empty; a key of any other kind under its builder's name."""
    built = {kind: [] for kind in KINDS.values()}

    class Counting(OrderedDict):
        def __setitem__(self, key, value):
            built.setdefault(KINDS.get(key[0], key[0]), []).append(key)  # a key starts with its builder's name
            super().__setitem__(key, value)

    monkeypatch.setattr(score_dist, "_store", Counting())
    monkeypatch.setattr(score_dist, "_store_bytes", 0)
    return built


def _twice(built: dict[str, list]) -> dict[str, list]:
    """The keys of each kind built more than once."""
    return {kind: sorted({key for key in keys if keys.count(key) > 1}) for kind, keys in built.items()}


def _stored() -> list[int]:
    """The charge of each entry the store keeps, least recently used first."""
    return [nbytes for _, nbytes in score_dist._store.values()]


def _charge(value) -> int:
    """What the store charges for a result: its arrays' bytes, of a tuple or of one array, and one overhead."""
    items = value if isinstance(value, tuple) else (value,)
    return score_dist._ENTRY_BYTES + sum(a.nbytes for a in items if isinstance(a, np.ndarray))


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
        assert _designs(*args, before=_clear_store) == _designs(*args)


def test_cache_holds_at_most_its_bound(monkeypatch):
    # stricter than the entry counts it replaces: 4 grids and 8 rankings of a 4x31 cell (4 and at least 12 MiB
    # each) and 32 MiB of ranked masses
    assert score_dist.STORE_BYTES == 52 * MiB < 4 * 4 * MiB + 8 * 12 * MiB + 32 * MiB
    evicted = []  # the charge of each entry evicted, in turn

    class Evicting(OrderedDict):
        def popitem(self, last=True):
            key, value = super().popitem(last)
            evicted.append(value[1])
            return key, value

    monkeypatch.setattr(score_dist, "_store", Evicting())
    monkeypatch.setattr(score_dist, "_store_bytes", 0)
    budget = 9 * 2**10  # about one cell's entries: 6.0 to 8.1 KiB
    monkeypatch.setattr(score_dist, "STORE_BYTES", budget)
    # each cell brings two weight vectors and two alarm laws
    for n in range(1, 10):
        sc = g.validate(g.ChannelModel(p_c=0.9, p_w=0.1), g.builtin_topology("custom", (0.8, 0.4), counts=(n, 2)))
        mp = solve_mp_test(sc, 0.1, weights=(2.0, 1.0))
        operating_characteristics(mp, sc)
        operating_characteristics(bayes_test(sc, g.Prior(0.3), g.LossRatio(5.0)), sc)
        assert score_dist._store_bytes == sum(_stored()) <= budget
    # every entry is charged its arrays' bytes and one overhead, no floor; the store evicts only until it is within
    # its budget, so it holds more than the budget less the last entry it evicted; the last cell's entries are kept
    assert _stored() == [_charge(value) for value, _ in score_dist._store.values()]
    assert evicted and budget - evicted[-1] < score_dist._store_bytes
    assert ("cell_ranking", (9, 2), (2.0, 1.0)) in score_dist._store


def test_store_charges_what_its_entries_hold():
    # small cells of table-sweep's size: the charge covers what tracemalloc sees kept, with no 64 KiB floor
    rng = random.Random("store-charge")
    keys = []
    for counts in {tuple(rng.randint(1, 5) for _ in range(rng.randint(2, 4))) for _ in range(120)}:
        law = g.ClassAlarmLaw(counts, tuple(rng.uniform(0.05, 0.95) for _ in counts))
        keys.append((law, tuple(rng.uniform(0.5, 3.0) for _ in counts)))
    _clear_store()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for law, weights in keys:  # masses with their checkpoint limbs, and the walk's running sum
            n = len(score_dist._ranked_law(law.counts, law.alarm_probs, weights)[0])
            score_dist.score_law_walk(weights, law)
            score_dist.ranked_sum(law, weights, n)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # every law keeps its limbs, one with fewer masses than its stride an empty array of them
    empty = sum(len(score_dist._ranked_law(law.counts, law.alarm_probs, weights)[1]) == 0 for law, weights in keys)
    assert 0 < empty < len(keys) and len(_stored()) == 3 * len(keys)
    assert held <= score_dist._store_bytes < 1.5 * held


def test_store_keeps_within_its_budget_by_bytes(monkeypatch):
    _clear_store()
    monkeypatch.setattr(score_dist, "STORE_BYTES", 8 * MiB)
    weights = (5.0, 4.0, 3.0, 2.0, 1.0)
    # 1.1 to 1.6 MiB of masses and 0.2 to 0.3 MiB of limbs a law, 1.7 to 2.3 MiB of ranking a cell
    for n in (9, 10, 11, 12, 13, 9, 10):
        for q in (0.1, 0.2):
            law = g.ClassAlarmLaw((10, 10, 10, 10, n), (0.5, 0.4, 0.3, 0.2, q))
            ranked = score_dist._ranked_law(law.counts, law.alarm_probs, weights)[0]
            assert ranked.all() and ranked.nbytes == 8 * 11**4 * (n + 1)
            assert score_dist._store_bytes == sum(_stored()) <= 8 * MiB
            assert score_dist._store["_ranked_law", law.counts, law.alarm_probs, weights][0][0] is ranked


def test_entry_larger_than_the_budget_is_returned_not_kept(monkeypatch):
    _clear_store()
    monkeypatch.setattr(score_dist, "STORE_BYTES", MiB)
    computed = _count_masses(monkeypatch)
    small, large = g.ClassAlarmLaw((2, 2), (0.3, 0.6)), g.ClassAlarmLaw((7,) * 6, (0.3,) * 6)
    score_dist._ranked_law(small.counts, small.alarm_probs, (2.0, 1.0))
    kept = list(score_dist._store)
    weights = (6.0, 5.0, 4.0, 3.0, 2.0, 1.0)
    for _ in range(2):
        ranked = score_dist._ranked_law(large.counts, large.alarm_probs, weights)[0]
        assert ranked.nbytes == 2 * MiB
        order = score_dist.cell_ranking(large.counts, weights)[0]
        assert ranked.tobytes() == score_dist.cell_masses(large)[order].tobytes()
    assert computed.count(large) == 2 + 2  # both calls compute, and so do the two checks
    assert list(score_dist._store) == kept  # the large cell's ranking and masses are not kept; the rest stays
    assert score_dist._store_bytes == sum(_stored())


def test_second_rotation_computes_nothing_afresh(monkeypatch):
    # four cells, each with an event and a normal law under exact and integer weights: 16 keys
    _clear_store()
    cells = [g.validate(g.ChannelModel(p_c=0.9, p_w=0.1),
                        g.builtin_topology("custom", (0.8, 0.5, 0.3), counts=(n, 3, 3))) for n in (3, 4, 5, 6)]
    computed = _count_masses(monkeypatch)
    for rotation in range(2):
        for sc in cells:
            for weights in (None, _int_weights(sc.derived().weights)):
                operating_characteristics(solve_mp_test(sc, 0.1, weights=weights), sc)
                operating_characteristics(bayes_test(sc, g.Prior(0.3), g.LossRatio(5.0)), sc)
        assert len(computed) == 16
    # rankings, each law's ranked masses with their checkpoint limbs, and each walked event law's running sum, with
    # its per-atom masses under integer weights
    assert len(_stored()) == 8 + 16 + 8


def test_second_rotation_rebuilds_no_ranking(monkeypatch):
    # table-sweep's pattern: more (cell, weights) keys than the 8 rankings an entry-count bound kept
    _clear_store()
    cells = [g.validate(g.ChannelModel(p_c=0.9, p_w=0.1), g.builtin_topology("custom", (0.8, 0.5, 0.3), counts=counts))
             for counts in ((2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 2, 3), (3, 3, 2), (3, 2, 3))]
    built = _count_builds(monkeypatch)
    for rotation in range(2):
        for sc in cells:
            for weights in (None, _int_weights(sc.derived().weights)):
                operating_characteristics(solve_mp_test(sc, 0.1, weights=weights), sc)
                operating_characteristics(bayes_test(sc, g.Prior(0.3), g.LossRatio(5.0)), sc)
        if rotation == 0:
            first = {kind: len(keys) for kind, keys in built.items()}
    assert first == {"ranking": 12, "law": 24, "walk": 12, "plan": 0}
    assert {kind: len(keys) for kind, keys in built.items()} == first


def test_warm_integer_weight_walk_sums_no_atom(monkeypatch):
    sc = _wide_cell()
    int_w = _int_weights(sc.derived().weights)
    _clear_store()
    built = _count_builds(monkeypatch)
    first = solve_mp_test(sc, 0.05, weights=int_w)
    assert [key[1:] for key in built["walk"]] == [(sc.topology.counts, sc.derived().event_law.alarm_probs, int_w)]
    sums, atom_sums = [], score_dist._atom_sums
    monkeypatch.setattr(score_dist, "_atom_sums", lambda *a: sums.append(a) or atom_sums(*a))
    second = solve_mp_test(sc, 0.01, weights=int_w)
    assert sums == [] and len(built["walk"]) == 1  # the second walk reads the stored per-atom masses
    assert repr(first) == WIDE_CELL_PINNED[2] and second.exact_size == pytest.approx(0.01, abs=1e-12)
    walk, nbytes = score_dist._store[built["walk"][0]]
    assert len(walk) == 2 and not any(a.flags.writeable for a in walk) and nbytes == _charge(walk)


def test_warm_rates_read_less_than_a_block_of_masses(monkeypatch):
    sc = _wide_cell()
    stats = sc.derived()
    rules = [solve_mp_test(sc, 0.05), bayes_test(sc, g.Prior(0.2), g.LossRatio(10.0))]
    for rule in rules:  # warm: every checkpoint these rates read is stored
        operating_characteristics(rule, sc)
    ranked = score_dist.cell_ranking(sc.topology.counts, stats.weights)[1]
    assert min(ranked.searchsorted(rule.threshold) for rule in rules) > 30 * score_dist.VECTOR_SUM_MIN_LENGTH
    masses = [score_dist._ranked_law(law.counts, law.alarm_probs, stats.weights)[0]
              for law in (stats.event_law, stats.normal_law)]
    read, exact_sum = [], score_dist.exact_sum

    def counting(*parts):
        read.append(sum(len(p) for p in parts if any(np.shares_memory(p, m) for m in masses)))
        return exact_sum(*parts)

    monkeypatch.setattr(score_dist, "exact_sum", counting)
    monkeypatch.setattr(decision_tests, "exact_sum", counting, raising=False)  # where whole prefixes were summed
    got = [repr(operating_characteristics(rule, sc)) for rule in rules]
    assert got == [WIDE_CELL_PINNED[1], WIDE_CELL_PINNED[5]]
    # the MP rule's type I error (its power is the solver's), the Bayes rule's two rates: each from a checkpoint on,
    # reading fewer masses than the stride of either law
    strides = [score_dist._ranked_law(law.counts, law.alarm_probs, stats.weights)[2]
               for law in (stats.event_law, stats.normal_law)]
    assert len(read) == 3 and max(read) < min(strides) < score_dist.VECTOR_SUM_MIN_LENGTH


def _three_class_cell() -> g.ValidatedScenario:
    return g.validate(g.ChannelModel(p_c=0.9, p_w=0.1), g.builtin_topology("custom", (0.8, 0.5, 0.3), counts=(6,) * 3))


@pytest.mark.parametrize("kind", ["exact", "integer"])
def test_warm_design_reads_few_entries(monkeypatch, kind):
    # a walk reads its walk, the ranking and, where every atom is one row, the walked law; the solver's power reads
    # the normal law under that ranking; each operating characteristic reads a ranking and each law it rates once
    sc = _three_class_cell()
    weights = _int_weights(sc.derived().weights) if kind == "integer" else None
    args = (sc, 0.05, weights, g.Prior(0.3), g.LossRatio(5.0))
    want = _designs(*args)  # warm
    reads = []

    class Reading(OrderedDict):
        def __getitem__(self, key):
            reads.append(key[0])
            return super().__getitem__(key)

    monkeypatch.setattr(score_dist, "_store", Reading(score_dist._store))
    assert _designs(*args) == want
    assert len(reads) == {"exact": 9, "integer": 8}[kind] and all(name in KINDS for name in reads)


@pytest.mark.parametrize("weights, message", [
    ((3.0, -2.0, 1.0), "class 1: weight must be positive, got -2.0"),
    ((3.0, math.inf, 1.0), "class 1: weight must be finite, got inf"),
    ((3.0, 1.0), "2 weights for 3 classes"),
    ((1e308,) * 3, "weights too large: the score with every sensor alarming overflows"),
])
@pytest.mark.parametrize("store", ["cold", "warm"])
def test_bad_weights_are_refused_and_stored_under_no_key(weights, message, store):
    # the walk checks the weights when it is built, so a hit needs no check and nothing is ever kept under bad ones
    sc = _three_class_cell()
    _clear_store()
    if store == "warm":
        solve_mp_test(sc, 0.05, weights=(3.0, 2.0, 1.0))
    for _ in range(2):
        with pytest.raises(g.DomainError) as info:
            solve_mp_test(sc, 0.05, weights=weights)
        assert str(info.value) == message
    assert not any(weights in key for key in score_dist._store)


def test_second_run_builds_no_verdict_table(monkeypatch):
    sc = g.validate(g.ChannelModel(p_c=0.9, p_w=0.1), g.builtin_topology("interior_square", (0.9, 0.5, 0.3)))
    prior = g.Prior(0.3)
    bayes = bayes_test(sc, prior, g.LossRatio(5.0))
    # a threshold of -inf gives the form a nan bound, which equals nothing, not even itself
    never = dataclasses.replace(bayes, threshold=-math.inf, applicable=False, normalized_weights=None)
    tests = [("bayes", bayes), ("mp", solve_mp_test(sc, 0.05)), ("never", never)]
    _clear_store()
    built = _count_builds(monkeypatch)
    reports = [g.run_trials(sc, prior, tests, 250, seed) for seed in (1, 2)]
    assert len(built["plan"]) == 1 and built["plan"][0][1] == sc.topology.counts
    assert reports[0] != reports[1] and reports[1].test_stats[2].n_reject_normal == 0
    plan = score_dist._store[built["plan"][0]][0]  # the verdict table and each sensor's stride
    assert [a.shape for a in plan] == [(50, 3), (50, 3), (9,)] and not any(a.flags.writeable for a in plan)
    assert score_dist._store_bytes == sum(_stored()) and _stored()[-1] == _charge(plan)


def test_warm_run_derives_nothing(monkeypatch):
    # simulate's six rules on the good scenario: a warm 250-trial run reads its plan and derives nothing
    sc, prior = good_scenario(), g.Prior(0.3)
    sizes = (0.1, 0.05, 0.025, 0.01)
    tests = [(f"bayes l={l:g}", bayes_test(sc, prior, g.LossRatio(l))) for l in (5, 20)]
    tests += [(f"mp size={s:g}", t) for s, t in zip(sizes, solve_mp_tests(sc, sizes, **GOOD_APPROX))]
    want = g.run_trials(sc, prior, tests, 250, 3)  # warm
    reads, built, derived = [], [], []

    class Counting(OrderedDict):
        def __getitem__(self, key):
            reads.append(key[0])
            return super().__getitem__(key)

        def __setitem__(self, key, value):
            built.append(key[0])
            super().__setitem__(key, value)

    monkeypatch.setattr(score_dist, "_store", Counting(score_dist._store))
    built.clear()  # the copy's insertions
    # a rule's form is derived from its fields (_threshold_form), and a rule set's stacked form from its form bytes
    threshold_form, stacked_forms = decision_tests._threshold_form, simulator._stacked_forms
    monkeypatch.setattr(decision_tests, "_threshold_form", lambda *a: derived.append(a) or threshold_form(*a))
    monkeypatch.setattr(simulator, "_stacked_forms", lambda *a: derived.append(a) or stacked_forms(*a))
    assert g.run_trials(sc, prior, tests, 250, 3) == want
    assert (reads, built, derived) == (["_plan"], [], [])


def _cap_cell(classes, approx_weights) -> str:
    """A scenario on one cell of (count, p_detect) classes at the cap of count tuples, in whose rankings every
    score, under the exact weights or ``approx_weights``, is its own atom."""
    alarm = [round(0.87 * p + 0.13 * (1 - p), 2) - 0.01 for _, p in classes]  # paper-approx designs read a third law
    return (
        "schema: 1\nchannel: {p_c: 0.87, p_w: 0.13}\n"
        f"topology: {{kind: custom, classes: [{', '.join(f'{{count: {n}, p_detect: {p}}}' for n, p in classes)}]}}\n"
        "prior: {p_e: [0.1, 0.5]}\nloss_ratio: [5, 20]\nsizes: [0.1, 0.05, 0.01]\nweight_mode: exact\n"
        f"approx: {{weights: {list(approx_weights)}, alarm_probs: {alarm}}}\n"
        "simulation: {n_trials: 100, master_seed: 7}\n"
    )


CAP_CELLS = {
    # four classes of 31 sensors (2**20 count tuples, a 4 MiB grid): the roadmap's cap cell
    "4x31": ([(31, p) for p in (0.93, 0.71, 0.52, 0.37)], [32768, 1024, 32, 1]),
    # 510 sensors and 11 single ones (2**20 - 2**11 count tuples): a uint16 grid of 24 MiB, the widest under the cap,
    # which a ranking builds and drops
    "510+11x1": ([(510, 0.05)] + [(1, round(0.97 - 0.085 * i, 3)) for i in range(11)],
                 [1] + [512 << i for i in range(11)]),
    # the same with an event law of positive masses (alarm probability 0.5 in the wide class, listed in the order of
    # detection probability): its walk keeps the running sum of every atom next to the ranking and masses
    "510p+11x1": ([(1, round(0.97 - 0.085 * i, 3)) for i in range(6)] + [(510, 0.5)]
                  + [(1, round(0.97 - 0.085 * i, 3)) for i in range(6, 11)],
                  [512 << i for i in range(6)] + [1] + [512 << i for i in range(6, 11)]),
}
CAP_COMMANDS = ["mp --weight-mode exact", "mp --weight-mode paper-approx", "bayes",
                "simulate --weight-mode exact", "simulate --weight-mode paper-approx"]


# simulate refuses the cell of 521 sensors: it caps the draws per trial
@pytest.mark.parametrize("cell, command", [(cell, command) for cell in CAP_CELLS for command in CAP_COMMANDS
                                           if cell == "4x31" or not command.startswith("simulate")])
def test_cap_cell_command_builds_no_entry_twice(monkeypatch, tmp_path, cell, command):
    path = tmp_path / "cap.yaml"
    path.write_text(_cap_cell(*CAP_CELLS[cell]))
    _clear_store()
    built = _count_builds(monkeypatch)
    sums, atom_sums = [], score_dist._atom_sums
    monkeypatch.setattr(score_dist, "_atom_sums", lambda *a: sums.append(a) or atom_sums(*a))
    result = CliRunner().invoke(main, [*command.split(), "--scenario", str(path)])
    assert result.exit_code == 0, result.output
    assert set(built) == set(KINDS.values()) and built["ranking"] and built["law"]  # no grid, no kind but these
    # every MP design walks a running sum, kept for a law of positive masses: 0.13**510 underflows to 0
    assert bool(built["walk"]) == (cell != "510+11x1" and not command.startswith("bayes"))
    assert sums == []  # every atom is one row: a walk keeps only its running sum and reads the ranked masses
    assert built["plan"] == []  # 2**20 count tuples: simulate scores each trial by its rules' forms, keeping no table
    assert _twice(built) == {kind: [] for kind in KINDS.values()}
    assert score_dist._store_bytes <= score_dist.STORE_BYTES


def test_cap_cell_command_builds_an_entry_twice_at_three_quarters_of_the_budget(monkeypatch, tmp_path):
    # with the test above, this holds STORE_BYTES near the least budget of the cap-cell commands: a bayes design reads
    # the 4x31 cell's ranking (24 MiB) and both laws' masses with their limbs (about 20 MiB) together
    path = tmp_path / "cap.yaml"
    path.write_text(_cap_cell(*CAP_CELLS["4x31"]))
    monkeypatch.setattr(score_dist, "STORE_BYTES", score_dist.STORE_BYTES * 3 // 4)
    built = _count_builds(monkeypatch)
    result = CliRunner().invoke(main, ["bayes", "--scenario", str(path)])
    assert result.exit_code == 0, result.output
    assert any(_twice(built).values())


def test_cap_cells_keep_the_store_within_its_budget(tmp_path):
    _clear_store()
    for i, p_detect in enumerate([(0.93, 0.71, 0.52, 0.37), (0.91, 0.73, 0.55, 0.33), (0.89, 0.69, 0.47, 0.29)]):
        path = tmp_path / f"cap{i}.yaml"
        path.write_text(_cap_cell([(31, p) for p in p_detect], [32768, 1024, 32, 1]))
        result = CliRunner().invoke(main, ["mp", "--scenario", str(path)])
        assert result.exit_code == 0, result.output
        assert score_dist._store_bytes == sum(_stored()) <= score_dist.STORE_BYTES
        assert score_dist._store_bytes > 40 * MiB  # the ranking and two laws' masses of this cell


def test_store_is_safe_across_threads(monkeypatch):
    _clear_store()
    laws = [g.ClassAlarmLaw((4, 3, n), (0.5, 0.3, 0.1)) for n in range(1, 9)]
    weights = (3.0, 2.0, 1.0)
    want = {law: score_dist.cell_masses(law)[score_dist.cell_ranking(law.counts, weights)[0]].tobytes()
            for law in laws}
    # integer-weight designs, whose walks read per-atom masses, solved first in sequence
    channel = g.ChannelModel(p_c=0.9, p_w=0.1)
    cells = [g.validate(channel, g.builtin_topology("custom", (0.8, 0.5, 0.3), counts=law.counts)) for law in laws]
    designs = [(sc, size) for sc in cells for size in (0.01, 0.05, 0.2)]
    want_mp = {design: repr(solve_mp_test(design[0], design[1], weights=weights)) for design in designs}
    assert any(key[0] == "_law_walk" and len(value[0]) == 2 for key, value in score_dist._store.items())
    budget = 3 * max(_stored())  # a few entries at a time: every thread evicts what another reads
    monkeypatch.setattr(score_dist, "STORE_BYTES", budget)
    errors = []

    def work(seed):
        rng = random.Random(seed)
        try:
            for _ in range(2000):
                if rng.random() < 0.25:
                    sc, size = design = rng.choice(designs)
                    if repr(solve_mp_test(sc, size, weights=weights)) != want_mp[design]:
                        errors.append(design)
                    continue
                law = rng.choice(laws)
                if score_dist._ranked_law(law.counts, law.alarm_probs, weights)[0].tobytes() != want[law]:
                    errors.append(law)
        except Exception as exc:  # reported by the assertion below, not lost in the thread
            errors.append(exc)

    # more threads than cores, switching often: unguarded, two threads would insert one key and count it twice,
    # or one would evict while another inserts
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
    assert score_dist._store_bytes == sum(_stored()) <= budget
    assert _stored() == [_charge(value) for value, _ in score_dist._store.values()]


def test_cached_arrays_are_read_only(monkeypatch):
    _clear_store()
    computed = _count_masses(monkeypatch)
    sc = _wide_cell()
    operating_characteristics(solve_mp_test(sc, 0.05), sc)
    # the ranking; the event law for the walk and the size, the normal law for the power: each computed once, with its
    # checkpoint limbs; and the walk's running sum
    assert computed == [sc.derived().event_law, sc.derived().normal_law] and len(_stored()) == 1 + 2 + 1
    ranking = score_dist.cell_ranking(sc.topology.counts, sc.derived().weights)
    assert len(ranking) == 4 and ranking[0].dtype == ranking[2].dtype == np.int32
    int_ranking = score_dist.cell_ranking(sc.topology.counts, _int_weights(sc.derived().weights))
    assert len(int_ranking[2]) < len(int_ranking[0])  # integer weights tie: atoms of several rows
    cached = [*ranking, *int_ranking]
    for law in (sc.derived().event_law, sc.derived().normal_law):
        masses, limbs, stride = score_dist._ranked_law(law.counts, law.alarm_probs, sc.derived().weights)
        assert type(stride) is int  # two arrays and a stride
        assert masses.all() and masses.tobytes() == score_dist.cell_masses(law)[ranking[0]].tobytes()
        cached += [masses, limbs]
    for weights in (sc.derived().weights, _int_weights(sc.derived().weights)):  # per-atom masses under the second
        dist, scores = score_dist.score_law_walk(weights, sc.derived().event_law)
        cached += [dist.values, dist.probs, dist.cum, dist.starts, dist.order, scores]
    assert len(_stored()) == 4 + 1 + 1 + 1  # the integer ranking, ranked law, and walk with per-atom masses
    for limbs in _streams._jumps(25):
        cached.extend(limbs)
    # the 0-d constants every block shares, the seeding's hash constants, and one workspace's widening of them
    scalars = [a for a in vars(_streams).values() if isinstance(a, np.ndarray) and a.ndim == 0]
    assert scalars
    ws = _streams._Workspace().fit(3, 25)
    cached += [*scalars, _streams._SEED_HASH, ws.pool_hash, ws.mix_hash, ws.state_hash]
    for a in cached:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 1


@pytest.mark.parametrize("kind", ["exact", "integer"])
def test_assembled_atom_masses_are_fsums_of_their_rows(kind):
    # a ranking keeps no bounds of its atoms of several rows: _assemble finds them from the atoms' first ranks
    rng = random.Random(f"atom-bounds/{kind}")
    tied = 0
    for _ in range(12):
        sc = random_scenario(rng, max_classes=4, max_count=5)
        weights = sc.derived().weights
        weights = _int_weights(weights) if kind == "integer" else weights
        ranking = score_dist.cell_ranking(sc.topology.counts, weights)
        assert len(ranking) == 4 and ranking[2].dtype == np.int32
        for law in (sc.derived().event_law, sc.derived().normal_law):
            masses = score_dist._ranked_law(law.counts, law.alarm_probs, weights)[0]
            dist = score_dist._assemble(ranking, masses, law.counts)
            kept = masses[masses > 0.0].tolist()  # a zero-mass row is in no atom
            bounds = [*dist.starts.tolist(), len(kept)]
            assert dist.probs.tolist() == [math.fsum(kept[a:b]) for a, b in zip(bounds, bounds[1:])]
            tied += len(dist.starts) < len(kept)
    assert tied or kind == "exact"
