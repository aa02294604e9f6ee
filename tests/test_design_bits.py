"""Full-precision bits of rule designs, score laws and simulation reports.

Every table in out/ prints six significant digits, so a change in the last
bits of a solved rule or of its error rates would pass them unseen. Each
line of tests/golden/designs.txt is the ``repr`` of (MPTest, BayesTest,
operating characteristics of both) for one design: 3-, 4- and 5-class
custom cells with exact and with integer weights, a p_w = 0 cell and the
good network's rule on approximate alarm probabilities. Several sizes
share one event score law, as in ``griddetect mp``.

tests/golden/corpus.txt holds one short sha256 digest per case of a seeded
corpus (``corpus_cases``): the designs of 120 cells of 3 to 6 classes,
among them p_w = 0 cells, under exact, integer and approximate weights at
several sizes, their Bayes rules over priors and loss ratios, the bytes of
``score_distribution``'s arrays, also on laws with alarm probabilities of 0
and 1, and ``run_trials`` reports read from the verdict table and scored
trial by trial, within one block and across block boundaries.

To rewrite both golden files after a deliberate change of bits, run
``PYTHONPATH=src python tests/test_design_bits.py``.
"""

from __future__ import annotations

import hashlib
import math
import random
from pathlib import Path

import griddetect as g
from griddetect.decision_tests import solve_mp_tests
from griddetect.score_dist import score_distribution
from griddetect.simulator import _block_rows

from cases import GOOD_APPROX, good_scenario

GOLDEN = Path(__file__).resolve().parent / "golden" / "designs.txt"
CORPUS = GOLDEN.with_name("corpus.txt")
SIZES = (0.01, 0.05, 0.2)
BAYES = (g.Prior(0.2), g.LossRatio(10.0))

# (name, (p_c, p_w), detect probs, counts)
CELLS = [
    ("3-class", (0.85, 0.1), (0.9, 0.6, 0.3), (4, 5, 6)),
    ("4-class", (0.9, 0.15), (0.9, 0.7, 0.45, 0.2), (3, 4, 5, 6)),
    ("5-class", (0.8, 0.05), (0.95, 0.8, 0.6, 0.4, 0.2), (6, 6, 6, 6, 6)),
    ("p_w=0", (0.95, 0.0), (0.9, 0.5, 0.3), (1, 4, 4)),
]

CORPUS_SIZES = (0.001, 0.01, 0.05, 0.1, 0.3)
CORPUS_PRIORS = tuple(map(g.Prior, (0.01, 0.2, 0.5, 0.9)))
CORPUS_LOSSES = tuple(map(g.LossRatio, (0.1, 1.0, 10.0, 1000.0)))


def _integer_weights(weights):
    w_min = min(weights)
    return tuple(float(max(1, round(3 * w / w_min))) for w in weights)


def _designs():
    """(label, scenario, overrides) for every design pinned."""
    for name, (p_c, p_w), detect, counts in CELLS:
        sc = g.validate(g.ChannelModel(p_c=p_c, p_w=p_w), g.builtin_topology("custom", detect, counts=counts))
        yield f"{name} exact", sc, {}
        if p_w > 0.0:
            yield f"{name} integer", sc, {"weights": _integer_weights(sc.derived().weights)}
    yield "good approx", good_scenario(), GOOD_APPROX


def design_lines() -> list[str]:
    lines = []
    for label, sc, overrides in _designs():
        bt = g.bayes_test(sc, *BAYES)
        oc_bt = g.operating_characteristics(bt, sc)
        for mp in solve_mp_tests(sc, SIZES, **overrides):
            lines.append(f"{label} size={mp.requested_size!r}: "
                         f"{(mp, bt, g.operating_characteristics(mp, sc), oc_bt)!r}")
    return lines


def _corpus_cells():
    """120 seeded (name, scenario) cells of 3 to 6 classes and at most 1,000 count tuples; every fifth has
    p_w = 0, and every other one of those p_c = 1 and a class with p_detect = 1, whose alarm is certain."""
    rng = random.Random(2033)
    for i in range(120):
        n_classes = 3 + i % 4
        while True:
            counts = [rng.randint(1, 6) for _ in range(n_classes)]
            if math.prod(c + 1 for c in counts) <= 1000:
                break
        while True:
            detect = sorted((round(rng.uniform(0.05, 0.98), 3) for _ in range(n_classes)), reverse=True)
            if all(a - b >= 0.03 for a, b in zip(detect, detect[1:])):
                break
        if i % 5 == 4:
            p_w, p_c = 0.0, (1.0 if i % 10 == 9 else round(rng.uniform(0.5, 0.99), 3))
            if p_c == 1.0:
                detect[0] = 1.0
        else:
            p_w = round(rng.uniform(0.01, 0.3), 3)
            p_c = round(rng.uniform(p_w + 0.3, 0.99), 3)
        sc = g.validate(g.ChannelModel(p_c=p_c, p_w=p_w), g.builtin_topology("custom", detect, counts=counts))
        yield f"cell{i:03d} p_w={p_w} counts={tuple(counts)}", sc


def _overrides(i, sc):
    """(mode, overrides) of the MP designs of cell i: exact, integer weights, and approximate weights and alarm
    probabilities, rounded to two places or, on every third cell, with a certain and an impossible alarm."""
    yield "exact", {}
    if sc.channel.silent_when_undetected:
        return
    weights = _integer_weights(sc.derived().weights)
    yield "integer", {"weights": weights}
    probs = [round(q, 2) for q in sc.derived().alarm_probs]
    if i % 3 == 0:
        probs[0], probs[-1] = 1.0, 0.0
    yield "approx", {"weights": weights, "event_alarm_probs": probs}


def _sim_tests(sc):
    prior = g.Prior(0.3)
    tests = [(f"bayes l={l.value:g}", g.bayes_test(sc, prior, l)) for l in (g.LossRatio(5.0), g.LossRatio(20.0))]
    tests += [(f"mp size={t.requested_size:g}", t) for t in solve_mp_tests(sc, (0.1, 0.05, 0.01, 0.003))]
    return prior, tests


def corpus_cases():
    """(case name, text) for every case of the corpus; the text's digest is pinned."""
    cells = list(_corpus_cells())
    for i, (name, sc) in enumerate(cells):
        for mode, overrides in _overrides(i, sc):
            rules = solve_mp_tests(sc, CORPUS_SIZES, **overrides)
            yield f"{name} mp {mode}", repr([(t, g.operating_characteristics(t, sc)) for t in rules])
        rules = [g.bayes_test(sc, prior, loss) for prior in CORPUS_PRIORS for loss in CORPUS_LOSSES]
        yield f"{name} bayes", repr([(t, g.operating_characteristics(t, sc)) for t in rules])
    for name, sc in cells[:40]:
        if sc.channel.silent_when_undetected:
            continue
        stats = sc.derived()
        edge = g.ClassAlarmLaw(sc.topology.counts, (1.0,) + stats.alarm_probs[1:-1] + (0.0,))
        for law_name, law in (("event", stats.event_law), ("normal", stats.normal_law), ("0/1", edge)):
            for mode, weights in (("exact", stats.weights), ("integer", _integer_weights(stats.weights))):
                dist = score_distribution(weights, law)
                yield (f"{name} dist {law_name} {mode}",
                       b"".join(a.tobytes() for a in (dist.values, dist.probs, dist.starts, dist.order)))
    # run_trials on small cells: the verdict table where the trials cover the count tuples, per-trial scoring one
    # trial fewer, and both across block boundaries
    for name, sc in [cells[i] for i in (0, 1, 2, 3, 4, 9, 14)]:
        prior, tests = _sim_tests(sc)
        n_tuples = math.prod(c + 1 for c in sc.topology.counts)
        rows = _block_rows(1 + 2 * sc.topology.total_count + len(tests))
        for n in (n_tuples, n_tuples - 1, rows + 37):
            yield f"{name} sim n={n}", repr(g.run_trials(sc, prior, tests, n, 2033 + n))
    wide = g.validate(g.ChannelModel(p_c=0.9, p_w=0.1),
                      g.builtin_topology("custom", (0.9, 0.7, 0.5, 0.35, 0.2, 0.1), counts=(4,) * 6))
    prior, tests = _sim_tests(wide)
    rows = _block_rows(1 + 2 * wide.topology.total_count + len(tests))
    yield f"wide 6x4 sim n={rows + 37}", repr(g.run_trials(wide, prior, tests, rows + 37, 7))


def _digest(text) -> str:
    return hashlib.sha256(text if isinstance(text, bytes) else text.encode()).hexdigest()[:16]


def corpus_lines() -> list[str]:
    return [f"{_digest(text)} {name}" for name, text in corpus_cases()]


def test_designs_keep_their_bits():
    want = GOLDEN.read_text().splitlines()
    got = design_lines()
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a == b


def test_corpus_keeps_its_bits():
    want = CORPUS.read_text().splitlines()
    got = corpus_lines()
    assert [line.split(" ", 1)[1] for line in got] == [line.split(" ", 1)[1] for line in want]
    changed = [b.split(" ", 1)[1] for a, b in zip(got, want) if a != b]
    assert not changed, f"{len(changed)} cases changed bits: {changed[:10]}"


if __name__ == "__main__":
    GOLDEN.write_text("".join(line + "\n" for line in design_lines()))
    CORPUS.write_text("".join(line + "\n" for line in corpus_lines()))
