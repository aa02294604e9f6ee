"""Full-precision bits of a fixed handful of rule designs.

Every table in out/ prints six significant digits, so a change in the last
bits of a solved rule or of its error rates would pass them unseen. Each
line of tests/golden/designs.txt is the ``repr`` of (MPTest, BayesTest,
operating characteristics of both) for one design: 3-, 4- and 5-class
custom cells with exact and with integer weights, a p_w = 0 cell and the
good network's rule on approximate alarm probabilities. Several sizes
share one event score law, as in ``griddetect mp``.

To rewrite the golden file after a deliberate change of bits, run
``PYTHONPATH=src python tests/test_design_bits.py``.
"""

from __future__ import annotations

from pathlib import Path

import griddetect as g
from griddetect.decision_tests import solve_mp_tests

from cases import GOOD_APPROX, good_scenario

GOLDEN = Path(__file__).resolve().parent / "golden" / "designs.txt"
SIZES = (0.01, 0.05, 0.2)
BAYES = (g.Prior(0.2), g.LossRatio(10.0))

# (name, (p_c, p_w), detect probs, counts)
CELLS = [
    ("3-class", (0.85, 0.1), (0.9, 0.6, 0.3), (4, 5, 6)),
    ("4-class", (0.9, 0.15), (0.9, 0.7, 0.45, 0.2), (3, 4, 5, 6)),
    ("5-class", (0.8, 0.05), (0.95, 0.8, 0.6, 0.4, 0.2), (6, 6, 6, 6, 6)),
    ("p_w=0", (0.95, 0.0), (0.9, 0.5, 0.3), (1, 4, 4)),
]


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


def test_designs_keep_their_bits():
    want = GOLDEN.read_text().splitlines()
    got = design_lines()
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a == b


if __name__ == "__main__":
    GOLDEN.write_text("".join(line + "\n" for line in design_lines()))
