"""Acceptance suite: one test per exit criterion, at the contracted tolerances.

Each criterion prints an explicit PASS line (run with -s to see them; -v
shows the per-criterion verdicts either way). Reference values are the
benchmark table entries this package reproduces; where a printed entry is
inconsistent with exact arithmetic the test says so explicitly instead of
asserting the misprint.
"""

import math
import random
import time

import pytest

import griddetect as g

from cases import (
    GOOD_APPROX,
    WEAK_APPROX,
    good_scenario,
    random_scenario,
    weak_scenario,
)

SCENARIOS = {"good": good_scenario, "weak": weak_scenario}
APPROX = {"good": GOOD_APPROX, "weak": WEAK_APPROX}


def report_pass(criterion, message):
    print(f"criterion {criterion}: PASS ({message})")


# --- criterion 1: per-sensor error probabilities and posteriors ---------

# Printed type I errors per class.
PRINTED_Q_E = {"good": (0.1800, 0.5000, 0.6600), "weak": (0.3800, 0.6200, 0.7400)}

# Printed posterior tables, (event_given_silent triple, normal_given_alarm
# triple) per prior. Three entries in the primary table are truncation
# slips; the companion table's theoretical column prints the correctly
# rounded values, used here: good p_e=0.2 P1[2] (0.1550 -> 0.1549), good
# p_e=0.4 P1[1] (0.2702 -> 0.2703), weak p_e=0.3 P2[1] (0.5511 -> 0.5512).
PRINTED_POSTERIORS = {
    "good": {
        0.1: ((0.0217, 0.0581, 0.0753), (0.5233, 0.6429, 0.7258)),
        0.2: ((0.0476, 0.1220, 0.1549), (0.3279, 0.4444, 0.5405)),
        0.3: ((0.0789, 0.1923, 0.2391), (0.2215, 0.3182, 0.4070)),
        0.4: ((0.1176, 0.2703, 0.3284), (0.1546, 0.2308, 0.3061)),
        0.5: ((0.1667, 0.3571, 0.4231), (0.1087, 0.1667, 0.2273)),
    },
    "weak": {
        0.1: ((0.0501, 0.0793, 0.0932), (0.7438, 0.8257, 0.8738)),
        0.2: ((0.1061, 0.1623, 0.1878), (0.5634, 0.6780, 0.7547)),
        0.3: ((0.1691, 0.2493, 0.2839), (0.4294, 0.5512, 0.6422)),
        0.4: ((0.2405, 0.3407, 0.3814), (0.3261, 0.4412, 0.5357)),
        0.5: ((0.3220, 0.4366, 0.4805), (0.2439, 0.3448, 0.4348)),
    },
}


def test_criterion_1_node_error_tables():
    start = time.perf_counter()
    checked = 0
    for name, make in SCENARIOS.items():
        sc = make()
        for p_e, (printed_p1, printed_p2) in PRINTED_POSTERIORS[name].items():
            rep = g.node_error_report(sc, g.Prior(p_e))
            assert rep.type1 == pytest.approx(PRINTED_Q_E[name], abs=5e-5)
            for i in range(3):
                assert rep.event_given_silent[i] == pytest.approx(printed_p1[i], abs=5e-5), (
                    name, p_e, "P1", i)
                assert rep.normal_given_alarm[i] == pytest.approx(printed_p2[i], abs=5e-5), (
                    name, p_e, "P2", i)
                checked += 2
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report_pass(1, f"{checked} posterior entries and both type-I rows within 5e-5, {elapsed:.2f}s")


# --- criterion 2: Bayes rules ---------------------------------------------

PRINTED_WEIGHTS = {"good": (3.714, 2.197, 1.534), "weak": (1.876, 0.897, 0.340)}
PRINTED_THRESHOLDS = {
    ("good", 0.1, 5): 5.789, ("good", 0.3, 5): 4.439, ("good", 0.5, 5): 3.592,
    ("good", 0.1, 20): 4.403, ("good", 0.3, 20): 3.053, ("good", 0.5, 20): 2.205,
    ("weak", 0.1, 5): 2.664, ("weak", 0.3, 5): 1.314, ("weak", 0.5, 5): 0.466,
    ("weak", 0.1, 20): 1.277, ("weak", 0.3, 20): -0.073, ("weak", 0.5, 20): -0.920,
}


def test_criterion_2_bayes_tables():
    start = time.perf_counter()
    for (name, p_e, loss), printed_t in PRINTED_THRESHOLDS.items():
        test = g.bayes_test(SCENARIOS[name](), g.Prior(p_e), g.LossRatio(loss))
        assert test.weights == pytest.approx(PRINTED_WEIGHTS[name], abs=5e-4)
        assert test.threshold == pytest.approx(printed_t, abs=5e-4), (name, p_e, loss)
        assert test.applicable == (printed_t > 0)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report_pass(2, f"12 thresholds within 5e-4, weights to 3 decimals, {elapsed:.2f}s")


# --- criterion 3: most-powerful test table --------------------------------

PRINTED_MP = {
    # (printed acceptance level, threshold, printed k)
    "good": [(0.900, 8.0, 0.04), (0.950, 6.0, 0.15), (0.975, 5.0, 0.19), (0.990, 3.0, 0.33)],
    "weak": [(0.900, 7.0, 0.24), (0.950, 5.0, 0.02), (0.975, 2.0, 0.39), (0.990, 0.0, 0.61)],
}

# Boundary probabilities by exact atom enumeration of the integer-
# approximated laws (cross-checked against the exhaustive per-sensor
# enumeration in criterion 4).
EXACT_K = {
    ("good", 0.900): 0.03823299009140923,
    ("good", 0.950): 0.13575437891777045,
    ("good", 0.975): 0.18315718773937867,
    ("good", 0.990): 0.331947410804944,
    ("weak", 0.900): 0.07926097393689989,
    ("weak", 0.950): 0.018118427069044388,
    ("weak", 0.975): 0.3931184270690444,
    ("weak", 0.990): 0.6096631611034903,
}

# Rows whose printed k is arithmetically consistent with the stated
# construction; the other three are misprints handled below.
CONSISTENT_PRINTED_K = {
    ("good", 0.900), ("good", 0.990), ("weak", 0.950), ("weak", 0.975), ("weak", 0.990),
}


def _solve_mp_row(name, printed_alpha):
    size = 1.0 - printed_alpha
    return g.solve_mp_test(SCENARIOS[name](), size, **APPROX[name])


def test_criterion_3_mp_table_reproduction():
    start = time.perf_counter()
    for name, rows in PRINTED_MP.items():
        for printed_alpha, printed_lambda, printed_k in rows:
            test = _solve_mp_row(name, printed_alpha)
            assert test.threshold == printed_lambda, (name, printed_alpha)
            exact_k = EXACT_K[(name, printed_alpha)]
            assert test.boundary_prob == pytest.approx(exact_k, abs=1e-12)
            # independent re-derivation through the exhaustive oracle
            law = g.ClassAlarmLaw((1, 4, 4), APPROX[name]["event_alarm_probs"])
            brute = g.brute_force_distribution(APPROX[name]["weights"], law)
            below = brute.prob_below(printed_lambda)
            at = brute.prob_at(printed_lambda)
            assert (1.0 - printed_alpha - below) / at == pytest.approx(exact_k, abs=1e-12)
            if (name, printed_alpha) in CONSISTENT_PRINTED_K:
                assert test.boundary_prob == pytest.approx(printed_k, abs=0.005)
    # the first row's k must come from the enumeration, near 0.038, not the
    # printed two-decimal rounding
    first = _solve_mp_row("good", 0.900)
    assert first.boundary_prob == pytest.approx(0.0379, abs=1e-3)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report_pass(3, f"all 8 thresholds exact, k re-derived independently, {elapsed:.2f}s")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "three printed k values (good 0.950 -> 0.15, good 0.975 -> 0.19, weak "
        "0.900 -> 0.24) disagree with exact enumeration of the stated "
        "construction (0.1358, 0.1832, 0.0793); the companion simulated "
        "type-I rate for the weak 0.900 row (0.8875) matches the discrepant "
        "k=0.24 rule (exact 0.8889), not a size-0.10 rule (0.8982), so the "
        "misprints are upstream, not derivable"
    ),
)
def test_criterion_3_printed_k_values_as_stated():
    for name, rows in PRINTED_MP.items():
        for printed_alpha, _, printed_k in rows:
            test = _solve_mp_row(name, printed_alpha)
            assert test.boundary_prob == pytest.approx(printed_k, abs=0.005), (
                name, printed_alpha)


# --- criterion 4: enumeration oracle equivalence --------------------------

def _assert_distributions_match(weights, law):
    fast = g.score_distribution(weights, law)
    slow = g.brute_force_distribution(weights, law)
    assert len(fast.atoms) == len(slow.atoms)
    for a, b in zip(fast.atoms, slow.atoms):
        assert abs(a.value - b.value) <= 1e-12
        assert abs(a.prob - b.prob) <= 1e-12
        assert set(a.support) == set(b.support)


def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    cases = 0
    kinds = [("interior_square", 3), ("corner_square", 3), ("edge_square", 3), ("hexagon_interior", 2)]
    for detect, channel in (((0.9, 0.5, 0.3), (0.9, 0.1)), ((0.7, 0.3, 0.1), (0.8, 0.2))):
        for kind, n_probs in kinds:
            sc = g.validate(g.ChannelModel(*channel), g.builtin_topology(kind, detect[:n_probs]))
            stats = sc.derived()
            counts = sc.topology.counts
            for q in (stats.alarm_probs, (sc.channel.p_w,) * len(counts)):
                _assert_distributions_match(stats.weights, g.ClassAlarmLaw(counts, q))
                cases += 1
    rng = random.Random(20260810)
    for _ in range(100):
        sc = random_scenario(rng, max_classes=3, max_count=3)
        stats = sc.derived()
        counts = sc.topology.counts
        q = stats.alarm_probs if rng.random() < 0.5 else (sc.channel.p_w,) * len(counts)
        _assert_distributions_match(stats.weights, g.ClassAlarmLaw(counts, q))
        cases += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report_pass(4, f"{cases} distributions identical to 1e-12, {elapsed:.1f}s")


# --- criterion 5: most-powerful construction optimality -------------------

def test_criterion_5_np_optimality():
    start = time.perf_counter()
    for name in ("good", "weak"):
        for size in (0.1, 0.05, 0.025, 0.01):
            assert g.np_optimality_check(SCENARIOS[name](), size), (name, size)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report_pass(5, f"greedy likelihood-ratio power matched to 1e-10 on 8 cases, {elapsed:.1f}s")


# --- criterion 6: size exactness ------------------------------------------

def test_criterion_6_size_exactness():
    rng = random.Random(60)
    for _ in range(200):
        sc = random_scenario(rng)
        size = rng.uniform(0.0005, 0.9995)
        test = g.solve_mp_test(sc, size)
        assert abs(test.exact_size - size) <= 1e-12
    report_pass(6, "200 random solves calibrated to 1e-12")


# --- criterion 7: simulation consistency ----------------------------------

def _acceptance_tests(sc, prior):
    return [
        ("bayes l=5", g.bayes_test(sc, prior, g.LossRatio(5))),
        ("bayes l=20", g.bayes_test(sc, prior, g.LossRatio(20))),
        ("mp approx size=0.1", g.solve_mp_test(sc, 0.1, **GOOD_APPROX)),
        ("mp exact size=0.1", g.solve_mp_test(sc, 0.1)),
    ]


def test_criterion_7_simulation_consistency():
    start = time.perf_counter()
    sc = good_scenario()
    prior = g.Prior(0.1)
    tests = _acceptance_tests(sc, prior)
    errors = g.node_error_report(sc, prior)
    ops = {name: g.operating_characteristics(t, sc) for name, t in tests}

    approx_ops = ops["mp approx size=0.1"]
    assert 1.0 - approx_ops.type1 == pytest.approx(0.90409804115, abs=1e-9)
    assert approx_ops.power == pytest.approx(0.94399770633, abs=1e-9)
    # the reference simulation reports (0.9014, 0.9437) for this rule
    assert 1.0 - approx_ops.type1 == pytest.approx(0.9014, abs=0.01)
    assert approx_ops.power == pytest.approx(0.9437, abs=0.003)

    n_trials = 100_000
    seeds = range(101, 121)
    failures: dict[str, int] = {}
    for seed in seeds:
        report = g.run_trials(sc, prior, tests, n_trials, seed)
        checks: list[tuple[str, int, int, float]] = []
        for i, cs in enumerate(report.class_stats):
            checks.append((f"q_e/{cs.label}", cs.n_event_silent, cs.n_event_records, errors.type1[i]))
            checks.append((f"p1/{cs.label}", cs.n_first_silent_event, cs.n_first_silent,
                           errors.event_given_silent[i]))
            checks.append((f"p2/{cs.label}", cs.n_first_alarm_normal, cs.n_first_alarm,
                           errors.normal_given_alarm[i]))
        for ts in report.test_stats:
            checks.append((f"accept_event/{ts.name}", ts.n_accept_event, ts.n_event,
                           1.0 - ops[ts.name].type1))
            checks.append((f"reject_normal/{ts.name}", ts.n_reject_normal, ts.n_normal,
                           ops[ts.name].power))
        for label, num, denom, exact in checks:
            assert denom > 0
            band = 3.0 * math.sqrt(exact * (1.0 - exact) / denom)
            if abs(num / denom - exact) > band:
                failures[label] = failures.get(label, 0) + 1
    for label, count in failures.items():
        assert count <= 1, f"{label} outside 3-sigma in {count}/20 seeds"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report_pass(7, f"17 statistics x 20 seeds within 3-sigma bands (worst miss count "
                   f"{max(failures.values(), default=0)}), {elapsed:.0f}s")


# --- criterion 8: degenerate-channel closed forms --------------------------

def test_criterion_8_degenerate_branch():
    rng = random.Random(88)
    counts = (1, 4, 4)
    for _ in range(50):
        while True:
            probs = sorted((rng.uniform(0.05, 0.95) for _ in range(3)), reverse=True)
            if all(a - b >= 0.02 for a, b in zip(probs, probs[1:])):
                break
        sc = g.validate(g.ChannelModel(1.0, 0.0), g.builtin_topology("interior_square", probs))
        assert sc.channel.silent_when_undetected

        size = rng.uniform(0.0005, 0.2)
        all_silent = math.prod((1.0 - p) ** n for p, n in zip(probs, counts))
        test = g.solve_mp_test(sc, size)
        assert test.degenerate
        if all_silent <= size:
            assert test.boundary_prob == 1.0
            assert test.exact_size == pytest.approx(all_silent, rel=1e-12)
            assert test.exact_power == 1.0
        else:
            assert test.boundary_prob == pytest.approx(size / all_silent, rel=1e-12)
            assert test.exact_power == pytest.approx(size / all_silent, rel=1e-12)

        p_e = rng.uniform(0.05, 0.9)
        loss = math.exp(rng.uniform(-1, 10))
        bayes = g.bayes_test(sc, g.Prior(p_e), g.LossRatio(loss))
        assert bayes.degenerate
        bound = ((1.0 - p_e) / p_e) * math.prod((1.0 - p) ** (-n) for p, n in zip(probs, counts))
        assert bayes.applicable == (loss < bound)
    report_pass(8, "closed-form applicability reproduced on 50 degenerate parameter points")


# --- criterion 9: monotonicity observations --------------------------------

def _posteriors(sc, p_e, i):
    rep = g.node_error_report(sc, g.Prior(p_e))
    return rep.event_given_silent[i], rep.normal_given_alarm[i]


def test_criterion_9_monotonicity_suite():
    rng = random.Random(99)
    n_points = 10_000
    for point in range(n_points):
        sc = random_scenario(rng)
        k = len(sc.topology.classes)
        p_e = rng.uniform(0.05, 0.9)
        i = rng.randrange(k)
        p1, p2 = _posteriors(sc, p_e, i)
        stats = sc.derived()
        p_c, p_w = sc.channel.p_c, sc.channel.p_w
        probs = list(sc.topology.detect_probs)
        counts = sc.topology.counts
        claim = point % 6

        if claim == 0:  # raise detect_prob of class i
            upper = 1.0 if i == 0 else probs[i - 1]
            if upper - probs[i] <= 1e-6:
                continue
            probs[i] += (upper - probs[i]) / 2
            bumped = g.validate(sc.channel, g.builtin_topology("custom", probs, counts=counts))
            b1, b2 = _posteriors(bumped, p_e, i)
            assert b1 < p1 and b2 < p2
            assert bumped.derived().weights[i] > stats.weights[i]
        elif claim == 1:  # raise p_c
            bumped = g.validate(g.ChannelModel(p_c + (1 - p_c) / 2, p_w), sc.topology)
            b1, b2 = _posteriors(bumped, p_e, i)
            assert b1 < p1 and b2 < p2
            assert bumped.derived().weights[i] > stats.weights[i]
        elif claim == 2:  # raise p_w
            bumped = g.validate(g.ChannelModel(p_c, p_w + (p_c - p_w) / 4), sc.topology)
            b1, b2 = _posteriors(bumped, p_e, i)
            assert b1 > p1 and b2 > p2
            assert bumped.derived().weights[i] < stats.weights[i]
        elif claim == 3:  # raise the event prior
            b1, b2 = _posteriors(sc, p_e + (1 - p_e) / 2, i)
            assert b1 > p1 and b2 < p2
        elif claim == 4:  # posteriors of class i ignore the other classes
            j = (i + 1) % k
            upper = 1.0 if j == 0 else probs[j - 1]
            if upper - probs[j] <= 1e-6:
                continue
            probs[j] += (upper - probs[j]) / 2
            bumped = g.validate(sc.channel, g.builtin_topology("custom", probs, counts=counts))
            b1, b2 = _posteriors(bumped, p_e, i)
            assert b1 == p1 and b2 == p2
        else:  # Bayes threshold directions and weight-ratio identity
            loss = math.exp(rng.uniform(-1, 3))
            base = g.bayes_test(sc, g.Prior(p_e), g.LossRatio(loss))
            up_l = g.bayes_test(sc, g.Prior(p_e), g.LossRatio(loss * 2))
            assert up_l.threshold < base.threshold
            up_pe = g.bayes_test(sc, g.Prior(p_e + (1 - p_e) / 2), g.LossRatio(loss))
            assert up_pe.threshold < base.threshold
            up_pc = g.bayes_test(
                g.validate(g.ChannelModel(p_c + (1 - p_c) / 2, p_w), sc.topology),
                g.Prior(p_e), g.LossRatio(loss))
            assert up_pc.threshold > base.threshold
            up_pw = g.bayes_test(
                g.validate(g.ChannelModel(p_c, p_w + (p_c - p_w) / 4), sc.topology),
                g.Prior(p_e), g.LossRatio(loss))
            assert up_pw.threshold < base.threshold
            if base.applicable:
                lam = base.normalized_weights
                w = base.weights
                for a in range(k):
                    for b in range(k):
                        assert lam[a] / lam[b] == pytest.approx(w[a] / w[b], rel=1e-12)
    report_pass(9, f"all direction claims held on a {n_points}-point random grid")


# --- criterion 10: estimation round trip -----------------------------------

def test_criterion_10_estimation_round_trip():
    for name, detect, channel, seed in (
        ("good", (0.9, 0.5, 0.3), (0.9, 0.1), 1001),
        ("weak", (0.7, 0.3, 0.1), (0.8, 0.2), 1002),
    ):
        sc = SCENARIOS[name]()
        event_logs = g.generate_trial_logs(sc, g.Condition.CONTROLLED_EVENT, 10_000, seed)
        normal_logs = g.generate_trial_logs(sc, g.Condition.NORMAL, 10_000, seed + 1)
        detection = g.estimate_detection(event_logs, expected_classes=3)
        for ci, true_p in enumerate(detect):
            est = detection[ci]
            assert abs(est.value - true_p) <= 3 * est.std_error, (name, ci)
        est_pc = g.estimate_correct_response(event_logs)
        assert abs(est_pc.value - channel[0]) <= 3 * est_pc.std_error
        est_pw = g.estimate_false_response(normal_logs)
        assert abs(est_pw.value - channel[1]) <= 3 * est_pw.std_error
    report_pass(10, "all five parameters recovered within 3 standard errors, both networks")
