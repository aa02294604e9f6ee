import math
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import griddetect as g
from griddetect import DomainError, Truth, _streams
from griddetect.simulator import GENERATOR_NAME, MAX_TRIAL_DRAWS, _block_rows, trial_rng

from cases import GOOD_APPROX, degenerate_scenario, good_scenario, weak_scenario


def standard_tests(sc, prior):
    return [
        ("bayes l=5", g.bayes_test(sc, prior, g.LossRatio(5))),
        ("mp size=0.1", g.solve_mp_test(sc, 0.1)),
    ]


def _good_replay_case():
    sc = good_scenario()
    prior = g.Prior(0.25)
    tests = standard_tests(sc, prior) + [("mp approx", g.solve_mp_test(sc, 0.05, **GOOD_APPROX))]
    return sc, prior, tests


def _weak_replay_case():
    sc = weak_scenario()
    prior = g.Prior(0.3)
    tests = [
        ("mp size=0.1", g.solve_mp_test(sc, 0.1)),
        ("bayes l=20", g.bayes_test(sc, prior, g.LossRatio(20))),  # not applicable
        ("mp size=0.02", g.solve_mp_test(sc, 0.02)),
    ]
    return sc, prior, tests


def _degenerate_replay_case():
    # p_w = 0: both rules reject only the all-silent observation, the MP
    # rule with a boundary coin
    sc = degenerate_scenario()
    prior = g.Prior(0.4)
    tests = [
        ("mp size=0.001", g.solve_mp_test(sc, 0.001)),
        ("bayes l=5", g.bayes_test(sc, prior, g.LossRatio(5))),
    ]
    assert all(test.degenerate for _, test in tests)
    return sc, prior, tests


REPLAY_CASES = {
    "good": _good_replay_case,
    "weak": _weak_replay_case,
    "degenerate": _degenerate_replay_case,
}


def _report_counts(report):
    return (
        report.n_trials, report.n_event, report.n_normal,
        [(c.n_event_silent, c.n_event_records, c.n_first_silent_event, c.n_first_silent,
          c.n_first_alarm_normal, c.n_first_alarm) for c in report.class_stats],
        [(t.n_accept_event, t.n_event, t.n_reject_normal, t.n_normal) for t in report.test_stats],
    )


def _replay_counts(sc, prior, tests, n, seed):
    """_report_counts of a run re-aggregated from single-trial replays, and the coins drawn."""
    n_event = coins = 0
    classes = [[0] * 6 for _ in sc.topology.classes]
    decisions = [[0, 0] for _ in tests]
    for i in range(n):
        outcome = g.simulate_trial(sc, prior, g.derive_trial_seed(seed, i), tests)
        event = outcome.truth is Truth.EVENT
        n_event += event
        for c, xs in zip(classes, outcome.responses):
            if event:
                c[0] += len(xs) - sum(xs)
                c[1] += len(xs)
            if xs[0]:
                c[4] += not event
                c[5] += 1
            else:
                c[2] += event
                c[3] += 1
        for d, decision in zip(decisions, outcome.decisions):
            coins += decision.randomized
            d[0] += event and decision.declared_event
            d[1] += not (event or decision.declared_event)
    counts = (
        n, n_event, n - n_event,
        [tuple(c) for c in classes],
        [(a, n_event, r, n - n_event) for a, r in decisions],
    )
    return counts, coins


class TestSimulateTrial:
    def test_deterministic_given_seed(self):
        sc = good_scenario()
        prior = g.Prior(0.3)
        tests = standard_tests(sc, prior)
        a = g.simulate_trial(sc, prior, g.derive_trial_seed(5, 0), tests)
        b = g.simulate_trial(sc, prior, g.derive_trial_seed(5, 0), tests)
        assert a == b

    def test_forced_corners(self):
        # single merged class so every sensor shares detect_prob = 1
        topo = g.builtin_topology("custom", [1.0], counts=[9])
        sc = g.validate(g.ChannelModel(p_c=1.0, p_w=0.0), topo)
        sure_event = g.Prior(1.0 - 1e-12)
        outcome = g.simulate_trial(sc, sure_event, g.derive_trial_seed(1, 0))
        assert outcome.truth is Truth.EVENT
        assert outcome.detections == ((1,) * 9,)
        assert outcome.responses == ((1,) * 9,)

        sure_normal = g.Prior(1e-12)
        outcome = g.simulate_trial(sc, sure_normal, g.derive_trial_seed(1, 0))
        assert outcome.truth is Truth.NORMAL
        assert outcome.detections == ((0,) * 9,)
        assert outcome.responses == ((0,) * 9,)

    def test_normal_trials_never_detect(self):
        sc = weak_scenario()
        prior = g.Prior(0.2)
        for i in range(200):
            outcome = g.simulate_trial(sc, prior, g.derive_trial_seed(99, i))
            if outcome.truth is Truth.NORMAL:
                assert all(y == 0 for cls in outcome.detections for y in cls)

    def test_outcome_invariant_enforced(self):
        with pytest.raises(DomainError):
            g.TrialOutcome(
                truth=Truth.NORMAL, detections=((1,),), responses=((1,),), decisions=()
            )

    def test_decisions_follow_supplied_tests(self):
        sc = good_scenario()
        prior = g.Prior(0.3)
        tests = standard_tests(sc, prior)
        outcome = g.simulate_trial(sc, prior, g.derive_trial_seed(5, 3), tests)
        assert len(outcome.decisions) == 2
        obs = g.Observation(outcome.alarm_counts)
        assert outcome.decisions[0] == g.bayes_decide(tests[0][1], obs)

    def test_order_independence(self):
        sc = good_scenario()
        prior = g.Prior(0.3)
        forward = [g.simulate_trial(sc, prior, g.derive_trial_seed(7, i)) for i in range(10)]
        backward = [g.simulate_trial(sc, prior, g.derive_trial_seed(7, i)) for i in reversed(range(10))]
        assert forward == list(reversed(backward))


class TestRunTrials:
    def test_bit_reproducible(self):
        sc = good_scenario()
        prior = g.Prior(0.1)
        tests = standard_tests(sc, prior)
        a = g.run_trials(sc, prior, tests, 500, 42)
        b = g.run_trials(sc, prior, tests, 500, 42)
        assert a == b
        assert a.generator == GENERATOR_NAME

    def test_seed_changes_results(self):
        sc = good_scenario()
        prior = g.Prior(0.1)
        a = g.run_trials(sc, prior, [], 500, 1)
        b = g.run_trials(sc, prior, [], 500, 2)
        assert a != b

    def test_matches_per_trial_replay(self):
        # every count re-derived from single-trial outcomes, for three rule
        # sets, over a run that crosses a block boundary
        for name, case in REPLAY_CASES.items():
            sc, prior, tests = case()
            n = _block_rows(1 + 2 * sc.topology.total_count + len(tests)) + 3
            replayed, coins = _replay_counts(sc, prior, tests, n, 77)
            assert 0 < replayed[1] < n and coins > 0, name  # both worlds and boundary coins occur
            assert _report_counts(g.run_trials(sc, prior, tests, n, 77)) == replayed, name

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    def test_block_stream_matches_generator(self, seed):
        indices = [0, 2**32 - 1, 2**32, 2**40 + 3]
        draws = 25
        block = _streams.uniforms(seed, np.array(indices, dtype=np.uint64), draws)
        for row, i in zip(block, indices):
            expected = trial_rng(g.derive_trial_seed(seed, i)).random(draws)
            assert np.array_equal(row, expected), (seed, i)

    def test_wide_cell_replay(self):
        # 64 one-sensor classes: 2**64 possible count tuples and 129 world
        # draws per event trial
        probs = [0.95 - 0.01 * i for i in range(64)]
        sc = g.validate(g.ChannelModel(0.9, 0.1), g.builtin_topology("custom", probs, counts=[1] * 64))
        prior = g.Prior(0.5)
        tests = [("bayes l=1", g.bayes_test(sc, prior, g.LossRatio(1)))]
        replayed, _ = _replay_counts(sc, prior, tests, 40, 5)
        accept_event, _, reject_normal, _ = replayed[4][0]
        assert accept_event > 0 and reject_normal > 0  # both verdicts occur
        assert _report_counts(g.run_trials(sc, prior, tests, 40, 5)) == replayed

    def test_draw_cap(self):
        # 319 sensors and one test take exactly MAX_TRIAL_DRAWS uniforms per trial
        topology = g.builtin_topology("custom", [0.9, 0.5, 0.2], counts=[107, 106, 106])
        sc = g.validate(g.ChannelModel(0.9, 0.1), topology)
        prior = g.Prior(0.5)
        tests = [("bayes l=1", g.bayes_test(sc, prior, g.LossRatio(1)))]
        assert 1 + 2 * 319 + len(tests) == MAX_TRIAL_DRAWS
        # at the cap a block holds a few hundred trials; cross its boundary
        n = _block_rows(MAX_TRIAL_DRAWS) + 3
        assert n < 1000
        replayed, _ = _replay_counts(sc, prior, tests, n, 5)
        assert _report_counts(g.run_trials(sc, prior, tests, n, 5)) == replayed
        with pytest.raises(DomainError, match="319 sensors"):
            g.run_trials(sc, prior, tests * 2, 3, 5)

    def test_bookkeeping(self):
        sc = weak_scenario()
        report = g.run_trials(sc, g.Prior(0.4), [], 250, 11)
        assert report.n_event + report.n_normal == 250
        for cs in report.class_stats:
            assert cs.n_first_silent + cs.n_first_alarm == 250
            assert cs.n_first_silent_event <= cs.n_first_silent
            assert cs.n_first_alarm_normal <= cs.n_first_alarm

    def test_single_trial_run_has_no_division_errors(self):
        sc = good_scenario()
        report = g.run_trials(sc, g.Prior(0.1), standard_tests(sc, g.Prior(0.1)), 1, 3)
        for cs in report.class_stats:
            for value in (cs.silence_rate_event, cs.event_given_silent, cs.normal_given_alarm):
                assert 0.0 <= value <= 1.0 or math.isnan(value)
        for ts in report.test_stats:
            for value in (ts.accept_given_event, ts.reject_given_normal):
                assert 0.0 <= value <= 1.0 or math.isnan(value)

    def test_not_applicable_bayes_rates(self):
        sc = weak_scenario()
        prior = g.Prior(0.3)
        tests = [("bayes l=20", g.bayes_test(sc, prior, g.LossRatio(20)))]
        report = g.run_trials(sc, prior, tests, 2000, 8)
        ts = report.test_stats[0]
        assert ts.accept_given_event == 1.0
        assert ts.reject_given_normal == 0.0

    def test_degenerate_channel_rules_simulate(self):
        sc = g.validate(g.ChannelModel(1.0, 0.0), g.builtin_topology("interior_square", [0.9, 0.5, 0.3]))
        prior = g.Prior(0.1)
        tests = [
            ("mp", g.solve_mp_test(sc, 0.001)),
            ("bayes", g.bayes_test(sc, prior, g.LossRatio(5))),
        ]
        report = g.run_trials(sc, prior, tests, 5000, 3)
        mp_ops = g.operating_characteristics(tests[0][1], sc)
        bayes_ops = g.operating_characteristics(tests[1][1], sc)
        mp_stats, bayes_stats = report.test_stats
        for stats, ops in ((mp_stats, mp_ops), (bayes_stats, bayes_ops)):
            band = 3.0 * math.sqrt(max(ops.type1 * (1 - ops.type1), 1e-9) / stats.n_event)
            assert abs(stats.accept_given_event - (1.0 - ops.type1)) <= band
        # with p_w = 0 the normal world is always all-silent, so the power
        # realizes exactly as the boundary coin's acceptance rate
        assert bayes_stats.reject_given_normal == 1.0
        band = 3.0 * math.sqrt(mp_ops.power * (1 - mp_ops.power) / mp_stats.n_normal)
        assert abs(mp_stats.reject_given_normal - mp_ops.power) <= band

    def test_input_validation(self):
        sc = good_scenario()
        with pytest.raises(DomainError):
            g.run_trials(sc, g.Prior(0.1), [], 0, 1)
        with pytest.raises(DomainError):
            g.run_trials(sc, g.Prior(0.1), [], 10, -1)
        with pytest.raises(DomainError):
            g.run_trials(sc, g.Prior(0.1), [], 10, 2**64)


class TestWorkspace:
    """The stream workspace is reused across blocks and calls, per thread."""

    def test_threads_match_sequential(self):
        sc, prior, tests = _good_replay_case()
        seeds = range(8)
        want = {seed: g.run_trials(sc, prior, tests, 300 + seed, seed) for seed in seeds}
        got = {}
        barrier = threading.Barrier(4)

        def work(offset):
            barrier.wait(timeout=30)
            for seed in seeds[offset::4]:
                got[seed] = g.run_trials(sc, prior, tests, 300 + seed, seed)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert got == want

    def test_alternating_block_shapes_match_generator(self):
        # every shape in turn, each after a different one; indices straddle 2**32
        shapes = [(rows, draws) for draws in (1, 25, 130) for rows in (1, 250, 4099)]
        shapes += shapes[::-1]
        for k, (rows, draws) in enumerate(shapes):
            seed = (2**64 - 1, 7)[k % 2]
            start = 2**32 - 5 - 3 * k
            block = _streams.uniforms(seed, np.arange(start, start + rows, dtype=np.uint64), draws)
            assert block.shape == (rows, draws)
            for i in sorted({0, rows // 2, rows - 1}):
                expected = trial_rng(g.derive_trial_seed(seed, start + i)).random(draws)
                assert np.array_equal(block[i], expected), (rows, draws, i)

    def test_no_rules(self):
        # rule coins follow the world draws, so the class counts do not depend on the rules
        sc, prior, tests = _good_replay_case()
        n = _block_rows(1 + 2 * sc.topology.total_count) + 3
        bare = g.run_trials(sc, prior, [], n, 12)
        assert bare.test_stats == ()
        full = g.run_trials(sc, prior, tests, n, 12)
        assert (bare.n_event, bare.class_stats) == (full.n_event, full.class_stats)

    def test_keeps_only_the_last_block_shape(self):
        # a fresh thread, so that a workspace left by earlier tests cannot hide what this one keeps
        traced = []

        def work():
            for rows in (4096, 3):
                _streams.uniforms(5, np.arange(rows, dtype=np.uint64), 25)
                traced.append(tracemalloc.get_traced_memory()[0])

        tracemalloc.start()
        try:
            thread = threading.Thread(target=work)
            thread.start()
            thread.join(timeout=60)
        finally:
            tracemalloc.stop()
        first, second = traced
        assert first > 4 << 20
        assert second < 256 << 10

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor-fault counts are Linux-specific")
    @pytest.mark.parametrize("prelude", ["", "keep = bytearray(1 << 16)"], ids=["plain", "shifted-heap"])
    def test_few_page_faults_per_block(self, prelude):
        # Which heap layout a process gets is a matter of chance; the retained
        # allocation moves the heap top and put the per-block allocations of
        # the earlier kernel into the layout that faults on every block.
        pytest.importorskip("resource")
        code = textwrap.dedent(
            f"""
            import resource
            import griddetect as g
            from griddetect.scenario_io import load_scenario
            {prelude}
            pairs = []
            for net in ("good", "weak"):
                sf = load_scenario({str(Path(__file__).parents[1] / "scenarios")!r} + f"/{{net}}_network.yaml")
                for prior in sf.priors():
                    tests = [("b", g.bayes_test(sf.scenario, prior, g.LossRatio(l))) for l in sf.loss_ratios]
                    tests += [("m", g.solve_mp_test(sf.scenario, s, **sf.mp_overrides())) for s in sf.sizes]
                    pairs.append((sf.scenario, prior, tests))
            def op(i):
                sc, prior, tests = pairs[i % len(pairs)]
                g.run_trials(sc, prior, tests, 250, 1000 + i)
            for i in range(2 * len(pairs)):
                op(i)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for i in range(200):
                op(i)
            print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 200)
            """
        )
        src = str(Path(g.__file__).parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src}, check=True,
        )
        assert float(out.stdout) < 5.0


def _expected_rates(sc, prior, tests):
    """Exact counterparts of every statistic the report tracks."""
    errors = g.node_error_report(sc, prior)
    rates = {}
    for i, label in enumerate(errors.labels):
        rates[f"silent_event/{label}"] = errors.type1[i]
        rates[f"event_given_silent/{label}"] = errors.event_given_silent[i]
        rates[f"normal_given_alarm/{label}"] = errors.normal_given_alarm[i]
    for name, test in tests:
        ops = g.operating_characteristics(test, sc)
        rates[f"accept_event/{name}"] = 1.0 - ops.type1
        rates[f"reject_normal/{name}"] = ops.power
    return rates


def _observed_rates(report):
    obs = {}
    for cs in report.class_stats:
        obs[f"silent_event/{cs.label}"] = (cs.n_event_silent, cs.n_event_records)
        obs[f"event_given_silent/{cs.label}"] = (cs.n_first_silent_event, cs.n_first_silent)
        obs[f"normal_given_alarm/{cs.label}"] = (cs.n_first_alarm_normal, cs.n_first_alarm)
    for ts in report.test_stats:
        obs[f"accept_event/{ts.name}"] = (ts.n_accept_event, ts.n_event)
        obs[f"reject_normal/{ts.name}"] = (ts.n_reject_normal, ts.n_normal)
    return obs


class TestStatisticalConsistency:
    def test_three_sigma_coverage_over_seeds(self):
        # A three-sigma band covers 99.73% of draws, so over 100 pinned seeds a
        # correct simulator still produces the occasional miss; two misses for
        # one statistic is within chance, three signals real bias. The pooled
        # miss rate across all statistics must stay under 1%.
        sc = good_scenario()
        prior = g.Prior(0.1)
        tests = standard_tests(sc, prior)
        expected = _expected_rates(sc, prior, tests)
        n_trials = 10_000
        n_seeds = 100
        failures = {name: 0 for name in expected}
        for seed in range(n_seeds):
            report = g.run_trials(sc, prior, tests, n_trials, seed)
            observed = _observed_rates(report)
            for name, exact in expected.items():
                num, denom = observed[name]
                assert denom > 0
                band = 3.0 * math.sqrt(exact * (1.0 - exact) / denom)
                if abs(num / denom - exact) > band:
                    failures[name] += 1
        for name, count in failures.items():
            assert count <= 2, f"{name}: outside 3-sigma in {count}/{n_seeds} seeds"
        pooled = sum(failures.values())
        assert pooled <= 0.01 * len(expected) * n_seeds, f"pooled misses {pooled}"
