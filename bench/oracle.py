"""Reference computations the benchmark checks griddetect's outputs against.

Each function here derives a result a second way: closed forms written out
from the model, the score law enumerated with numpy outer sums and
products, estimates recomputed from the raw calibration logs, and
simulation counts re-aggregated from single-trial replays. None of them
runs inside a timed op.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

from griddetect.score_dist import atom_tolerance
from griddetect.simulator import Truth, derive_trial_seed, simulate_trial

EXACT = 1e-12  # gate for exact quantities
PRINTED = 1e-5  # tables print six significant digits


def exact_close(a: float, b: float) -> bool:
    return abs(a - b) <= EXACT * max(1.0, abs(b))


def cell_matches(cell: str, want) -> bool:
    """A printed table cell against the value it should show."""
    if isinstance(want, bool):
        return cell == ("true" if want else "false")
    if isinstance(want, (str, int)):
        return cell == str(want)
    got = float(cell)
    if math.isnan(want) or math.isinf(want):
        return got == want or (math.isnan(got) and math.isnan(want))
    return math.isclose(got, want, rel_tol=PRINTED, abs_tol=1e-12)


def alarm_probs(p_c: float, p_w: float, detect: tuple[float, ...]) -> tuple[float, ...]:
    return tuple(p_w + d * (p_c - p_w) for d in detect)


def llr_weights(p_w: float, alarm: tuple[float, ...]) -> tuple[float, ...]:
    if p_w == 0.0:
        return tuple(math.inf for _ in alarm)
    return tuple(math.log(a * (1.0 - p_w) / ((1.0 - a) * p_w)) for a in alarm)


def score_law(weights, counts, q) -> tuple[np.ndarray, np.ndarray]:
    """Score and mass of every count tuple, in itertools.product order."""
    scores = np.zeros(1)
    masses = np.ones(1)
    for w, n, p in zip(weights, counts, q):
        x = np.arange(n + 1)
        pmf = np.array([math.comb(n, j) * p**j * (1.0 - p) ** (n - j) for j in range(n + 1)])
        scores = (scores[:, None] + w * x[None, :]).ravel()
        masses = (masses[:, None] * pmf[None, :]).ravel()
    return scores, masses


def all_silent(counts, q) -> float:
    return math.prod((1.0 - p) ** n for n, p in zip(counts, q))


def reject_prob(weights, counts, q, threshold: float, k: float) -> float:
    """P(reject H0): score below the threshold, plus k times the boundary atom.

    Rules with infinite weights (p_w = 0) reject only the all-silent
    observation, with probability k.
    """
    if any(math.isinf(w) for w in weights):
        return k * all_silent(counts, q)
    scores, masses = score_law(weights, counts, q)
    tol = atom_tolerance(threshold)
    below = math.fsum(masses[scores < threshold - tol])
    at = math.fsum(masses[np.abs(scores - threshold) <= tol])
    return below + k * at


def atoms(weights, counts, q) -> list[tuple[float, float, int]]:
    """(value, mass, number of count tuples) per atom, merging near-equal scores."""
    scores, masses = score_law(weights, counts, q)
    keep = masses > 0.0
    scores, masses = scores[keep], masses[keep]
    order = np.argsort(scores, kind="stable")
    out: list[list] = []
    group: list[float] = []
    for s, m in zip(scores[order].tolist(), masses[order].tolist()):
        if not out or s - out[-1][0] > atom_tolerance(out[-1][0]):
            group = [m]
            out.append([s, group, 0])
        else:
            group.append(m)
        out[-1][2] += 1
    return [(v, math.fsum(g), n) for v, g, n in out]


def node_error_rows(p_c, p_w, detect, labels, p_e) -> list[tuple]:
    p_n = 1.0 - p_e
    rows = []
    for label, a in zip(labels, alarm_probs(p_c, p_w, detect)):
        s = 1.0 - a
        rows.append((p_e, label, s, p_w,
                     p_e * s / (p_n * (1.0 - p_w) + p_e * s),
                     p_n * p_w / (p_n * p_w + p_e * a)))
    return rows


def bayes_row(p_c, p_w, detect, counts, p_e, loss) -> tuple:
    """(weights..., threshold, applicable, type1, power) of the Bayes rule."""
    alarm = alarm_probs(p_c, p_w, detect)
    w = llr_weights(p_w, alarm)
    p_n = 1.0 - p_e
    normal = (p_w,) * len(counts)
    if p_w == 0.0:
        silent = all_silent(counts, alarm)
        applicable = loss < (math.inf if silent == 0.0 else (p_n / p_e) / silent)
        ops = (silent, 1.0) if applicable else (0.0, 0.0)
        return w + (math.nan, applicable) + ops
    threshold = math.log(p_n / (loss * p_e)) + math.fsum(
        n * math.log((1.0 - p_w) / (1.0 - a)) for n, a in zip(counts, alarm)
    )
    if threshold <= 0.0:
        return w + (threshold, False, 0.0, 0.0)
    return w + (threshold, True,
                reject_prob(w, counts, alarm, threshold, 0.0),
                reject_prob(w, counts, normal, threshold, 0.0))


def estimate_rows(event_logs, normal_logs) -> list[tuple]:
    """(parameter, value, std_error, n_logs) recomputed from the raw logs."""

    def summary(props):
        n = len(props)
        se = statistics.stdev(props) / math.sqrt(n) if n > 1 else 0.0
        return statistics.fmean(props), se, n

    rows = []
    per_class: dict[int, list[float]] = {}
    for log in event_logs:
        hits: dict[int, list[int]] = {}
        for r in log.records:
            hits.setdefault(r.class_index, []).append(r.detected)
        for ci, ys in hits.items():
            per_class.setdefault(ci, []).append(sum(ys) / len(ys))
    for ci in sorted(per_class):
        rows.append((f"p_detect[class {ci}]",) + summary(per_class[ci]))
    correct = []
    for log in event_logs:
        xs = [r.responded for r in log.records if r.detected]
        if xs:
            correct.append(sum(xs) / len(xs))
    rows.append(("p_c",) + summary(correct))
    rows.append(("p_w",) + summary(
        [sum(r.responded for r in log.records) / len(log.records) for log in normal_logs]))
    return rows


def report_counts(report) -> tuple:
    """Every integer a SimReport carries, in a fixed order."""
    return (
        report.n_trials, report.n_event, report.n_normal,
        tuple((c.n_event_silent, c.n_event_records, c.n_first_silent_event, c.n_first_silent,
               c.n_first_alarm_normal, c.n_first_alarm) for c in report.class_stats),
        tuple((t.n_accept_event, t.n_event, t.n_reject_normal, t.n_normal)
              for t in report.test_stats),
    )


def replay_counts(scenario, prior, tests, n_trials: int, master_seed: int) -> tuple:
    """Re-aggregate a run_trials block from single-trial replays."""
    k = len(scenario.topology.classes)
    n_event = 0
    cls = [[0] * 6 for _ in range(k)]
    dec = [[0, 0] for _ in tests]
    for i in range(n_trials):
        out = simulate_trial(scenario, prior, derive_trial_seed(master_seed, i), tests)
        event = out.truth is Truth.EVENT
        n_event += event
        for ci, xs in enumerate(out.responses):
            c = cls[ci]
            if event:
                c[0] += len(xs) - sum(xs)
                c[1] += len(xs)
            if xs[0]:
                c[5] += 1
                c[4] += not event
            else:
                c[3] += 1
                c[2] += event
        for ti, d in enumerate(out.decisions):
            dec[ti][0] += event and d.declared_event
            dec[ti][1] += (not event) and (not d.declared_event)
    n_normal = n_trials - n_event
    return (
        n_trials, n_event, n_normal,
        tuple(tuple(c) for c in cls),
        tuple((a, n_event, r, n_normal) for a, r in dec),
    )
