"""The calibration-log reader as it was before its single-lookup rewrite, kept word for word.

tests/test_estimation.py requires griddetect.estimation.read_log_file to return equal logs and raise
the identical DomainError text on generated files. This copy is a reference for the tests only.
"""

from __future__ import annotations

import csv
from pathlib import Path

from griddetect.estimation import LOG_FIELDS, Condition, SensorRecord, TrialLog
from griddetect.model import DomainError


def read_log_file(path: str | Path) -> list[TrialLog]:
    """Parse a CSV log file; records sharing a trial id form one log.

    A log repeats few distinct trial ids and (condition, class_index,
    detected, responded) rows, so each is validated and built once, on
    first sight, and shared by every row that repeats it.
    """
    trials: dict[int, tuple[Condition, list[SensorRecord]]] = {}
    trial_ids: dict[str, int] = {}
    parsed: dict[tuple[str, str, str, str], tuple[Condition, SensorRecord]] = {}
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(h.strip() for h in header) != LOG_FIELDS:
                raise DomainError(
                    f"log file must start with header {','.join(LOG_FIELDS)!r}, got {header!r}"
                )
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(LOG_FIELDS):
                    raise DomainError(f"line {lineno}: expected {len(LOG_FIELDS)} fields, got {len(row)}")
                c, t, ci, d, r = row
                entry, trial_id = parsed.get((c, ci, d, r)), trial_ids.get(t)
                if entry is None or trial_id is None:
                    try:  # checked in column order, so a row with several bad fields names the first
                        condition = Condition(c.strip()) if entry is None else entry[0]
                        trial_id = trial_ids[t] = int(t)
                        if entry is None:
                            entry = parsed[c, ci, d, r] = (condition, SensorRecord(int(ci), int(d), int(r)))
                    except (ValueError, DomainError) as exc:
                        raise DomainError(f"line {lineno}: {exc}") from exc
                condition, record = entry
                known = trials.setdefault(trial_id, (condition, []))
                if known[0] is not condition:
                    raise DomainError(f"line {lineno}: trial {trial_id} mixes conditions")
                known[1].append(record)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DomainError(f"cannot read log file {path}: {exc}") from exc
    if not trials:
        raise DomainError("log file contains no records")
    return [
        TrialLog(condition=cond, records=tuple(records))
        for _, (cond, records) in sorted(trials.items())
    ]
