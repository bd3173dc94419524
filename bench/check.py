"""Row-by-row check of a CLI output against its recorded reference.

A column rule (from ``workloads.json``) says how a cell is compared with the
reference cell in the same row and column:

- ``"match": "exact"``: the same text;
- ``"match": "close"``: numbers within ``max(abs, rel * |reference|)``;
- ``"match": "stat"``: Monte Carlo means within ``STAT_K`` combined
  standard errors, ``sqrt(se**2 + se_ref**2)``, with the standard errors
  read from the column named by ``"se"``; this holds for any seed;
- ``"match": "none"``: no comparison.

Every numeric cell must also be finite and inside ``[min, max]`` when those
are given.  An empty reference cell must stay empty.  A row fails when any
of its cells fails; every row fails when the header or the row count
differs from the reference.
"""

from __future__ import annotations

import csv
import io
import math

STAT_K = 5.0


def parse_csv(text: str) -> tuple[list[str], list[dict[str, str]]]:
    """Header and rows of the CLI's CSV output, metadata lines dropped."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return [], []
    reader = csv.DictReader(io.StringIO("\n".join(lines)))
    return list(reader.fieldnames or []), list(reader)


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _cell_ok(rule: dict, col: str, row: dict, ref: dict) -> bool:
    got, want = row.get(col), ref.get(col)
    if got is None:
        return False
    if want == "" or rule.get("match", "exact") == "exact":
        return got == want
    x = _number(got)
    if x is None or not math.isfinite(x):
        return False
    if "min" in rule and x < rule["min"]:
        return False
    if "max" in rule and x > rule["max"]:
        return False
    match = rule["match"]
    if match == "none":
        return True
    y = _number(want)
    if match == "close":
        tol = max(rule.get("abs", 0.0), rule.get("rel", 0.0) * abs(y))
        return abs(x - y) <= tol
    if match == "stat":
        se, se_ref = _number(row.get(rule["se"], "")), _number(ref[rule["se"]])
        if se is None or not math.isfinite(se) or se < 0:
            return False
        return abs(x - y) <= STAT_K * math.hypot(se, se_ref) + 1e-12
    raise ValueError(f"unknown match rule {match!r} for column {col!r}")


def failed_rows(text: str, reference: str, columns: dict[str, dict]) -> list[int]:
    """Indices of the reference rows that ``text`` fails to reproduce."""
    header, rows = parse_csv(text)
    ref_header, ref_rows = parse_csv(reference)
    if header != ref_header or len(rows) != len(ref_rows):
        return list(range(len(ref_rows)))
    return [i for i, (row, ref) in enumerate(zip(rows, ref_rows))
            if not all(_cell_ok(columns.get(c, {}), c, row, ref)
                       for c in ref_header)]
