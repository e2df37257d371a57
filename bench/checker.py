"""Parse ``ptomech`` CSV/JSON output and check it.

An output passes when the call exited 0, its header and row count equal the
reference's, every numeric cell is finite, every ``max_rel_discrepancy_*``
footer is at or below the program's 1e-6 gate, and every cell agrees with the
reference: label cells exactly, numeric cells within ``RTOL`` relative to
max(|reference|, COLUMN_FLOOR * largest |reference| in that column). The
column floor keeps zero crossings of oscillating columns from demanding more
than double precision can give. Footer labels such as ``numbers_source`` are
not compared, so the closed-form dispatch can change without failing the
check.
"""

from __future__ import annotations

import json
import lzma
import math
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "references"

DISCREPANCY_GATE = 1e-6
DISCREPANCY_PREFIX = "max_rel_discrepancy_"
RTOL = 1e-6
COLUMN_FLOOR = 1e-3
MAX_LISTED = 5


@dataclass
class Table:
    columns: list[str]
    rows: list[list[float | str]]
    footer: dict[str, float | str]


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    max_rel_discrepancy: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.problems


def _cell(value) -> float | str:
    """Numbers (and numeric strings such as region ids) as float, labels as str."""
    if value is None:  # JSON writes NaN as null
        return math.nan
    try:
        return float(value)
    except ValueError:
        return str(value)


def parse_output(text: str, fmt: str) -> Table:
    if fmt == "json":
        payload = json.loads(text)
        columns = list(payload["columns"])
        rows = [[_cell(row[c]) for c in columns] for row in payload["rows"]]
        footer = {k: _cell(v) for k, v in payload.get("summary", {}).items()
                  if not isinstance(v, (dict, list))}
        return Table(columns, rows, footer)
    body, footer = [], {}
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            footer[key] = _cell(value)
        else:
            body.append(line)
    columns = body[0].split(",")
    return Table(columns, [[_cell(v) for v in line.split(",")] for line in body[1:]], footer)


def reference_path(name: str, fmt: str) -> Path:
    return REFERENCE_DIR / f"{name}.{fmt}.xz"


def load_reference(name: str, fmt: str) -> Table:
    return parse_output(lzma.decompress(reference_path(name, fmt).read_bytes()).decode(), fmt)


def _extend_listed(problems: list[str], found: list[str]) -> None:
    problems.extend(found[:MAX_LISTED])
    if len(found) > MAX_LISTED:
        problems.append(f"... and {len(found) - MAX_LISTED} more")


def _parse_checked(exit_code: int, text: str | None, fmt: str) -> tuple[Table | None, Verdict]:
    """Exit code, parse, finiteness and the discrepancy gate: checks every output needs."""
    verdict = Verdict()
    if exit_code != 0:
        verdict.problems.append(f"exit code {exit_code}")
        return None, verdict
    if text is None:
        verdict.problems.append("no output written")
        return None, verdict
    try:
        table = parse_output(text, fmt)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        verdict.problems.append(f"unparseable {fmt} output: {exc!r}")
        return None, verdict
    bad_rows = []
    for i, row in enumerate(table.rows):
        if len(row) != len(table.columns):
            bad_rows.append(f"row {i}: {len(row)} cells for {len(table.columns)} columns")
        bad = [c for c, v in zip(table.columns, row) if isinstance(v, float) and not math.isfinite(v)]
        if bad:
            bad_rows.append(f"row {i}: non-finite {bad}")
    _extend_listed(verdict.problems, bad_rows)
    for key, value in table.footer.items():
        if not key.startswith(DISCREPANCY_PREFIX):
            continue
        if not isinstance(value, float) or not value <= DISCREPANCY_GATE:
            verdict.problems.append(f"footer {key}={value} exceeds the {DISCREPANCY_GATE:g} gate")
        else:
            verdict.max_rel_discrepancy = max(verdict.max_rel_discrepancy, value)
    return table, verdict


def _within(value, ref: float, scale: float) -> bool:
    return isinstance(value, float) and abs(value - ref) <= RTOL * max(abs(ref), scale)


def check_against_reference(exit_code: int, text: str | None, fmt: str, ref: Table) -> Verdict:
    table, verdict = _parse_checked(exit_code, text, fmt)
    if table is None:
        return verdict
    problems = verdict.problems
    if table.columns != ref.columns:
        problems.append(f"header {table.columns} != reference {ref.columns}")
        return verdict
    if len(table.rows) != len(ref.rows):
        problems.append(f"{len(table.rows)} rows, reference has {len(ref.rows)}")
        return verdict
    for key, ref_value in ref.footer.items():
        if key.startswith(DISCREPANCY_PREFIX):
            if key not in table.footer:
                problems.append(f"footer {key} missing")
        elif isinstance(ref_value, float) and not _within(table.footer.get(key), ref_value, 0.0):
            problems.append(f"footer {key}={table.footer.get(key)} != reference {ref_value}")
    scales = []
    for j in range(len(ref.columns)):
        numeric = [abs(r[j]) for r in ref.rows if isinstance(r[j], float)]
        scales.append(COLUMN_FLOOR * max(numeric, default=0.0))
    mismatches = []
    for i, (row, ref_row) in enumerate(zip(table.rows, ref.rows)):
        for j, (value, ref_value) in enumerate(zip(row, ref_row)):
            same = (value == ref_value if isinstance(ref_value, str)
                    else _within(value, ref_value, scales[j]))
            if not same:
                mismatches.append(f"row {i} {ref.columns[j]}: {value!r} != reference {ref_value!r}")
    _extend_listed(problems, mismatches)
    return verdict


def check_truncation_contract(exit_code: int, text: str | None, fmt: str) -> Verdict:
    """A run that reaches the 1e12 overflow guard exits 0 and reports truncated_at_t."""
    table, verdict = _parse_checked(exit_code, text, fmt)
    if table is None:
        return verdict
    t_trunc = table.footer.get("truncated_at_t")
    if not isinstance(t_trunc, float) or not t_trunc > 0.0:
        verdict.problems.append(f"truncated_at_t footer missing or invalid: {t_trunc!r}")
    if len(table.rows) < 2:
        verdict.problems.append(f"only {len(table.rows)} rows before truncation")
    return verdict
