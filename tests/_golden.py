"""Golden rows: a stored JSON-lines table that a test's rows must match.

A golden file holds one canonical-JSON row per line, sorted by key.
:func:`assert_rows` compares the rows a test computes against it by key
and, on a mismatch, fails with a table of every moved field, every added
row and every removed row -- so a drift names the rows and fields that
moved instead of reporting one changed hash.

To regenerate a golden file after an intended change, delete it and run
the test that owns it twice::

    rm tests/golden/<name>.jsonl && python -m pytest <test node id>

The first run writes the file and fails (a golden file must be reviewed
before it pins anything); the second run passes against it.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.artifact.bundle import canonical_json


def _row_key(row: Mapping, key: Sequence[str]) -> Tuple:
    return tuple(row[field] for field in key)


def _key_label(values: Tuple, key: Sequence[str]) -> str:
    return " ".join(
        f"{field}={value}" for field, value in zip(key, values)
        if value is not None
    )


def _index(rows: Iterable[Mapping], key: Sequence[str], where: str) -> Dict:
    indexed: Dict[Tuple, Mapping] = {}
    for row in rows:
        k = _row_key(row, key)
        assert k not in indexed, f"duplicate {where} row key {_key_label(k, key)}"
        indexed[k] = row
    return indexed


def load_rows(path: str) -> List[Dict]:
    """The rows stored in a golden file, in file order."""
    with open(path, encoding="ascii") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def assert_rows(path: str, rows: Iterable[Mapping], key: Sequence[str]) -> None:
    """Assert that ``rows`` equal the golden rows stored at ``path``.

    ``key`` names the fields that identify a row.  Rows are matched by
    key, so the order in which a test produces them does not matter.
    """
    current = _index(rows, key, "current")
    if not os.path.exists(path):
        with open(path, "w", encoding="ascii") as fh:
            for k in sorted(current, key=canonical_json):
                fh.write(canonical_json(current[k]) + "\n")
        raise AssertionError(
            f"golden file {path} did not exist; wrote {len(current)} rows. "
            "Review and commit it, then re-run."
        )
    stored = _index(load_rows(path), key, "stored")
    table: List[Tuple[str, str, str, str]] = []
    for k in sorted(set(stored) | set(current), key=canonical_json):
        label = _key_label(k, key)
        if k not in current:
            table.append((label, "(removed)", canonical_json(stored[k]), "-"))
        elif k not in stored:
            table.append((label, "(added)", "-", canonical_json(current[k])))
        else:
            old, new = stored[k], current[k]
            for field in sorted(set(old) | set(new)):
                if field not in old or field not in new or old[field] != new[field]:
                    table.append((
                        label,
                        field,
                        canonical_json(old.get(field, "(absent)")),
                        canonical_json(new.get(field, "(absent)")),
                    ))
    if table:
        header = ("key", "field", "stored", "current")
        widths = [
            max(len(row[i]) for row in table + [header]) for i in range(3)
        ]
        lines = [
            "  ".join(cell.ljust(w) for cell, w in zip(row[:3], widths))
            + "  " + row[3]
            for row in [header] + table
        ]
        raise AssertionError(
            f"{len(table)} golden row difference(s) against {path}:\n"
            + "\n".join(lines)
        )
