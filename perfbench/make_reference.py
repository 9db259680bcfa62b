"""Regenerate ``reference.json``: the analytic values the row checks compare against.

Run from the root of a checkout:

    python3 perfbench/make_reference.py

Only rerun this when a change is meant to move an analytic value; the
benchmark's row checks then hold the new values to 1e-9 relative.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src")]

import workloads  # noqa: E402  (needs the src path above)


def _csv_reference(text: str) -> list:
    rows = []
    for line in text.splitlines()[1:]:
        cells = line.split(",")
        rows.append(cells[:4] + [float(cells[c]) for c in workloads.ANALYTIC_COLS])
    return rows


def _oracle_reference(text: str) -> list:
    rows = []
    for line in text.splitlines():
        snr, scenario, mu, user, p_exact = line.split(",")[:5]
        rows.append([float(snr), scenario.strip("'"), int(mu), user.strip("'"), float(p_exact)])
    return rows


def main() -> None:
    reference = {}
    with tempfile.TemporaryDirectory(dir=BENCH_DIR.parent) as tmp:
        for name, wl in workloads.WORKLOADS.items():
            text = wl.run(wl.load(), 1, str(Path(tmp) / "pass.csv"))
            rows = _oracle_reference(text) if name == "oracle-gate" else _csv_reference(text)
            if len(rows) != wl.rows or any(wl.check(text, rows)):
                raise SystemExit(f"{name}: {len(rows)} rows, expected {wl.rows}, "
                                 "or rows that fail their own check")
            reference[name] = rows
    out = BENCH_DIR / "reference.json"
    out.write_text(json.dumps(reference, separators=(",", ":")) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
