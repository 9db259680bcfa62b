"""The pinned stdout digests of the command line, and their check.

``tests/data/cli_digests.json`` maps each pinned argv (space-separated)
to the sha256 of its stdout bytes, a validate report's with its rel_err
cells blanked first (:func:`blank_rel_err`).  Run as a script, this
module reads one command's stdout from stdin and exits 0 when it hashes
to the digest pinned for the argv given as its one argument::

    noma-perf validate --trials 200000 | python3 tests/stdout_digest.py "validate --trials 200000"

It needs only the package, not the test extra.
"""

import hashlib
import json
import sys
from pathlib import Path

from noma_perf.cli import REPORT_COLUMNS

#: sha256 of the stdout bytes of each argv; regenerate only for a
#: deliberate change of the output
CLI_DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "cli_digests.json").read_text(encoding="utf-8"))


def blank_rel_err(report: str) -> str:
    """A validate report with every rel_err cell blanked, each checked first
    to parse and to be at most 1e-12.

    rel_err prints the quadrature's rounding noise, whose last digits
    follow numpy's SIMD dispatch of exp (AVX-512 or not); every other
    cell is the same at both dispatch levels.
    """
    col = REPORT_COLUMNS.index("rel_err")
    header, *rows = report.splitlines()
    if header != ",".join(REPORT_COLUMNS):
        raise ValueError(f"not a validate report: {header!r}")
    lines = [header]
    for row in rows:
        row_cells = row.split(",")
        if not float(row_cells[col]) <= 1e-12:
            raise ValueError(f"rel_err above 1e-12: {row}")
        row_cells[col] = ""
        lines.append(",".join(row_cells))
    return "".join(line + "\n" for line in lines)


def stdout_digest(argv: str, out: str) -> str:
    """sha256 of the stdout ``out`` of ``noma-perf argv``, as pinned."""
    if argv.startswith("validate"):
        out = blank_rel_err(out)
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


if __name__ == "__main__":
    argv = sys.argv[1]
    digest = stdout_digest(argv, sys.stdin.buffer.read().decode("utf-8"))
    pinned = CLI_DIGESTS[argv]
    print(argv, digest, "ok" if digest == pinned else "differs from " + pinned)
    sys.exit(digest != pinned)
