"""Equivalence of two pipeline output directories.

Two runs behave the same when every discrete output is identical (edges,
validated and refutation flags, trees, falsification verdicts, imputed
cells, labels) and every float agrees within ``FLOAT_TOL`` relative to
``max(1, |a|, |b|)``.  Artifacts print floats with ``repr``, so a change
that reorders a sum can move the last digits: this check allows that,
while the byte comparison in ``run.py`` does not.

A *fingerprint* is the same content in compact form: the SHA-256 of every
discrete value (floats replaced by a placeholder) plus the list of floats
in file order.  Two fingerprints are equivalent under the same rule, so a
stored fingerprint of the seed commit's outputs gates later commits.

Usage:
    python3 perfbench/compare_runs.py RUN_DIR_A RUN_DIR_B
exits 0 when equivalent, 1 with one line per mismatch otherwise.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import sys
from pathlib import Path

FLOAT_TOL = 1e-12


def _cell(text: str):
    """A CSV cell as a float when it prints as one, else as text."""
    if any(ch in text for ch in ".eEn") and text not in ("True", "False", "NaN", ""):
        try:
            return float(text)
        except ValueError:
            pass
    return text


def load_run(run_dir: Path) -> dict[str, object]:
    """Parsed content of every artifact: JSON as data, CSV as cells, other files as text."""
    out: dict[str, object] = {}
    for path in sorted(p for p in Path(run_dir).iterdir() if p.is_file()):
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json":
            out[path.name] = json.loads(text)
        elif path.suffix == ".csv":
            out[path.name] = [[_cell(c) for c in row] for row in csv.reader(io.StringIO(text))]
        else:
            out[path.name] = text
    return out


def floats_close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= FLOAT_TOL * max(1.0, abs(a), abs(b))


def differences(a: object, b: object, where: str = "") -> list[str]:
    """One line per place where ``a`` and ``b`` are not equivalent."""
    if isinstance(a, float) and isinstance(b, float):
        return [] if floats_close(a, b) else [f"{where}: {a!r} != {b!r}"]
    if type(a) is not type(b):
        return [f"{where}: {a!r} != {b!r}"]
    if isinstance(a, dict):
        out = [f"{where}/{k}: only in one run" for k in sorted(a.keys() ^ b.keys(), key=str)]
        for k in sorted(a.keys() & b.keys(), key=str):
            out += differences(a[k], b[k], f"{where}/{k}")
        return out
    if isinstance(a, list):
        if len(a) != len(b):
            return [f"{where}: {len(a)} items != {len(b)} items"]
        out = []
        for i, (x, y) in enumerate(zip(a, b)):
            out += differences(x, y, f"{where}[{i}]")
        return out
    return [] if a == b else [f"{where}: {a!r} != {b!r}"]


def _split(value: object, floats: list[float]) -> object:
    """``value`` with each float moved to ``floats`` and replaced by a placeholder."""
    if isinstance(value, float):
        floats.append(value)
        return "<float>"
    if isinstance(value, dict):
        return {k: _split(v, floats) for k, v in sorted(value.items())}
    if isinstance(value, list):
        return [_split(v, floats) for v in value]
    return value


def fingerprint(run_dir: Path) -> dict:
    floats: list[float] = []
    discrete = _split(load_run(run_dir), floats)
    blob = json.dumps(discrete, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return {"discrete_sha256": hashlib.sha256(blob).hexdigest(), "floats": floats}


def fingerprint_differences(a: dict, b: dict) -> list[str]:
    if a["discrete_sha256"] != b["discrete_sha256"]:
        return ["discrete outputs differ (compare the run directories for details)"]
    return differences(a["floats"], b["floats"], "floats")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 perfbench/compare_runs.py RUN_DIR_A RUN_DIR_B", file=sys.stderr)
        return 2
    diffs = differences(load_run(Path(argv[0])), load_run(Path(argv[1])))
    for line in diffs:
        print(line)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
