"""Correctness gate for ``ballq verify`` output.

A level fails if the invocation exited non-zero, its report line differs
byte for byte from the golden copy taken from the seed, or the report does
not certify the level: ``passed`` true, ``chi == n``, ``k2 == -n``, the
family's cusp count (n + 1 for gamma, 2 for lambda) and BMY equality
``log_c1_squared == 3 * log_c2``.  Levels with no golden digest get the
report checks only.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")

CUSPS = {"gamma": lambda n: n + 1, "lambda": lambda n: 2}


def load_golden(path: Path = GOLDEN_PATH) -> dict[str, dict[str, str]]:
    """Per-level sha256 digests: ``{family: {str(n): hexdigest}}``."""
    return json.loads(path.read_text(encoding="utf-8"))["levels"]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _report_problems(line: bytes, family: str, n: int) -> list[str]:
    try:
        doc = json.loads(line)
    except ValueError:
        return ["report is not JSON"]
    problems = []
    if doc.get("family") != family or doc.get("n") != n:
        problems.append(f"report is for {doc.get('family')}:{doc.get('n')}")
    if doc.get("passed") is not True:
        problems.append("passed is not true")
    values = doc.get("values") or {}
    expected = {"chi": n, "k2": -n, "cusps": CUSPS[family](n)}
    for key, want in expected.items():
        if values.get(key) != want:
            problems.append(f"{key} = {values.get(key)!r}, expected {want}")
    c1, c2 = values.get("log_c1_squared"), values.get("log_c2")
    if not isinstance(c1, int) or not isinstance(c2, int) or c1 != 3 * c2:
        problems.append(f"log_c1_squared = {c1!r} is not 3 * log_c2 = 3 * {c2!r}")
    return problems


def check_invocation(family: str, levels: list[int], stdout: bytes, returncode: int,
                     golden: dict[str, dict[str, str]]) -> dict[str, list[str]]:
    """Problems per level (``"family:n"``); an empty list means the level passed."""
    lines = stdout.split(b"\n")
    newlines = len(lines) - 1
    shape_ok = stdout.endswith(b"\n") and len(lines) == len(levels) + 1
    family_golden = golden.get(family, {})
    out: dict[str, list[str]] = {}
    for i, n in enumerate(levels):
        problems = []
        if returncode != 0:
            problems.append(f"exit code {returncode}")
        if not shape_ok:
            problems.append(f"expected {len(levels)} report lines, got {newlines} newlines")
        else:
            line = lines[i]
            want = family_golden.get(str(n))
            if want is not None and digest(line) != want:
                problems.append("bytes differ from the golden copy")
            problems += _report_problems(line, family, n)
        out[f"{family}:{n}"] = problems
    return out


def fail_ratio(results: dict[str, list[str]]) -> float:
    return sum(1 for problems in results.values() if problems) / len(results)
