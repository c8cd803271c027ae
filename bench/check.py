"""Correctness check of one op's output against the recorded reference.

A fingerprint keeps the numbers of a report that must not change: errors,
D_H values, converse floors, the converse value, verification margins and
every ``holds`` flag. An op fails if its exit code is not 0, if it raised,
or if any fingerprint entry differs from the reference by more than ``TOL``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

TOL = 1e-9
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")


def fingerprint(argv, text: str) -> dict[str, list]:
    """The checked numbers of one CLI command's output.

    ``float`` also reads the 'inf' and 'nan' strings that reports write for
    non-finite values."""
    command = argv[0]
    if command == "sweep":
        out: dict[str, list] = {}
        for i, row in enumerate(csv.DictReader(io.StringIO(text))):
            out[f"{i}.worst_error"] = [float(row["worst_error"])]
            out[f"{i}.avg_error"] = [float(row["avg_error"])]
            out[f"{i}.dh_values"] = [float(v) for v in row["dh_values"].split(";")]
            out[f"{i}.holds"] = [row["bound_satisfied"] == "True"
                                 and row["floors_hold"] == "True"]
        return out
    doc = json.loads(text)
    if command == "simulate":
        rep = doc["report"]
        return {
            "worst_error": [float(rep["worst_error"])],
            "avg_error": [float(rep["avg_error"])],
            "dh_values": [float(v) for v in rep["dh_values"]],
            "floors": [float(f["floor"]) for f in rep["floors"]],
            "floor_values": [float(v) for f in rep["floors"] for v in f["values"]],
            "holds": [bool(doc["holds"])],
        }
    if command == "bound":
        res = doc["result"]
        return {"value": [float(res["value"])],
                "per_sender": [float(v) for v in res["per_sender"]]}
    if command == "verify":
        checks = doc["result"]["checks"]
        return {"worst_margin": [float(c["worst_margin"]) for c in checks],
                "passes": [c["passes"] for c in checks],
                "holds": [bool(doc["result"]["holds"])]}
    raise ValueError(f"no fingerprint for command {command!r}")


def _same(a, b, tol: float) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if not (math.isfinite(a) and math.isfinite(b)):
        return a == b or (math.isnan(a) and math.isnan(b))
    return abs(a - b) <= tol


def mismatches(expected: dict, actual: dict, tol: float = TOL) -> list[str]:
    """Names of fingerprint entries that differ beyond ``tol``."""
    bad = sorted(set(expected) ^ set(actual))
    for key in sorted(set(expected) & set(actual)):
        exp, act = expected[key], actual[key]
        if len(exp) != len(act) or not all(_same(a, b, tol)
                                           for a, b in zip(exp, act)):
            bad.append(key)
    return bad


def op_failures(code: int | None, argv, text: str, expected: dict | None
                ) -> list[str]:
    """Why an op counts as failed; empty when it passed.

    ``code`` is None when the command raised instead of returning.
    """
    if code is None:
        return ["raised"]
    if code != 0:
        return [f"exit code {code}"]
    if expected is None:
        return ["no reference"]
    try:
        actual = fingerprint(argv, text)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
    return [f"{k} differs from reference" for k in mismatches(expected, actual)]


def load_reference(path: str = REFERENCE) -> dict:
    """workload -> op name -> variant (as a string) -> fingerprint."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
