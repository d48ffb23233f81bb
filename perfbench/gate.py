"""Output gate: decides whether one CLI call succeeded.

A call fails if it raised, returned another exit code than expected, printed
JSON that does not parse and re-serialise byte-identically, reported
``eq1 = false`` or a verdict outside the expected set, or broke a
seed-independent invariant of its kind.  For the default seed its output
must also match the sha256 pinned in ``pinned.json``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

PINNED_PATH = Path(__file__).with_name("pinned.json")

VERIFY_VERDICTS = {"MATCH"}
SWEEP_VERDICTS = {"MATCH", "NO_PREDICTOR"}
SWEEP_CSV_HEADER = ["p", "n", "modulus", "d", "c", "verdict", "uniformity",
                    "omega_json", "eq1", "eq2"]


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _omega_problems(omega: dict, q: int, uniformity: int, where: str) -> list[str]:
    counts = {int(i): w for i, w in omega.items()}
    out = []
    if sum(counts.values()) != q or sum(i * w for i, w in counts.items()) != q:
        out.append(f"{where}: omega {omega} breaks sum(omega) = sum(i*omega) = q = {q}")
    if max(i for i, w in counts.items() if w > 0) != uniformity:
        out.append(f"{where}: uniformity {uniformity} is not the top of omega {omega}")
    return out


def _parse_json(text: str) -> tuple[object, list[str]]:
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return None, [f"output is not JSON: {exc}"]
    if canonical(doc) != text:
        return doc, ["JSON does not re-serialise byte-identically"]
    return doc, []


def _check_verify(doc: dict, call: dict) -> tuple[int, list[str]]:
    out = []
    if doc["eq1"] is not True:
        out.append("eq1 is not true")
    if doc["verdict"] not in VERIFY_VERDICTS:
        out.append(f"verdict {doc['verdict']} not in {sorted(VERIFY_VERDICTS)}")
    comp = doc["computed"]
    out += _omega_problems(comp["omega"], call["q"], comp["uniformity"], "computed")
    return 1, out


def _check_sweep_json(doc: dict, call: dict) -> tuple[int, list[str]]:
    reports = doc["reports"]
    out = []
    if len(reports) != call["q"] - 1:
        out.append(f"{len(reports)} reports, expected q - 1 = {call['q'] - 1}")
    for r in reports:
        c = r["case"]["c"]
        if r["eq1"] is not True:
            out.append(f"c={c}: eq1 is not true")
        if r["verdict"] not in SWEEP_VERDICTS:
            out.append(f"c={c}: verdict {r['verdict']} not in {sorted(SWEEP_VERDICTS)}")
        comp = r["computed"]
        out += _omega_problems(comp["omega"], call["q"], comp["uniformity"], f"c={c}")
    return len(reports), out


def _check_sweep_csv(text: str, call: dict) -> tuple[int, list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    out = []
    if not rows or rows[0] != SWEEP_CSV_HEADER:
        return 0, [f"CSV header {rows[:1]} != {SWEEP_CSV_HEADER}"]
    body = rows[1:]
    if len(body) != call["q"] - 1:
        out.append(f"{len(body)} CSV rows, expected q - 1 = {call['q'] - 1}")
    for row in body:
        rec = dict(zip(SWEEP_CSV_HEADER, row))
        where = f"c={rec['c']}"
        if rec["eq1"] != "true":
            out.append(f"{where}: eq1 is {rec['eq1']}")
        if rec["verdict"] not in SWEEP_VERDICTS:
            out.append(f"{where}: verdict {rec['verdict']} not in {sorted(SWEEP_VERDICTS)}")
        omega, problems = _parse_json(rec["omega_json"] + "\n")
        out += [f"{where}: omega_json: {m}" for m in problems]
        if omega is not None:
            out += _omega_problems(omega, call["q"], int(rec["uniformity"]), where)
    return len(body), out


def _check_scan(doc: dict, call: dict) -> tuple[int, list[str]]:
    out = []
    top = doc["case"]["max_uniformity"]
    for row in doc["rows"]:
        where = f"d={row['d']}"
        if row["uniformity"] > top:
            out.append(f"{where}: uniformity {row['uniformity']} above {top}")
        if row["d"] not in row["class"] or row["class"] != sorted(row["class"]):
            out.append(f"{where}: class {row['class']} malformed")
        out += _omega_problems(row["omega"], call["q"], row["uniformity"], where)
    if len(doc["rows"]) > call["classes"]:
        out.append(f"{len(doc['rows'])} rows but only {call['classes']} classes")
    return call["classes"], out


def _check_fuzz(doc: dict, call: dict) -> tuple[int, list[str]]:
    out = []
    if doc["count"] != call["count"] or len(doc["cases"]) != call["count"]:
        out.append(f"{len(doc['cases'])} cases, expected {call['count']}")
    if doc["failures"] or doc["passes"] != doc["count"]:
        out.append(f"{len(doc['failures'])} identity failures")
    for case in doc["cases"]:
        if case["eq1"] is not True or case["eq2"] is not True:
            out.append(f"case {case}: identity not true")
    return len(doc["cases"]), out


_JSON_CHECKS = {
    "verify_json": _check_verify,
    "sweep_json": _check_sweep_json,
    "scan_json": _check_scan,
    "fuzz_json": _check_fuzz,
}


def check_call(call: dict, rc, error, text: str, pinned: dict | None) -> tuple[int, list[str]]:
    """Gate one call.  Returns (results completed, problems); no problems
    means the call passed.  ``pinned`` maps argv strings to sha256 digests,
    or is None when the seed has no pinned digests."""
    if error is not None:
        return 0, [f"raised {error}"]
    problems = []
    if rc != call["rc"]:
        problems.append(f"exit code {rc}, expected {call['rc']}")
    if pinned is not None:
        key = " ".join(call["argv"])
        want = pinned.get(key)
        if want is None:
            problems.append(f"no pinned digest for {key!r}")
        elif want != sha256(text):
            problems.append(f"output sha256 {sha256(text)} != pinned {want}")
    try:
        if call["kind"] == "sweep_csv":
            results, found = _check_sweep_csv(text, call)
        else:
            doc, found = _parse_json(text)
            results = 0
            if doc is not None:
                results, more = _JSON_CHECKS[call["kind"]](doc, call)
                found += more
    except (KeyError, TypeError, ValueError) as exc:
        results, found = 0, [f"output malformed: {exc!r}"]
    return results, problems + found
