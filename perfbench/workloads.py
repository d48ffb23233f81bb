"""Workload definitions: the CLI argv each workload sends, derived from a seed.

A workload is a list of calls per pass.  Each call is a dict with the argv
handed to ``cdspec.cli.main``, the output ``kind`` the gate checks it as, the
expected exit code, and the figures the gate needs (``q``; the number of
exponent classes for a scan; the case count for a fuzz run).

Two scales exist: ``bench`` is what the benchmark measures and ``tiny`` is
the self-test size.  ``bench`` scales down the ROADMAP field grid: one call
on 3^13, 5^9 or 2^22 takes 6-11 s on 2 cores, too long to repeat within one
timed run, so ``cold_case`` stops at 2^18, 3^11 and 5^7.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 1
SCALES = ("bench", "tiny")

# (field, named exponent, extra argv); "inv" rows take a seeded c, the
# others use c = -1.  inv appears only in characteristic 2 and 3, where
# c not in {0, 1} already keeps c out of the excluded set {0, 1, 4, 1/4}.
_COLD_FIELDS = {
    "bench": [
        ("3^7", "inv", []),
        ("5^5", "pk1half", ["--k", "1"]),
        ("2^16", "inv", []),
        ("3^10", "plus3half", []),
        ("2^18", "inv", []),
        ("3^11", "minus3", []),
        ("5^7", "minus3half", []),
    ],
    "tiny": [
        ("3^3", "inv", []),
        ("5^2", "pk1half", ["--k", "1"]),
        ("2^4", "inv", []),
        ("3^2", "plus3half", []),
        ("3^3", "minus3", []),
        ("5^3", "minus3half", []),
    ],
}

_SWEEP_FIELDS = {
    "bench": [("3^7", "json"), ("5^5", "csv"), ("2^11", "json")],
    "tiny": [("3^3", "json"), ("5^2", "csv"), ("2^4", "json")],
}

_SCAN_FIELDS = {
    "bench": ["3^8", "2^14"],
    "tiny": ["3^3", "2^5"],
}

_FUZZ_COUNT = {"bench": 150, "tiny": 20}


def field_order(field: str) -> tuple[int, int]:
    """(p, q) of a "p^n" field string."""
    p, n = (int(t) for t in field.split("^"))
    return p, p ** n


def cyclotomic_class_count(p: int, q: int) -> int:
    """Number of orbits of d -> d*p on the residues mod q-1 (what scan examines)."""
    order = q - 1
    seen = bytearray(order)
    classes = 0
    for r in range(order):
        if seen[r]:
            continue
        classes += 1
        cur = r
        while not seen[cur]:
            seen[cur] = 1
            cur = (cur * p) % order
    return classes


def _rng(seed: int, *salt) -> random.Random:
    return random.Random(":".join(str(s) for s in (seed,) + salt))


def cold_case(seed: int, scale: str, pass_index: int) -> list[dict]:
    calls = []
    for field, d, extra in _COLD_FIELDS[scale]:
        _, q = field_order(field)
        c = f"e:{_rng(seed, 'cold', field).randrange(2, q)}" if d == "inv" else "-1"
        argv = ["verify", "--field", field, "--d", d, *extra, "--c", c, "--format", "json"]
        calls.append({"argv": argv, "kind": "verify_json", "rc": 0, "q": q})
    return calls


def sweep_c(seed: int, scale: str, pass_index: int) -> list[dict]:
    calls = []
    for field, fmt in _SWEEP_FIELDS[scale]:
        _, q = field_order(field)
        argv = ["sweep", "--field", field, "--d", "inv", "--format", fmt]
        calls.append({"argv": argv, "kind": f"sweep_{fmt}", "rc": 0, "q": q})
    return calls


def scan_d(seed: int, scale: str, pass_index: int) -> list[dict]:
    calls = []
    for field in _SCAN_FIELDS[scale]:
        p, q = field_order(field)
        c = f"e:{_rng(seed, 'scan', field).randrange(2, q)}"
        argv = ["scan", "--field", field, "--c", c, "--max-uniformity", "2", "--format", "json"]
        calls.append({"argv": argv, "kind": "scan_json", "rc": 0, "q": q,
                      "classes": cyclotomic_class_count(p, q)})
    return calls


def fuzz_n4(seed: int, scale: str, pass_index: int) -> list[dict]:
    # Each pass draws fresh cases, so a run averages the cost over many field
    # sizes instead of repeating one draw.
    fuzz_seed = _rng(seed, "fuzz", pass_index).randrange(1 << 32)
    count = _FUZZ_COUNT[scale]
    argv = ["fuzz", "--seed", str(fuzz_seed), "--count", str(count), "--format", "json"]
    return [{"argv": argv, "kind": "fuzz_json", "rc": 0, "count": count}]


WORKLOADS = {
    "cold_case": cold_case,
    "sweep_c": sweep_c,
    "scan_d": scan_d,
    "fuzz_n4": fuzz_n4,
}
