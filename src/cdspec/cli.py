"""Command-line front end: spectrum, verify, sweep, scan, gamma, fuzz.

All numeric output is exact integers.  JSON uses sorted keys and compact
separators so that parse + re-serialise is byte-identical; CSV and text
carry the same numbers.  Each subcommand hands its three output forms to
_render, the one place where --format is read and the output is written.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import itertools
import json
import os
import sys
from typing import Iterator, Optional

from . import closed_forms, verifier
from .errors import BudgetExceeded, Error, FieldTooLarge, ParseError
from .field import (
    FieldContext,
    FieldSpec,
    build_context,
    encode_digits,
    gamma_5n_direct,
    parse_field_spec,
)
from .spectrum import (DEFAULT_N4_BUDGET, PowerMap, PowerMapCase, assert_counting_identity,
                       c_spectrum, omega_doc, uniformity_label)

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_INCONSISTENT = 3
EXIT_USAGE = 64
EXIT_BUDGET = 65

# |gamma_5n| <= 2 * 5^(n/2) (Hasse) stays below 10^4300 exactly while
# n <= 12302.  Python refuses to print a longer int by default, and main
# runs in-process, so the limit is not lifted here.
GAMMA_MAX_N = 12302

_VERDICT_EXIT = {
    verifier.MATCH: EXIT_OK,
    verifier.NO_PREDICTOR: EXIT_OK,
    verifier.MISMATCH: EXIT_MISMATCH,
    verifier.PREDICTOR_INCONSISTENT: EXIT_INCONSISTENT,
}


# ---------------------------------------------------------------------------
# Argument parsing helpers
# ---------------------------------------------------------------------------

def parse_c(ctx: FieldContext, text: str) -> int:
    """c syntax: "-1" is the field's -1; a bare integer is the prime-subfield
    constant k mod p; "e:V" is a raw element encoding; "a,b,..." digits low
    to high."""
    text = text.strip()
    if text == "-1":
        return ctx.neg_one
    if text.startswith("e:"):
        try:
            v = int(text[2:])
        except ValueError as exc:
            raise ParseError(f"bad element encoding {text!r}") from exc
        if not 0 <= v < ctx.q:
            raise ParseError(f"encoding {v} outside [0, {ctx.q})")
        return v
    if "," in text:
        try:
            digits = [int(t) for t in text.split(",")]
        except ValueError as exc:
            raise ParseError(f"bad digit vector {text!r}") from exc
        if len(digits) > ctx.n or any(not 0 <= t < ctx.p for t in digits):
            raise ParseError(f"digit vector {text!r} invalid for GF({ctx.p}^{ctx.n})")
        return encode_digits(digits, ctx.p)
    try:
        k = int(text)
    except ValueError as exc:
        raise ParseError(f"bad c value {text!r}") from exc
    return k % ctx.p


def parse_d(ctx: FieldContext, text: str, k: Optional[int]) -> int:
    """d syntax: a positive integer, or a named exponent:
    inv = q-2, pk1half = (p^k+1)/2 (needs --k >= 1; reduced mod q-1, where
    x^d depends only on d), plus3half = (p^n+3)/2, minus3 = p^n-3,
    minus3half = (p^n-3)/2.  k is read by pk1half alone; with any other d it
    is a usage error, not silently ignored."""
    text = text.strip()
    if k is not None and text != "pk1half":
        raise ParseError(f"--k is read only with --d pk1half, not with --d {text!r}")
    named = {
        "inv": ctx.q - 2,
        "plus3half": (ctx.q + 3) // 2,
        "minus3": ctx.q - 3,
        "minus3half": (ctx.q - 3) // 2,
    }
    if text == "pk1half":
        if k is None:
            raise ParseError("--d pk1half requires --k")
        if k < 1:
            raise ParseError(f"--k must be >= 1, got {k}")
        # p^k mod 2(q-1) keeps p^k's parity, so halving it keeps the residue
        return (pow(ctx.p, k, 2 * (ctx.q - 1)) + 1) // 2 or ctx.q - 1
    if text in named:
        d = named[text]
    else:
        try:
            d = int(text)
        except ValueError as exc:
            raise ParseError(f"bad exponent {text!r}") from exc
    if d <= 0:  # a named form is not positive on the smallest fields
        raise ParseError(f"--d {text} is {d} on GF({ctx.p}^{ctx.n})" if text in named
                         else f"exponent must be positive, got {d}")
    return d


def _build_ctx(args) -> FieldContext:
    return build_context(parse_field_spec(args.field))


# ---------------------------------------------------------------------------
# Output formatting
# ---------------------------------------------------------------------------

def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def to_json(payload) -> str:
    return _canonical(payload) + "\n"


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# A sweep's output is made and written this many pieces at a time, a piece
# being one row (a report of JSON, a line of CSV or text) or a header or
# footer: 512 rows of JSON are about 220 KB, so no output is held whole.
_CHUNK_ROWS = 512


def _chunks(pieces) -> Iterator[str]:
    """The pieces in order, joined _CHUNK_ROWS at a time."""
    pieces = iter(pieces)
    while block := list(itertools.islice(pieces, _CHUNK_ROWS)):
        yield "".join(block)


def _emit(sink, text: str) -> None:
    """Write one chunk of output to sink, stdout or the --out file: the one
    writer of output, which _render calls once per chunk."""
    sink.write(text)


def _render(args, as_json, as_csv, lines) -> None:
    """Write the output form --format names: the text of as_json() or
    as_csv(), one string or its pieces in order, or the lines of lines().
    Only the chosen callable runs; a generator runs a chunk at a time, and
    each chunk is written (_emit) as it is made.  The sink, stdout or --out,
    is opened once, after the first chunk is made: an error in making it
    leaves no --out file, and an unwritable --out is a usage error wherever
    the write fails."""
    if args.format == "text":
        pieces = (line + "\n" for line in lines())
    else:
        pieces = as_json() if args.format == "json" else as_csv()
        if isinstance(pieces, str):
            pieces = (pieces,)
    chunks = _chunks(pieces)
    first = next(chunks, "")
    try:
        with (open(args.out, "w", encoding="utf-8", newline="") if args.out
              else contextlib.nullcontext(sys.stdout)) as sink:
            for chunk in itertools.chain((first,), chunks):
                _emit(sink, chunk)
    except OSError as exc:
        if args.out:
            raise ParseError(f"cannot write --out {args.out!r}: {exc.strerror or exc}") from exc
        if not isinstance(exc, BrokenPipeError):
            raise
        # stdout's reader has gone (`cdspec sweep ... | head`): write no more,
        # and let what stdout still buffers go to /dev/null at exit, so the
        # command exits with its own code and prints no traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _eq_str(value) -> str:
    if value is None:
        return "skipped"
    return "true" if value else "false"


def _omega_text(omega: dict[int, int]) -> str:
    return ", ".join(f"{i}:{w}" for i, w in sorted(omega.items()))


def _verify_csv(ctx: FieldContext, reports, members) -> Iterator[str]:
    """The lines of the verify/sweep CSV: the header, then for each (c, i) of
    members the row of reports[i] at c, one line at a time.  The cells after
    c are formatted once per report; no cell holds a newline, so they are
    the lines of one _csv_text."""
    header, before, *after = _csv_text(
        ["p", "n", "modulus", "d", "c", "verdict", "uniformity", "omega_json", "eq1", "eq2"],
        [[ctx.p, ctx.n, ",".join(map(str, ctx.modulus)), reports[0].d],
         *([r.verdict, r.computed.uniformity, _canonical(omega_doc(r.computed.omega)),
            _eq_str(r.eq1_ok), _eq_str(r.eq2_ok)] for r in reports)],
    ).split("\n")[:-1]
    yield header + "\n"
    for c, i in members:
        yield f"{before},{c},{after[i]}\n"


def _sweep_json(result: verifier.SweepResult) -> Iterator[str]:
    """The pieces of to_json(result.as_dict()): its head, then one report per
    swept c in ascending c, then its tail.  Each outcome's report is
    formatted once with its two c values left open.  With sorted keys "c"
    comes first in "case" and in "computed", and those two come first in a
    report; the sweep's case and tallies hold only numbers and fixed keys."""
    bodies = []
    for r in result.outcomes:
        doc = r.as_dict()
        case, computed = doc.pop("case"), doc.pop("computed")
        del case["c"], computed["c"]
        bodies.append(("," + _canonical(case)[1:] + ',"computed":{"c":',
                       "," + _canonical(computed)[1:] + "," + _canonical(doc)[1:]))
    head, tail = to_json({
        "case": {"p": result.p, "n": result.n, "modulus": list(result.modulus), "d": result.d},
        "reports": [], "tallies": result.tallies,
    }).split('"reports":[]')
    yield head + '"reports":['
    sep = ""
    for c, i in result.members():
        yield f'{sep}{{"case":{{"c":{c}{bodies[i][0]}{c}{bodies[i][1]}'
        sep = ","
    yield "]" + tail


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_spectrum(args) -> int:
    ctx = _build_ctx(args)
    d = parse_d(ctx, args.d, args.k)
    c = parse_c(ctx, args.c)
    case = PowerMapCase(PowerMap(ctx, d), c)
    spec = c_spectrum(case)
    assert_counting_identity(spec)
    u, label = spec.uniformity, uniformity_label(spec.uniformity)
    modulus = ",".join(map(str, ctx.modulus))
    payload = {
        "field": {"p": ctx.p, "n": ctx.n, "modulus": list(ctx.modulus)},
        "d": case.d,
        "c": c,
        "omega": omega_doc(spec.omega),
        "uniformity": u,
        "class": label,
    }
    _render(
        args,
        lambda: to_json(payload),
        lambda: _csv_text(["p", "n", "modulus", "d", "c", "uniformity", "class", "omega_json"],
                          [[ctx.p, ctx.n, modulus, case.d, c, u, label,
                            _canonical(payload["omega"])]]),
        lambda: [f"GF({ctx.p}^{ctx.n}) modulus {modulus}",
                 f"d = {case.d}, c = {c}",
                 f"omega: {_omega_text(spec.omega)}",
                 f"uniformity = {u} ({label})"],
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    ctx = _build_ctx(args)
    d = parse_d(ctx, args.d, args.k)
    c = parse_c(ctx, args.c)
    report = verifier.verify_with_context(ctx, d, c, n4_budget=args.budget_n4)

    def lines() -> list[str]:
        n4 = f", N4 = {report.n4}" if report.n4 is not None else ""
        out = [
            f"GF({ctx.p}^{ctx.n}) d = {report.d} c = {c}: {report.verdict}",
            f"computed omega: {_omega_text(report.computed.omega)}",
            f"eq1 = {_eq_str(report.eq1_ok)}, eq2 = {_eq_str(report.eq2_ok)}{n4}",
        ]
        for pr in report.predictions:
            status = "consistent" if pr.consistent else "INCONSISTENT"
            notes = f"  [{pr.notes}]" if pr.notes else ""
            out.append(f"prediction {pr.theorem.value} ({status}): {_omega_text(pr.omega)}{notes}")
        if report.matched_theorem:
            out.append(f"matched: {report.matched_theorem}")
        return out

    _render(args, lambda: to_json(report.as_dict()),
            lambda: _verify_csv(ctx, [report], [(c, 0)]), lines)
    return _VERDICT_EXIT[report.verdict]


def cmd_sweep(args) -> int:
    ctx = _build_ctx(args)
    d = parse_d(ctx, args.d, args.k)
    result = verifier.sweep_c(ctx, d, n4_budget=args.budget_n4)
    # every form is written from the outcomes: each report is formatted once
    # with c left open, then once per swept c in ascending c, a chunk of rows
    # at a time
    reports = result.outcomes

    def lines() -> Iterator[str]:
        tails = [f": {r.verdict}, uniformity={r.computed.uniformity}, "
                 f"{_canonical(omega_doc(r.computed.omega))}" for r in reports]
        yield f"GF({result.p}^{result.n}) d = {result.d}: sweep over {ctx.q - 1} c values"
        yield "tallies: " + ", ".join(f"{k}={v}" for k, v in result.tallies.items())
        for c, i in result.members():
            yield f"  c={c}{tails[i]}"

    _render(args, lambda: _sweep_json(result),
            lambda: _verify_csv(ctx, reports, result.members()), lines)
    # a MISMATCH anywhere outranks a PREDICTOR_INCONSISTENT
    return next((_VERDICT_EXIT[v] for v in (verifier.MISMATCH, verifier.PREDICTOR_INCONSISTENT)
                 if result.tallies[v]), EXIT_OK)


def cmd_scan(args) -> int:
    ctx = _build_ctx(args)
    c = parse_c(ctx, args.c)
    result = verifier.scan_exponents(ctx, c, args.max_uniformity)
    _render(
        args,
        lambda: to_json(result.as_dict()),
        lambda: _csv_text(["d", "uniformity", "omega_json"],
                          [[r["d"], r["uniformity"], _canonical(r["omega"])]
                           for r in result.rows]),
        lambda: [
            f"GF({result.p}^{result.n}) c = {result.c}: "
            f"{len(result.rows)} exponent classes with uniformity <= {result.max_uniformity}",
            *(f"  d={r['d']}: uniformity={r['uniformity']}, {_canonical(r['omega'])}"
              for r in result.rows),
        ],
    )
    return EXIT_OK


def cmd_gamma(args) -> int:
    n = args.n
    if n < 1:
        raise ParseError(f"--n must be >= 1, got {n}")
    if n > GAMMA_MAX_N:
        raise BudgetExceeded(
            f"--n {n} exceeds {GAMMA_MAX_N}: the closed value could pass 4300 digits"
        )
    closed = closed_forms.gamma_5n_closed(n)
    try:
        ctx = build_context(FieldSpec(5, n))
    except FieldTooLarge:
        direct = None
    else:
        direct = gamma_5n_direct(ctx)
    equal = None if direct is None else closed == direct
    shown = "" if equal is None else str(equal).lower()
    _render(
        args,
        lambda: to_json({"n": n, "closed": closed, "direct": direct, "equal": equal}),
        lambda: _csv_text(["n", "closed", "direct", "equal"],
                          [[n, closed, "" if direct is None else direct, shown]]),
        lambda: [f"gamma_5_{n}: closed = {closed}, "
                 + ("direct skipped (field over budget)" if direct is None
                    else f"direct = {direct}, equal = {shown}")],
    )
    return EXIT_OK


def cmd_fuzz(args) -> int:
    report = verifier.fuzz_identities(args.seed, args.count, budget=args.budget_q)
    _render(
        args,
        lambda: to_json(report.as_dict()),
        lambda: _csv_text(["p", "n", "d", "c", "n4", "eq1", "eq2"],
                          [[c["p"], c["n"], c["d"], c["c"], c["n4"],
                            _eq_str(c["eq1"]), _eq_str(c["eq2"])] for c in report.cases]),
        lambda: [
            f"fuzz seed={report.seed} count={report.count} budget={report.budget}: "
            f"{report.passes}/{report.count} passed",
            f"char-2 case present: {report.has_char2_case}; "
            f"gcd(d, q-1) > 1 case present: {report.has_gcd_gt1_case}",
            *(f"  FAIL {_canonical(f)}" for f in report.failures),
        ],
    )
    return EXIT_OK if report.all_ok else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _add_common(sub, *, field=True, d=False, c=False, n4=False, seed=False):
    """Add the flags a subcommand reads, and no others: an unread flag is a
    usage error (exit 64), not silently ignored."""
    if field:
        sub.add_argument("--field", required=True,
                         help='field as "p^n" or "p^n/c0,c1,...,cn"')
    if d:
        sub.add_argument("--d", required=True, help="exponent (integer or named form)")
        sub.add_argument("--k", type=int, default=None, help="k for --d pk1half only")
    if c:
        sub.add_argument("--c", required=True, help='c value ("-1", integer, e:ENC, digits)')
    if n4:
        sub.add_argument("--budget-n4", type=int, default=DEFAULT_N4_BUDGET,
                         help="max field size for the quadruple count")
    if seed:
        sub.add_argument("--seed", type=int, default=1, help="PRNG seed")
    sub.add_argument("--format", choices=("json", "csv", "text"), default="text")
    sub.add_argument("--out", default=None, help="write output to FILE instead of stdout")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdspec",
        description="c-differential spectra of power maps over GF(p^n)",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("spectrum", help="enumerate one spectrum")
    _add_common(sp, d=True, c=True)
    sp.set_defaults(func=cmd_spectrum)

    sp = subs.add_parser("verify", help="compare enumeration against closed forms")
    _add_common(sp, d=True, c=True, n4=True)
    sp.set_defaults(func=cmd_verify)

    sp = subs.add_parser("sweep", help="verify every c in the field")
    _add_common(sp, d=True, n4=True)
    sp.set_defaults(func=cmd_sweep)

    sp = subs.add_parser("scan", help="scan exponent classes by uniformity")
    _add_common(sp, c=True)
    sp.add_argument("--max-uniformity", type=int, required=True)
    sp.set_defaults(func=cmd_scan)

    sp = subs.add_parser("gamma", help="cubic character sum over GF(5^n)")
    _add_common(sp, field=False)
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(func=cmd_gamma)

    sp = subs.add_parser("fuzz", help="randomised identity checks")
    _add_common(sp, field=False, seed=True)
    sp.add_argument("--count", type=int, default=100)
    # every draw runs the quadruple count at the --budget-n4 default, so a
    # --budget-q above it is refused
    sp.add_argument("--budget-q", type=int, default=343, help="largest field order drawn")
    sp.set_defaults(func=cmd_fuzz)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared after it: parse_args
    returns a fresh namespace and leaves the parser as it was."""
    return make_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ParseError, Error, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
