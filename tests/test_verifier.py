import contextlib
import csv
import dataclasses
import io
import json
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest

from cdspec import cli, spectrum, verifier
from cdspec import (
    BudgetExceeded,
    FieldSpec,
    build_context,
    find_irreducible,
    fuzz_identities,
    normalize_exponent,
    scan_exponents,
    sweep_c,
    verify_with_context,
)
from cdspec.closed_forms import TheoremId, dispatch_key
from cdspec.spectrum import (
    DEFAULT_N4_BUDGET,
    PowerMap,
    PowerMapCase,
    c_spectrum,
    cyclotomic_classes,
    omega_doc,
)
from cdspec.verifier import (
    MATCH,
    MISMATCH,
    NO_PREDICTOR,
    PREDICTOR_INCONSISTENT,
    SplitMix64,
)

from conftest import get_ctx, is_prime_trial, odd_fields


# ---------------------------------------------------------------------------
# splitmix64
# ---------------------------------------------------------------------------

def test_splitmix64_reference_stream():
    # reference outputs for seed 1234567 (published test vector)
    rng = SplitMix64(1234567)
    assert [rng.next() for _ in range(3)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]


def test_splitmix64_determinism():
    a = SplitMix64(1)
    b = SplitMix64(1)
    assert [a.next() for _ in range(10)] == [b.next() for _ in range(10)]


# ---------------------------------------------------------------------------
# verify_with_context
# ---------------------------------------------------------------------------

def test_verify_match_p3_plus3():
    r = verify_with_context(get_ctx(3, 2), 6, 2)
    assert r.verdict == MATCH
    assert r.matched_theorem in ("P3_PLUS3_HALF", "P3_MINUS3")
    assert r.eq1_ok and r.eq2_ok


def test_verify_match_p5():
    r = verify_with_context(get_ctx(5, 2), 11, 4)
    assert r.verdict == MATCH
    assert r.matched_theorem == "P5_MINUS3_HALF"
    assert r.computed.positive() == {0: 8, 1: 9, 2: 8}


def test_verify_no_predictor():
    r = verify_with_context(get_ctx(7, 1), 2, 2)
    assert r.verdict == NO_PREDICTOR
    assert r.computed.positive() == {0: 3, 1: 1, 2: 3}


def test_verify_predictor_inconsistent():
    r = verify_with_context(get_ctx(3, 4), 78, 2)
    assert r.verdict == PREDICTOR_INCONSISTENT
    assert r.computed.positive() == {0: 50, 1: 1, 2: 21, 4: 8, 6: 1}
    assert not r.predictions[0].consistent


def test_verify_eq2_skipped_over_budget():
    r = verify_with_context(get_ctx(3, 4), 78, 2, n4_budget=0)
    assert r.eq2_ok is None and r.n4 is None


def test_verify_deterministic():
    a = verify_with_context(build_context(FieldSpec(5, 2)), 11, 4)
    b = verify_with_context(build_context(FieldSpec(5, 2)), 11, 4)
    assert a.as_dict() == b.as_dict()


def test_verify_match_invariant_under_modulus_change():
    alt = find_irreducible(3, 2, 1)
    r0 = verify_with_context(get_ctx(3, 2), 6, 2)
    r1 = verify_with_context(get_ctx(3, 2, alt), 6, 2)
    assert r0.verdict == r1.verdict == MATCH
    assert r0.computed.omega == r1.computed.omega


def _named_exponents(p, n):
    """inv, plus3half, minus3, minus3half and pk1half for every k <= 2n."""
    q = p ** n
    named = [q - 2, (q + 3) // 2, q - 3, (q - 3) // 2]
    named += [(p ** k + 1) // 2 for k in range(1, 2 * n + 1)]
    return sorted({normalize_exponent(e, q) for e in named if e >= 1})


def _pk1_k(report):
    return next((dict(pr.conditions)["k"] for pr in report.predictions
                 if pr.theorem in (TheoremId.PK1_HALF_1MOD4, TheoremId.PK1_HALF_3MOD4)), None)


def _without_k(report):
    out = []
    for pr in report.predictions:
        entry = pr.as_dict()
        entry["conditions"] = [kv for kv in entry["conditions"] if kv[0] != "k"]
        out.append(entry)
    return out


def test_dispatch_sees_whole_cyclotomic_classes():
    # x^d and x^(pd) have the same spectrum at every c, so each member of a
    # named exponent's class gets that exponent's verdict and predictions:
    # the inverse map at every c, the c = -1 families at c = -1.
    fields = [(p, n) for p in range(2, 128) if is_prime_trial(p)
              for n in range(2, 8) if p ** n <= 128]
    for p, n in fields:
        ctx = get_ctx(p, n)
        q = ctx.q
        ks = [k for k in range(1, 2 * n + 1, 2) if math.gcd(n, k) == 1]
        for e in _named_exponents(p, n):
            cs = range(q) if e == q - 2 else [ctx.neg_one]
            for c in (c for c in cs if c != 1):
                canon = verify_with_context(ctx, e, c, n4_budget=0)
                for m in sorted(PowerMap(ctx, e).members):
                    r = verify_with_context(ctx, m, c, n4_budget=0)
                    key = (p, n, e, m, c)
                    assert r.computed.omega == canon.computed.omega, key
                    assert r.verdict == canon.verdict, key
                    assert r.matched_theorem == canon.matched_theorem, key
                    assert _without_k(r) == _without_k(canon), key
                    # pk1half records a k matching d by residue when one exists
                    by_residue = [k for k in ks
                                  if normalize_exponent((p ** k + 1) // 2, q) == m]
                    if by_residue and _pk1_k(r) is not None:
                        assert _pk1_k(r) == by_residue[0], key


def test_dispatch_class_member_pins():
    # 77 = 79 * 3 mod 80: the inverse map's class over GF(81)
    for d in (79, 77, 71, 53):
        r = verify_with_context(get_ctx(3, 4), d, 5, n4_budget=0)
        assert (r.verdict, r.matched_theorem) == (MATCH, "INV_ODD"), d
    # {3, 15} over GF(25): 15 = (5^3+1)/2 mod 24 by residue, 3 = (5+1)/2
    assert _pk1_k(verify_with_context(get_ctx(5, 2), 15, 4)) == 3
    assert _pk1_k(verify_with_context(get_ctx(5, 2), 3, 4)) == 1


# ---------------------------------------------------------------------------
# sweep_c
# ---------------------------------------------------------------------------

def test_sweep_inverse_char2_all_match():
    result = sweep_c(get_ctx(2, 4), 14)
    assert len(result.reports) == 15  # c = 1 excluded
    by_c = {r.c: r for r in result.reports}
    assert by_c[0].verdict == NO_PREDICTOR  # c = 0: PcN, no spectrum theorem
    assert by_c[0].computed.uniformity == 1
    for c, r in by_c.items():
        if c != 0:
            assert r.verdict == MATCH, (c, r.verdict)
    # all three trace-case shapes occur across the sweep
    shapes = {tuple(sorted(r.computed.positive().items())) for r in result.reports if r.c}
    assert len(shapes) == 3


def test_sweep_gf5_d3():
    result = sweep_c(get_ctx(5, 1), 3)
    by_c = {r.c: r for r in result.reports}
    assert by_c[0].computed.uniformity == 1  # PcN at c = 0
    assert result.tallies["pcn"] >= 1
    assert by_c[4].verdict == MATCH


def test_sweep_p3_plus3_other_c_no_predictor():
    result = sweep_c(get_ctx(3, 2), 6)
    by_c = {r.c: r for r in result.reports}
    assert by_c[2].verdict == MATCH  # c = -1
    for c, r in by_c.items():
        if c != 2:
            assert r.verdict == NO_PREDICTOR


def _sweep_per_c(ctx, d, n4_budget):
    """Reference sweep document: verify_with_context on every c except 1,
    one by one."""
    reports = [verify_with_context(ctx, d, c, n4_budget=n4_budget)
               for c in range(ctx.q) if c != 1]
    tallies = {
        "pcn": sum(1 for r in reports if r.computed.uniformity == 1),
        "apcn": sum(1 for r in reports if r.computed.uniformity == 2),
        MATCH: sum(1 for r in reports if r.verdict == MATCH),
        MISMATCH: sum(1 for r in reports if r.verdict == MISMATCH),
        NO_PREDICTOR: sum(1 for r in reports if r.verdict == NO_PREDICTOR),
        PREDICTOR_INCONSISTENT: sum(
            1 for r in reports if r.verdict == PREDICTOR_INCONSISTENT
        ),
    }
    case = {"p": ctx.p, "n": ctx.n, "modulus": list(ctx.modulus),
            "d": normalize_exponent(d, ctx.q)}
    return {"case": case, "tallies": tallies, "reports": [r.as_dict() for r in reports]}


def _canonical(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _sweep_forms(doc):
    """The json, csv and text output of a sweep, written report by report
    from its document."""
    def eq(value):
        return "skipped" if value is None else str(value).lower()

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["p", "n", "modulus", "d", "c", "verdict", "uniformity",
                     "omega_json", "eq1", "eq2"])
    case = doc["case"]
    lines = [f"GF({case['p']}^{case['n']}) d = {case['d']}: "
             f"sweep over {len(doc['reports'])} c values",
             "tallies: " + ", ".join(f"{k}={v}" for k, v in doc["tallies"].items())]
    for r in doc["reports"]:
        c, u = r["case"]["c"], r["computed"]["uniformity"]
        omega = _canonical(r["computed"]["omega"])
        writer.writerow([case["p"], case["n"], ",".join(map(str, case["modulus"])), case["d"],
                         c, r["verdict"], u, omega, eq(r["eq1"]), eq(r["eq2"])])
        lines.append(f"  c={c}: {r['verdict']}, uniformity={u}, {omega}")
    return {"json": _canonical(doc) + "\n", "csv": buf.getvalue(), "text": "\n".join(lines) + "\n"}


_PARSER = cli.make_parser()


def _cli_out(argv):
    """The stdout of a CLI subcommand, its argv parsed by one shared parser."""
    args = _PARSER.parse_args(argv)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        args.func(args)
    return buf.getvalue()


def _assert_orbit_sweep_matches(ctx, d, n4_budget):
    """sweep_c's document, and up to q = 243 the CLI's bytes in every
    format, equal those built from the per-c reference."""
    expected = _sweep_per_c(ctx, d, n4_budget)
    result = sweep_c(ctx, d, n4_budget=n4_budget)
    assert result.as_dict() == expected, (ctx, d, n4_budget)
    if ctx.q > 243:
        return
    argv = ["sweep", "--field", f"{ctx.p}^{ctx.n}", "--d", str(d),
            "--budget-n4", str(n4_budget), "--format"]
    asked = []

    def same_sweep(cli_ctx, cli_d, *, n4_budget):
        # the CLI renders the sweep just checked, so each form costs no sweep
        asked.append((cli_ctx.modulus, cli_d, n4_budget))
        return result

    with mock.patch.object(verifier, "sweep_c", same_sweep):
        for fmt, text in _sweep_forms(expected).items():
            assert _cli_out(argv + [fmt]) == text, (ctx, d, n4_budget, fmt)
    assert asked == [(ctx.modulus, d, n4_budget)] * 3


_SWEEP_FIELDS = [(2, n) for n in range(1, 10)] + odd_fields(0, 729)


@pytest.mark.parametrize("p,n", _SWEEP_FIELDS, ids=[f"{p}^{n}" for p, n in _SWEEP_FIELDS])
def test_orbit_sweep_matches_per_c_sweep(p, n):
    """sweep_c shares one verify per Frobenius orbit of c; the per-c loop
    must give the same document, GF(2) and GF(3) included."""
    ctx = get_ctx(p, n)
    q = ctx.q
    # q - 1 has a prime factor r, so d = r has gcd(d, q - 1) > 1 (q > 2)
    r = next((f for f in range(2, q) if (q - 1) % f == 0), 1)
    for d in sorted({max(q - 2, 1), 1, q - 1, r}):
        _assert_orbit_sweep_matches(ctx, d, 0)
        if q <= 81:
            _assert_orbit_sweep_matches(ctx, d, 625)


@pytest.mark.parametrize("p,n,seed", [(3, 8, 11), (2, 12, 12)])
def test_orbit_sweep_matches_per_c_sweep_seeded_d(p, n, seed):
    ctx = get_ctx(p, n)
    d = 1 + SplitMix64(seed).below(ctx.q - 1)
    _assert_orbit_sweep_matches(ctx, d, 0)


def test_sweep_reports_share_no_mutable_state():
    ctx = get_ctx(3, 4)
    result = sweep_c(ctx, ctx.q - 2, n4_budget=0)
    by_c = {r.c: r for r in result.reports}
    x = 3  # the element X, digits (0, 1)
    orbit = [ctx.pow(x, 3 ** i) for i in range(4)]  # X, X^3, X^9, X^27
    assert len(set(orbit)) == 4
    first = by_c[orbit[0]]
    for c in orbit[1:]:
        other = by_c[c]
        assert other.as_dict()["computed"]["omega"] == first.as_dict()["computed"]["omega"]
        assert other.predictions == first.predictions
        assert other.predictions is not first.predictions
        assert other.computed is not first.computed
        assert other.computed.omega is not first.computed.omega
    first.predictions.clear()
    first.computed.omega.clear()
    assert by_c[orbit[1]].predictions and by_c[orbit[1]].computed.omega


def test_sweep_state_cannot_be_edited_through_its_reports(monkeypatch):
    """Each access to reports hands out fresh copies: clearing their omega
    and predictions changes neither as_dict() nor the rendered bytes."""
    ctx = get_ctx(3, 4)
    result = sweep_c(ctx, ctx.q - 2, n4_budget=0)
    monkeypatch.setattr(verifier, "sweep_c", lambda *args, **kwargs: result)
    argv = ["sweep", "--field", "3^4", "--d", "inv", "--budget-n4", "0", "--format"]

    def snapshot():
        return result.as_dict(), [_cli_out(argv + [fmt]) for fmt in ("json", "csv", "text")]

    before = snapshot()
    assert before[0]["reports"][5]["computed"]["omega"] and before[0]["reports"][5]["predictions"]
    result.reports[5].computed.omega.clear()
    result.reports[5].predictions.clear()
    for r in result.reports:
        r.computed.omega.clear()
        r.predictions.clear()
    assert snapshot() == before


def _assert_inverse_orbit_dispatched(ctx, theorem, names, key):
    """For the first c with key(c) = (a, b), a != b: c and 1/c share omega
    but not the omega dict, and inversion swaps the two conditions."""
    c = next(c for c in range(2, ctx.q) if len(set(key(c))) == 2)
    assert ctx.inv(c) not in {ctx.pow(c, ctx.p ** i) for i in range(ctx.n)}
    result = sweep_c(ctx, ctx.q - 2, n4_budget=0)
    by_c = {r.c: r for r in result.reports}
    rep, inv_rep = by_c[c], by_c[ctx.inv(c)]
    assert rep.computed.omega == inv_rep.computed.omega
    assert rep.computed.omega is not inv_rep.computed.omega
    a, b = key(c)
    for r, expected in ((rep, (a, b)), (inv_rep, (b, a))):
        (pred,) = [pr for pr in r.predictions if pr.theorem == theorem]
        conditions = dict(pred.conditions)
        assert (conditions[names[0]], conditions[names[1]]) == expected, r.c
        assert r.verdict == MATCH and r.matched_theorem == theorem.value
        doc = r.as_dict()
        assert doc["computed"] == r.computed.as_dict()
        assert doc["predictions"] == [pr.as_dict() for pr in r.predictions]
        assert doc in result.as_dict()["reports"]


def test_sweep_dispatches_the_inverse_orbit_odd():
    ctx = get_ctx(3, 4)
    four = 4 % ctx.p

    def chis(c):
        return (ctx.chi(ctx.sub(ctx.mul(c, c), ctx.mul(four, c))),
                ctx.chi(ctx.sub(1, ctx.mul(four, c))))

    _assert_inverse_orbit_dispatched(ctx, TheoremId.INV_ODD, ("chi_c2_4c", "chi_1_4c"), chis)


def test_sweep_dispatches_the_inverse_orbit_char2():
    ctx = get_ctx(2, 5)
    _assert_inverse_orbit_dispatched(ctx, TheoremId.INV_CHAR2, ("tr_c", "tr_c_inv"),
                                     lambda c: (ctx.trace(c), ctx.trace(ctx.inv(c))))


def test_sweep_reports_the_reduced_exponent():
    result = sweep_c(get_ctx(3, 2), 6 + 8, n4_budget=0)
    assert result.d == 6 and {r.d for r in result.reports} == {6}
    assert sweep_c(get_ctx(2, 1), 5).d == 1
    with pytest.raises(ValueError):
        sweep_c(get_ctx(3, 2), 0)


_WORK_FIELDS = [(2, 5), (2, 6), (3, 1), (3, 4), (5, 3), (7, 2), (13, 2)]


@pytest.mark.parametrize("p,n", _WORK_FIELDS, ids=[f"{p}^{n}" for p, n in _WORK_FIELDS])
def test_sweep_computes_once_per_orbit(p, n, monkeypatch):
    """c = 0, then one spectrum per orbit of GF(q)* minus 1 under c -> c^p and
    c -> 1/c, and one dispatch and one stored report per distinct outcome
    (omega, N4, dispatch key) of verifying each c alone, and one identity
    check per outcome too: the bytes do not show whether a sweep shares a
    spectrum across inversion or a report across orbits, this does."""
    ctx = get_ctx(p, n)
    outcomes = set()
    for c in (0, *range(2, ctx.q)):
        rep = verify_with_context(ctx, ctx.q - 2, c, n4_budget=0)
        outcomes.add((tuple(rep.computed.omega.items()), rep.n4, dispatch_key(ctx, c)))
    calls = {"c_spectrum": 0, "check_identities": 0, "dispatch": 0, "VerifyReport": 0}
    for name in calls:
        def counted(*args, _fn=getattr(verifier, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(verifier, name, counted)
    sweep_c(ctx, ctx.q - 2, n4_budget=0)
    both = set()
    for c in range(2, ctx.q):
        orbit = frozenset(ctx.pow(c, p ** i) for i in range(n))
        both.add(orbit | {ctx.inv(x) for x in orbit})
    assert calls == {"c_spectrum": 1 + len(both), "check_identities": len(outcomes),
                     "dispatch": len(outcomes), "VerifyReport": len(outcomes)}


@pytest.mark.parametrize("p,n,block", [(2, 1, 1 << 16), (3, 1, 1 << 16), (2, 5, 7),
                                       (3, 4, 1 << 16), (3, 4, 2), (7, 2, 5)])
def test_sweep_owner_is_one_read_only_int32_array(p, n, block, monkeypatch):
    """owner[c] indexes the outcome that holds c and is -1 exactly at c = 1;
    members() reads it a block at a time, in ascending c, each other c once."""
    monkeypatch.setattr(verifier.SweepResult, "_BLOCK", block)
    ctx = get_ctx(p, n)
    result = sweep_c(ctx, max(ctx.q - 2, 1), n4_budget=0)
    assert [f.name for f in dataclasses.fields(result)] == \
        ["p", "n", "modulus", "d", "outcomes", "owner"]
    owner = result.owner
    assert owner.dtype == np.int32 and owner.shape == (ctx.q,) and not owner.flags.writeable
    with pytest.raises(ValueError):
        owner[0] = 0
    assert np.flatnonzero(owner == -1).tolist() == [1] and owner.min() == -1
    members = result.members()
    assert iter(members) is members  # an iterator, not a list
    members = list(members)
    assert [c for c, _ in members] == [c for c in range(ctx.q) if c != 1]
    assert all(type(c) is int and type(i) is int and i == owner[c] for c, i in members)
    assert {i for _, i in members} == set(range(len(result.outcomes)))
    assert [r.c for r in result.reports] == [c for c, _ in members]


def test_sweep_reports_shared_across_orbits_stay_apart(monkeypatch):
    """At 3^5 Frobenius orbits of one outcome share one stored report: the
    per-c reports and documents of its c are still apart, and editing them
    changes neither the sweep nor its bytes."""
    ctx = get_ctx(3, 5)
    result = sweep_c(ctx, ctx.q - 2, n4_budget=0)
    # each Frobenius orbit of c by its least member, c = 0 its own
    orbits = {0} | {min(ctx.pow(c, 3 ** k) for k in range(5)) for c in range(2, ctx.q)}
    shared = Counter(int(result.owner[c]) for c in orbits)
    i, orbit_count = shared.most_common(1)[0]
    assert orbit_count >= 2 and len(result.outcomes) < len(orbits)
    cs = sorted(c for c in orbits if result.owner[c] == i)
    monkeypatch.setattr(verifier, "sweep_c", lambda *args, **kwargs: result)
    argv = ["sweep", "--field", "3^5", "--d", "inv", "--budget-n4", "0", "--format"]

    def snapshot():
        return result.as_dict(), [_cli_out(argv + [fmt]) for fmt in ("json", "csv", "text")]

    before = snapshot()
    by_c = {r.c: r for r in result.reports}
    edited = by_c[cs[0]].predictions[0]
    edited.omega[0] = -999
    edited.conditions.append(("edited", True))
    assert all(by_c[c].predictions[0].omega[0] != -999
               and ("edited", True) not in by_c[c].predictions[0].conditions for c in cs[1:])
    by_c[cs[0]].predictions.clear()
    by_c[cs[0]].computed.omega.clear()
    assert all(by_c[c].predictions and by_c[c].computed.omega for c in cs[1:])
    rows = {row["case"]["c"]: row for row in result.as_dict()["reports"]}
    rows[cs[0]]["case"]["c"] = rows[cs[0]]["computed"]["c"] = -5
    rows[cs[0]]["verdict"] = "EDITED"
    assert all(rows[c]["case"]["c"] == rows[c]["computed"]["c"] == c
               and rows[c]["verdict"] != "EDITED" for c in cs[1:])
    rows[cs[1]]["predictions"].clear()  # shared by the document's rows of one outcome
    assert snapshot() == before


# ---------------------------------------------------------------------------
# scan_exponents
# ---------------------------------------------------------------------------

def test_cyclotomic_representatives_dedup():
    reps = [members[0] for members in cyclotomic_classes(5, 25)]
    assert reps == sorted(reps)
    seen = set()
    for d in reps:
        orbit = {d % 24 or 24}
        cur = (d * 5) % 24
        while (cur or 24) not in orbit:
            orbit.add(cur or 24)
            cur = (cur * 5) % 24
        assert not (orbit & seen)
        seen |= orbit
    assert seen == set(range(1, 25))


def test_cyclotomic_classes_partition_the_exponents():
    for p, n in ((2, 1), (2, 4), (3, 3), (5, 2), (7, 2)):
        q = p ** n
        classes = list(cyclotomic_classes(p, q))
        reps = [m[0] for m in classes]
        assert reps == sorted(reps)
        assert all(m == sorted(PowerMap(get_ctx(p, n), m[0]).members) for m in classes)
        assert sorted(d for m in classes for d in m) == list(range(1, q))


def test_power_map_members_are_the_class_of_cyclotomic_classes():
    """PowerMap.members, the closed form {d * p^i mod (q-1)}, against the
    orbit walk of cyclotomic_classes, for every d of every field q <= 729."""
    fields = [(p, n) for p in range(2, 730) if is_prime_trial(p)
              for n in range(1, 10) if p ** n <= 729]
    for p, n in fields:
        ctx = get_ctx(p, n)
        class_of = {d: m for m in cyclotomic_classes(p, ctx.q) for d in m}
        for d in range(1, ctx.q):
            assert sorted(PowerMap(ctx, d).members) == class_of[d], (p, n, d)


def test_scan_gf25_includes_table_rows():
    # d = 11 = (25-3)/2 sits in the class {7, 11}; its smallest member is
    # retained.  d = 3 = (5+1)/2 is (c,3)-uniform here, so it shows up once
    # the threshold admits uniformity 3.
    result = scan_exponents(get_ctx(5, 2), 4, 2)
    classes = [row["class"] for row in result.rows]
    assert [7, 11] in classes
    assert all(row["uniformity"] <= 2 for row in result.rows)
    wider = scan_exponents(get_ctx(5, 2), 4, 3)
    by_d = {row["d"]: row for row in wider.rows}
    assert 3 in by_d and by_d[3]["omega"] == {"0": 8, "1": 12, "2": 2, "3": 3}
    assert by_d[7]["omega"] == {"0": 8, "1": 9, "2": 8}


def test_scan_pcn_rows_are_bijections():
    result = scan_exponents(get_ctx(3, 2), 2, 1)
    assert result.rows
    for row in result.rows:
        assert row["omega"]["1"] == 9


def test_sweep_and_scan_take_the_field_from_the_context():
    ctx = get_ctx(5, 2)
    sweep = sweep_c(ctx, 6)
    assert (sweep.p, sweep.n, sweep.modulus) == (5, 2, ctx.modulus)
    assert len(sweep.reports) == 24
    scan = scan_exponents(ctx, 4, 2)
    assert (scan.p, scan.n, scan.modulus) == (5, 2, ctx.modulus)
    for row in scan.rows:  # classes are orbits under d -> 5d mod 24
        assert row["class"] == sorted({row["d"] * 5 ** i % 24 or 24 for i in range(2)})


def test_scan_never_reports_two_members_of_a_class():
    result = scan_exponents(get_ctx(5, 2), 4, 25)  # everything passes the threshold
    ds = [row["d"] for row in result.rows]
    for d in ds:
        assert (d * 5) % 24 not in ds or (d * 5) % 24 == d


_SCAN_FIELDS = [(2, 12), (3, 8), (7, 4), (2, 14)]


@pytest.mark.parametrize("p,n", _SCAN_FIELDS, ids=[f"{p}^{n}" for p, n in _SCAN_FIELDS])
def test_scan_matches_one_spectrum_per_class(p, n):
    """A scan's rows equal full spectra of every class filtered by the bound,
    with no class tested on a sample.  U = 1 and 2 run the sample on these
    fields and reject classes with it; U = 3 is too large for it there."""
    ctx = get_ctx(p, n)
    q = ctx.q
    rng = SplitMix64(q)
    for c in (0, ctx.neg_one, 2 + rng.below(q - 2), 2 + rng.below(q - 2)):
        spectra = [(members, c_spectrum(PowerMapCase(PowerMap(ctx, members[0]), c)))
                   for members in cyclotomic_classes(p, q)]
        for bound in (1, 2, 3):
            want = [{"d": m[0], "class": m, "uniformity": s.uniformity, "omega": omega_doc(s.omega)}
                    for m, s in spectra if s.uniformity <= bound]
            with mock.patch.object(verifier, "c_spectrum", wraps=c_spectrum) as spy:
                assert scan_exponents(ctx, c, bound).rows == want, (p, n, c, bound)
            sample = verifier._scan_sample(ctx, bound)
            assert (sample is None) == (bound == 3), (p, n, bound)
            ruled_out = ([False] * len(spectra) if sample is None
                         else sample.exceeds([m[0] for m, _ in spectra], c, bound))
            rejected = [s.uniformity for (m, s), out in zip(spectra, ruled_out) if out]
            assert spy.call_count == len(spectra) - len(rejected), (p, n, c, bound)
            if sample is not None:
                assert rejected and min(rejected) > bound, (p, n, c, bound)


def test_scan_reads_the_classes_a_block_at_a_time(monkeypatch):
    """The sample tests a block of representatives per call, and a scan
    draws each block from cyclotomic_classes only when it tests it: it
    never lists every class, and its rows do not change."""
    ctx = get_ctx(2, 14)
    drawn, blocks = [0], []

    def counted(p, q):
        for members in cyclotomic_classes(p, q):
            drawn[0] += 1
            yield members

    exceeds = verifier.DeltaSample.exceeds

    def recorded(self, ds, c, bound):
        blocks.append((drawn[0], len(ds)))
        return exceeds(self, ds, c, bound)

    want = scan_exponents(ctx, 3, 2).rows
    monkeypatch.setattr(verifier, "cyclotomic_classes", counted)
    monkeypatch.setattr(verifier.DeltaSample, "exceeds", recorded)
    assert scan_exponents(ctx, 3, 2).rows == want
    size = verifier._SAMPLE_BLOCK // len(verifier._scan_sample(ctx, 2).x)
    assert len(blocks) > 1 and drawn[0] == sum(n for _, n in blocks)
    assert all(n == size for _, n in blocks[:-1]) and 1 <= blocks[-1][1] <= size
    assert [at for at, _ in blocks] == [min(drawn[0], size * k) for k in range(1, len(blocks) + 1)]


def test_scan_sample_size_follows_q_and_the_bound():
    """m is the least sample whose expected count of (U+1)-fold collisions
    under a random map, m^(U+1) / ((U+1)! q^U), reaches the constant."""
    for (p, n), bound in (((2, 12), 1), ((2, 14), 1), ((2, 14), 2), ((3, 8), 2), ((7, 4), 2),
                          ((2, 16), 3)):
        ctx = get_ctx(p, n)
        m = len(verifier._scan_sample(ctx, bound).x)
        expected = lambda m: m ** (bound + 1) / (math.factorial(bound + 1) * ctx.q ** bound)
        assert expected(m - 1) < verifier._SAMPLE_COLLISIONS <= expected(m), (p, n, bound)
    assert verifier._scan_sample(get_ctx(2, 14), 2).x.tolist() == list(range(2, 2007))  # -1 = 1
    assert verifier._scan_sample(get_ctx(3, 8), 2).x.tolist()[:4] == [1, 3, 4, 5]  # -1 = 2
    for bound in (3, 4096, 10 ** 400):
        assert verifier._scan_sample(get_ctx(2, 14), bound) is None
    for bound in (-1, -(10 ** 400)):  # sized as U = 0
        assert verifier._scan_sample(get_ctx(2, 14), bound).x.tolist() == [2, 3, 4, 5, 6]
    assert scan_exponents(get_ctx(2, 5), 3, 10 ** 400).rows  # every class passes


def test_scan_below_uniformity_one_builds_no_power_map(monkeypatch):
    """Every uniformity is at least 1, so at U = -1 the sample rules out every
    class and no PowerMap, table or spectrum is built."""
    def refuse(*args):
        raise AssertionError("PowerMap built")

    monkeypatch.setattr(verifier, "PowerMap", refuse)
    ctx = get_ctx(2, 12)
    for c in (0, 1, 2, ctx.q - 1):
        assert scan_exponents(ctx, c, -1).rows == []


# ---------------------------------------------------------------------------
# fuzz_identities
# ---------------------------------------------------------------------------

def test_fuzz_small_run_passes():
    report = fuzz_identities(seed=1, count=25, budget=125)
    assert report.all_ok
    assert len(report.cases) == 25


def test_fuzz_deterministic():
    a = fuzz_identities(seed=7, count=10, budget=49)
    b = fuzz_identities(seed=7, count=10, budget=49)
    assert a.cases == b.cases


def test_fuzz_budget_is_capped_at_the_n4_default():
    with pytest.raises(BudgetExceeded):
        fuzz_identities(seed=1, count=3, budget=DEFAULT_N4_BUDGET + 1)
    report = fuzz_identities(seed=1, count=3, budget=DEFAULT_N4_BUDGET)
    assert report.all_ok and report.budget == DEFAULT_N4_BUDGET


def test_fuzz_budget_below_4_is_malformed():
    # A malformed value, like a negative count, not an exceeded budget.
    for budget in (3, 0, -5):
        with pytest.raises(ValueError):
            fuzz_identities(seed=1, count=3, budget=budget)
    assert fuzz_identities(seed=1, count=3, budget=4).all_ok


def test_fuzz_respects_budget_and_c_ne_1():
    report = fuzz_identities(seed=3, count=40, budget=81)
    for case in report.cases:
        assert case["p"] ** case["n"] <= 81
        assert case["c"] != 1
        assert 1 <= case["d"] <= case["p"] ** case["n"] - 2
    # below 13 some primes have no field within the budget
    for budget in range(4, 14):
        for seed in (1, 2, 3):
            for case in fuzz_identities(seed=seed, count=12, budget=budget).cases:
                assert case["p"] ** case["n"] <= budget, (budget, seed, case)


def _fail_second_draw(monkeypatch):
    """Make the second of every three verifies report eq2 = False: the second
    draw of each three-case fuzz run."""
    real = verifier.verify_with_context
    draws = []

    def flaky(*args, **kwargs):
        rep = real(*args, **kwargs)
        draws.append(rep)
        if len(draws) % 3 == 2:
            rep.eq2_ok = False
        return rep

    monkeypatch.setattr(verifier, "verify_with_context", flaky)


def test_fuzz_reports_a_failing_draw(monkeypatch, capsys):
    _fail_second_draw(monkeypatch)
    report = fuzz_identities(seed=1, count=3, budget=49)
    assert report.cases[1]["eq2"] is False
    assert report.failures == [report.cases[1]]
    assert report.all_ok is False
    assert report.as_dict()["passes"] == report.count - 1 == 2

    argv = ["fuzz", "--count", "3", "--budget-q", "49", "--format"]
    assert cli.main(argv + ["text"]) == cli.EXIT_MISMATCH
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith(": 2/3 passed")
    assert [line for line in lines if line.startswith("  FAIL ")] == [
        "  FAIL " + _canonical(report.cases[1])]
    assert cli.main(argv + ["json"]) == cli.EXIT_MISMATCH
    doc = json.loads(capsys.readouterr().out)
    assert doc["failures"] == [doc["cases"][1]] == [report.cases[1]]
    assert cli.main(argv + ["csv"]) == cli.EXIT_MISMATCH
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [r["eq2"] for r in rows] == ["true", "false", "true"]


# ---------------------------------------------------------------------------
# One counting-identity check per spectrum
# ---------------------------------------------------------------------------

def _counted_identity_checks(monkeypatch) -> list:
    """Record each call of spectrum's counting_identity_errors, the check that
    check_identities and assert_counting_identity both run."""
    real, calls = spectrum.counting_identity_errors, []

    def counted(omega, q):
        calls.append(q)
        return real(omega, q)

    monkeypatch.setattr(spectrum, "counting_identity_errors", counted)
    return calls


def _broken_spectrum(monkeypatch):
    """c_spectrum as the verifier sees it, with one b moved from omega_0 to
    omega_1: sum(omega) still equals q, but sum(i*omega) does not."""
    real = verifier.c_spectrum

    def broken(case):
        spec = real(case)
        omega = dict(spec.omega)
        omega[0] -= 1
        omega[1] = omega.get(1, 0) + 1
        return dataclasses.replace(spec, omega=omega)

    monkeypatch.setattr(verifier, "c_spectrum", broken)


def test_fuzz_checks_each_spectrum_once(monkeypatch):
    calls = _counted_identity_checks(monkeypatch)
    report = fuzz_identities(seed=1, count=20, budget=125)
    assert report.all_ok and len(calls) == 20


def test_scan_checks_each_spectrum_once(monkeypatch):
    ctx = get_ctx(3, 3)
    calls = _counted_identity_checks(monkeypatch)
    built = []
    real = verifier.c_spectrum
    monkeypatch.setattr(verifier, "c_spectrum", lambda case: built.append(1) or real(case))
    scan_exponents(ctx, 2, 2)
    assert built and len(calls) == len(built)


def test_verify_reports_a_failed_counting_identity(monkeypatch):
    _broken_spectrum(monkeypatch)
    report = verify_with_context(get_ctx(3, 3), 25, 2)
    assert report.eq1_ok is False
    assert report.as_dict()["eq1"] is False


def test_scan_raises_on_a_failed_counting_identity(monkeypatch):
    _broken_spectrum(monkeypatch)
    with pytest.raises(AssertionError, match="counting identity"):
        scan_exponents(get_ctx(3, 3), 2, 27)
