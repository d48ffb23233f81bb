"""Acceptance suite: every criterion is exact (zero tolerance) and prints one
PASS/FAIL line.  Run with -s to see the lines and timings."""

import math
import time
from collections import Counter

import numpy as np

from cdspec import (
    FieldSpec,
    PowerMap,
    PowerMapCase,
    build_context,
    c_spectrum,
    char_sum_quadratic,
    find_irreducible,
    fuzz_identities,
    gamma_5n_closed,
    gamma_5n_direct,
    gcd_pk1,
    n4_bruteforce,
    n4_closed_5n,
    predict_3n_minus3,
    predict_3n_plus3_half,
    predict_5n_minus3_half,
    predict_inverse_char2,
    predict_inverse_odd,
    predict_pk1_half,
    quadratic_solution_count,
    verify_with_context,
)
from cdspec.verifier import PREDICTOR_INCONSISTENT, SplitMix64

from conftest import get_ctx


def _report(name: str, started: float, ok: bool = True, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} {name} ({time.perf_counter() - started:.2f}s)"
          + (f" -- {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def _brute(ctx, d, c):
    return c_spectrum(PowerMapCase(PowerMap(ctx, d), c)).positive()


# ---------------------------------------------------------------------------
# 1. Inverse over GF(2^n), all c outside {0, 1}
# ---------------------------------------------------------------------------

def test_criterion_1_inverse_char2():
    started = time.perf_counter()
    for n in range(3, 11):
        ctx = get_ctx(2, n)
        d = ctx.q - 2
        powd = ctx.pow_table(d)
        shifted = powd[ctx.succ]
        for c in range(2, ctx.q):
            delta = ctx.vec_sub(shifted, ctx.vec_scale(powd, c))
            hist = np.bincount(delta, minlength=ctx.q)
            counts = np.bincount(hist)
            brute = {i: int(w) for i, w in enumerate(counts) if w and i}
            brute[0] = int(counts[0])
            pred = predict_inverse_char2(n, ctx.trace(c), ctx.trace(ctx.inv(c)))
            assert pred.consistent
            assert pred.positive() == {i: w for i, w in brute.items() if w}, (n, c)
    _report("criterion-1 inverse over GF(2^n), n=3..10, every c", started)


# ---------------------------------------------------------------------------
# 2. Inverse over GF(p^n), p odd
# ---------------------------------------------------------------------------

_ODD_INVERSE_FIELDS = [(5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (5, 2), (3, 3),
                       (7, 2), (11, 2), (5, 3), (13, 2), (7, 3)]


def _odd_inverse_sweep():
    """Brute spectra of x^(q-2) for every c != 0, 1 over the criterion fields."""
    for p, n in _ODD_INVERSE_FIELDS:
        ctx = get_ctx(p, n)
        q = ctx.q
        four = 4 % p
        four_inv = pow(four, p - 2, p)
        powd = ctx.pow_table(q - 2)
        shifted = powd[ctx.succ]
        for c in range(2, q):
            delta = ctx.vec_sub(shifted, ctx.vec_scale(powd, c))
            hist = np.bincount(delta, minlength=q)
            counts = np.bincount(hist)
            brute = {i: int(w) for i, w in enumerate(counts) if w}
            yield ctx, c, c in (four, four_inv), brute


def test_criterion_2_inverse_odd_six_cases():
    started = time.perf_counter()
    for ctx, c, excluded, brute in _odd_inverse_sweep():
        if excluded:
            continue
        four = 4 % ctx.p
        chi1 = ctx.chi(ctx.sub(ctx.mul(c, c), ctx.mul(four, c)))
        chi2 = ctx.chi(ctx.sub(1, ctx.mul(four, c)))
        pred = predict_inverse_odd(ctx.q, chi1, chi2, ctx.chi(c))
        assert pred.consistent, (ctx.q, c)
        assert pred.positive() == brute, (ctx.q, c)
    _report("criterion-2 inverse over odd GF(p^n), six-case table, every c", started)


# Spectrum of x^(q-2) at c in {4, 1/4}, keyed by chi(-15) (0 when p = 5,
# where 4 = 1/4 = -1).
_C4_SPECTRA = {
    -1: lambda q: {0: (q - 3) // 2, 1: 3, 2: (q - 3) // 2},
    1: lambda q: {0: (q - 1) // 2, 1: 2, 2: (q - 5) // 2, 3: 1},
    0: lambda q: {0: (q - 1) // 2, 1: 1, 2: (q - 1) // 2},
}


def _inverse_spectrum_by_roots(ctx, c):
    """Spectrum of x^(q-2) from per-b quadratic root counts (scalar arithmetic).

    x = 0 maps to 1 and x = -1 maps to c; for any other x, Delta_c(x) = b is
    b*x^2 + (b+c-1)*x + c = 0, which has no root in {0, -1}.  For b = 0 that
    is linear with the single root c/(1-c)."""
    delta = [1]
    for b in range(1, ctx.q):
        b_inv = ctx.inv(b)
        a1 = ctx.mul(ctx.sub(ctx.add(b, c), 1), b_inv)
        a0 = ctx.mul(c, b_inv)
        delta.append((b == 1) + (b == c) + quadratic_solution_count(ctx, a1, a0))
    return dict(Counter(delta))


def test_criterion_2_inverse_odd_c4_uniformity_as_stated():
    # The published claim: for c in {4, 1/4}, the values the six-case table
    # excludes, the inverse map is APcN.  By the root count above,
    #   delta(1) = 1 + #roots(x^2 + c*x + c),         discriminant c^2 - 4c,
    #   delta(c) = 1 + #roots(c*x^2 + (2c-1)*x + c),  discriminant 1 - 4c,
    # and every other delta(b) is at most 2.  At c = 4 the first discriminant
    # is 0 and the second is -15; at c = 1/4 the second is 0 and the first is
    # -15/16.  So the uniformity is 3 exactly when chi(-15) = +1 and 2
    # otherwise (p = 5 gives chi(-15) = 0).  This test asserts where the claim
    # holds and where it is refuted (q = 49, 121, 169 in this field list);
    # the PASS line lists the refuting (q, c, uniformity) triples.
    started = time.perf_counter()
    refuted, chi_plus = [], set()
    for ctx, c, excluded, brute in _odd_inverse_sweep():
        if not excluded:
            continue
        q = ctx.q
        assert _inverse_spectrum_by_roots(ctx, c) == brute, (q, c)
        chi_m15 = ctx.chi(ctx.neg(15 % ctx.p))
        assert brute == _C4_SPECTRA[chi_m15](q), (q, c, chi_m15)
        if max(brute) != 2:
            refuted.append((q, c, max(brute)))
        if chi_m15 == 1:
            chi_plus.add((q, c))
    assert {(q, c) for q, c, _ in refuted} == chi_plus
    assert all(u == 3 for _, _, u in refuted), refuted

    # Hand counterexample over GF(49), c = 2 = 1/4: x = 0 and x = -1 +/- i
    # (i^2 = -1) all map to 1.
    ctx = get_ctx(7, 2)
    c = 2
    assert ctx.mul(4, c) == 1
    i = next(x for x in range(ctx.q) if ctx.mul(x, x) == ctx.neg_one)
    d = ctx.q - 2
    ones = {x for x in range(ctx.q)
            if ctx.sub(ctx.pow(ctx.add(x, 1), d), ctx.mul(c, ctx.pow(x, d))) == 1}
    assert ones == {0, ctx.sub(i, 1), ctx.sub(ctx.neg(i), 1)}

    _report(
        "criterion-2 uniformity 2 at c in {4, 1/4} (claim under test)",
        started,
        detail=f"enumeration refutes the APcN claim at (q, c, uniformity) = {refuted}",
    )


# ---------------------------------------------------------------------------
# 3. x^((3^n + 3)/2), c = -1
# ---------------------------------------------------------------------------

def test_criterion_3_plus3_half():
    started = time.perf_counter()
    for n in (2, 4, 6):
        ctx = get_ctx(3, n)
        q = ctx.q
        pred = predict_3n_plus3_half(n)
        assert pred.consistent
        expected = {0: (q - 1) // 2, 1: 1, 2: (q - 1) // 2}
        assert pred.positive() == expected
        assert _brute(ctx, (q + 3) // 2, ctx.neg_one) == expected, n
    _report("criterion-3 x^((3^n+3)/2) with c=-1, n in {2,4,6}", started)


# ---------------------------------------------------------------------------
# 4. x^(3^n - 3), c = -1
# ---------------------------------------------------------------------------

def test_criterion_4_minus3():
    started = time.perf_counter()
    for n in (2, 3, 5, 6):
        ctx = get_ctx(3, n)
        pred = predict_3n_minus3(n)
        assert pred.consistent
        assert _brute(ctx, ctx.q - 3, ctx.neg_one) == pred.positive(), n
    # n = 4: the printed omega_0 is non-integral; the verifier must flag it
    # and the enumerated spectrum resolves omega_0 empirically.
    q = 81
    report = verify_with_context(get_ctx(3, 4), q - 3, 2)
    assert report.verdict == PREDICTOR_INCONSISTENT
    brute = report.computed.positive()
    assert brute[1] == 1
    assert brute[2] == (q + 3) // 4
    assert brute[4] == (q - 17) // 8
    assert brute[6] == 1
    assert brute[0] == (5 * q - 5) // 8  # empirical resolution: 50, not 402/8
    assert not report.predictions[0].consistent
    assert "50" in report.predictions[0].notes
    _report("criterion-4 x^(3^n-3) with c=-1, n in {2,3,5,6} + n=4 repair", started)


# ---------------------------------------------------------------------------
# 5. x^((p^k + 1)/2), c = -1
# ---------------------------------------------------------------------------

def test_criterion_5_pk1_half():
    started = time.perf_counter()
    for p, n, k in [(5, 1, 1), (5, 2, 1), (5, 3, 1), (13, 1, 1), (13, 2, 1),
                    (11, 1, 1), (11, 2, 1), (19, 1, 1)]:
        ctx = get_ctx(p, n)
        d = (p ** k + 1) // 2
        pred = predict_pk1_half(p, n, k)
        assert pred.consistent, (p, n, k)
        assert _brute(ctx, d, ctx.neg_one) == pred.positive(), (p, n, k)
    _report("criterion-5 x^((p^k+1)/2) with c=-1, both p mod 4 variants", started)


# ---------------------------------------------------------------------------
# 6. x^((5^n - 3)/2), c = -1, with the cubic character sum
# ---------------------------------------------------------------------------

def test_criterion_6_quintic_family():
    started = time.perf_counter()
    for n in (1, 2, 3, 4):
        ctx = get_ctx(5, n)
        d = (ctx.q - 3) // 2
        pred = predict_5n_minus3_half(n)
        assert pred.consistent
        assert _brute(ctx, d, ctx.neg_one) == pred.positive(), n
    for n in range(1, 9):
        assert gamma_5n_closed(n) == gamma_5n_direct(get_ctx(5, n)), n
    for n, expected in ((1, 25), (2, 1009)):
        ctx = get_ctx(5, n)
        d = (ctx.q - 3) // 2
        assert n4_closed_5n(n) == expected
        assert n4_bruteforce(PowerMapCase(PowerMap(ctx, d), ctx.neg_one)) == expected, n
    _report("criterion-6 x^((5^n-3)/2) spectra, gamma closed=direct, N4 checks", started)


# ---------------------------------------------------------------------------
# 7. Identity fuzzing
# ---------------------------------------------------------------------------

def test_criterion_7_identity_fuzz():
    started = time.perf_counter()
    report = fuzz_identities(seed=1, count=100, budget=343)
    assert report.all_ok, report.failures
    assert report.has_char2_case
    assert report.has_gcd_gt1_case
    _report("criterion-7 100 seeded identity checks (eq1 + eq2 via N4)", started)


# ---------------------------------------------------------------------------
# 8. Basis independence
# ---------------------------------------------------------------------------

_BASIS_FIELDS = [(2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3),
                 (7, 2), (11, 2), (13, 2)]


def test_criterion_8_basis_independence():
    started = time.perf_counter()
    rng = SplitMix64(8)
    pairs = {}
    for _ in range(20):
        p, n = _BASIS_FIELDS[rng.below(len(_BASIS_FIELDS))]
        key = (p, n)
        if key not in pairs:
            a = get_ctx(p, n)
            alt = find_irreducible(p, n, 1)
            assert alt != a.modulus
            pairs[key] = (a, build_context(FieldSpec(p, n, alt)))
        ctx_a, ctx_b = pairs[key]
        q = p ** n
        d = 1 + rng.below(q - 2)
        u = rng.below(p - 1)
        c = u if u == 0 else u + 1  # prime-subfield constant, c != 1
        spec_a = c_spectrum(PowerMapCase(PowerMap(ctx_a, d), c))
        spec_b = c_spectrum(PowerMapCase(PowerMap(ctx_b, d), c))
        assert spec_a.omega == spec_b.omega, (p, n, d, c)
    _report("criterion-8 20 seeded cases identical under two moduli", started)


# ---------------------------------------------------------------------------
# 9. Property suites
# ---------------------------------------------------------------------------

def test_criterion_9a_field_axioms_and_characters():
    started = time.perf_counter()
    rng = SplitMix64(90)
    for p, n in [(2, 5), (2, 8), (3, 3), (5, 2), (7, 2), (13, 1)]:
        ctx = get_ctx(p, n)
        assert np.array_equal(ctx.exp[ctx.log[1:]], np.arange(1, ctx.q))
        for _ in range(150):
            a, b, c = (rng.below(ctx.q) for _ in range(3))
            assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
            assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
            assert ctx.sub(ctx.add(a, b), b) == a
            if a:
                assert ctx.mul(a, ctx.inv(a)) == 1
                assert ctx.pow(a, ctx.q - 1) == 1
        if p != 2:
            for _ in range(150):
                a, b = rng.below(ctx.q), rng.below(ctx.q)
                assert ctx.chi(ctx.mul(a, b)) == ctx.chi(a) * ctx.chi(b)
            assert int(ctx.vec_chi(np.arange(ctx.q)).sum(dtype=np.int64)) == 0
    _report("criterion-9a field axioms, chi multiplicativity, exact balance", started)


def test_criterion_9b_gcd_lemma():
    started = time.perf_counter()
    for p in (2, 3, 5, 7, 11, 13):
        for k in range(1, 13):
            for n in range(1, 13):
                assert gcd_pk1(p, k, n) == math.gcd(p ** k + 1, p ** n - 1)
    _report("criterion-9b gcd(p^k+1, p^n-1) closed form vs Euclid", started)


def test_criterion_9c_quadratic_counts():
    started = time.perf_counter()
    for p, n in [(2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2),
                 (5, 3), (7, 1), (7, 2), (7, 3), (11, 1), (11, 2), (13, 1), (13, 2)]:
        ctx = get_ctx(p, n)
        X = np.arange(ctx.q, dtype=np.int64)
        sq = ctx.pow_table(2)
        for a in range(ctx.q):
            vals = ctx.vec_add(sq, ctx.vec_scale(X, a))
            counts = np.bincount(ctx.vec_sub(np.int64(0), vals), minlength=ctx.q)
            for b in range(ctx.q):
                assert quadratic_solution_count(ctx, a, b) == counts[b], (p, n, a, b)
    _report("criterion-9c quadratic root counts vs full enumeration, q <= 343", started)


def test_criterion_9d_char_sums():
    started = time.perf_counter()
    rng = SplitMix64(93)
    for p, n in [(5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (7, 2), (11, 2), (5, 3),
                 (13, 2), (7, 3), (7, 4)]:
        ctx = get_ctx(p, n)
        X = np.arange(ctx.q, dtype=np.int64)
        sq = ctx.pow_table(2)
        for _ in range(200):
            a2 = 1 + rng.below(ctx.q - 1)
            a1 = rng.below(ctx.q)
            a0 = rng.below(ctx.q)
            vals = ctx.vec_add(ctx.vec_add(ctx.vec_scale(sq, a2), ctx.vec_scale(X, a1)),
                               np.int64(a0))
            direct = int(ctx.vec_chi(vals).sum(dtype=np.int64))
            assert char_sum_quadratic(ctx, a2, a1, a0) == direct, (p, n, a2, a1, a0)
    _report("criterion-9d quadratic character sums closed form vs direct, q <= 2401",
            started)


def test_criterion_9e_nonsquare_shift_property():
    started = time.perf_counter()
    for n in (1, 2, 3):
        ctx = get_ctx(5, n)
        for b in range(2, ctx.q):
            if b == ctx.neg_one or ctx.chi(b) != -1:
                continue
            binv = ctx.inv(b)
            four = 4
            # x^2 + x - 1/b and y^2 + y + 1/b both solvable?
            d1 = ctx.add(1, ctx.mul(four, binv))
            d2 = ctx.sub(1, ctx.mul(four, binv))
            if ctx.chi(d1) == -1 or ctx.chi(d2) == -1:
                continue
            a = ctx.sub(1, ctx.mul(2, binv))
            # roots of z^2 + a*z - 1/b by enumeration
            for z in range(ctx.q):
                if ctx.add(ctx.add(ctx.mul(z, z), ctx.mul(a, z)), ctx.neg(binv)) == 0:
                    assert ctx.chi(ctx.mul(z, ctx.add(z, 1))) == -1, (n, b, z)
    _report("criterion-9e nonsquare-shift character property over GF(5^n), n <= 3",
            started)


def test_criterion_9f_involution_parity():
    started = time.perf_counter()
    for p, n in [(3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (5, 2), (5, 3), (7, 2),
                 (7, 3), (11, 2), (13, 2)]:
        ctx = get_ctx(p, n)
        for d in (2, 4, 6, 10):
            case = PowerMapCase(PowerMap(ctx, d), ctx.neg_one)
            hist = case.delta_histogram()
            xf = ctx.neg(ctx.inv(2 % p))
            b_star = ctx.sub(ctx.pow(ctx.add(xf, 1), case.d),
                             ctx.mul(ctx.neg_one, ctx.pow(xf, case.d)))
            assert hist[b_star] % 2 == 1, (p, n, d)
            mask = np.ones(ctx.q, dtype=bool)
            mask[b_star] = False
            assert not np.any(hist[mask] % 2), (p, n, d)
    _report("criterion-9f involution parity for c=-1, even d, q <= 729", started)
