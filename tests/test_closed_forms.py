import math

import pytest

from cdspec import (
    Inapplicable,
    PowerMap,
    PowerMapCase,
    c_spectrum,
    dispatch,
    gamma_5n_closed,
    gamma_5n_direct,
    n4_bruteforce,
    n4_closed_5n,
    predict_3n_minus3,
    predict_3n_plus3_half,
    predict_5n_minus3_half,
    predict_inverse_char2,
    predict_inverse_odd,
    predict_pk1_half,
)
from cdspec import closed_forms
from cdspec.closed_forms import TheoremId, dispatch_key
from cdspec.spectrum import normalize_exponent

from conftest import get_ctx, odd_fields


# ---------------------------------------------------------------------------
# Inverse function, characteristic 2
# ---------------------------------------------------------------------------

def test_inverse_char2_three_cases():
    assert predict_inverse_char2(4, 1, 1).omega == {0: 6, 1: 4, 2: 6}
    assert predict_inverse_char2(4, 0, 1).omega == {0: 7, 1: 3, 2: 5, 3: 1}
    assert predict_inverse_char2(4, 1, 0).omega == {0: 7, 1: 3, 2: 5, 3: 1}
    assert predict_inverse_char2(3, 0, 0).omega == {0: 4, 1: 2, 2: 0, 3: 2}
    for pred in (predict_inverse_char2(5, 1, 1), predict_inverse_char2(6, 0, 0)):
        assert pred.consistent


def test_inverse_char2_case_depends_only_on_traces():
    a = predict_inverse_char2(6, 1, 0)
    b = predict_inverse_char2(6, 0, 1)
    assert a.omega == b.omega


def test_inverse_char2_inapplicable():
    with pytest.raises(Inapplicable):
        predict_inverse_char2(1, 1, 1)
    with pytest.raises(Inapplicable):
        predict_inverse_char2(4, 2, 0)


# ---------------------------------------------------------------------------
# Inverse function, odd characteristic
# ---------------------------------------------------------------------------

def test_inverse_odd_six_cases():
    q = 343
    assert predict_inverse_odd(q, -1, -1, -1).omega == {0: 170, 1: 3, 2: 170}
    assert predict_inverse_odd(q, -1, -1, 1).omega == {0: 169, 1: 5, 2: 169}
    assert predict_inverse_odd(q, 1, -1, -1).omega == {0: 171, 1: 2, 2: 169, 3: 1}
    assert predict_inverse_odd(q, -1, 1, 1).omega == {0: 170, 1: 4, 2: 168, 3: 1}
    assert predict_inverse_odd(q, 1, 1, -1).omega == {0: 172, 1: 1, 2: 168, 3: 2}
    assert predict_inverse_odd(q, 1, 1, 1).omega == {0: 171, 1: 3, 2: 167, 3: 2}


def test_inverse_odd_gf7_c3_case_iii():
    # c = 3: chi(c^2-4c) = chi(4) = 1, chi(1-4c) = chi(3) = -1, chi(3) = -1
    pred = predict_inverse_odd(7, 1, -1, -1)
    assert pred.omega == {0: 3, 1: 2, 2: 1, 3: 1}
    brute = c_spectrum(PowerMapCase(PowerMap(get_ctx(7, 1), 5), 3))
    assert brute.positive() == pred.positive()


def test_inverse_odd_inapplicable():
    with pytest.raises(Inapplicable):
        predict_inverse_odd(7, 0, 1, 1)  # chi = 0 means c in {0, 4, 1/4}
    with pytest.raises(Inapplicable):
        predict_inverse_odd(8, 1, 1, 1)


# ---------------------------------------------------------------------------
# x^((3^n + 3)/2)
# ---------------------------------------------------------------------------

def test_3n_plus3_half():
    assert predict_3n_plus3_half(2).omega == {0: 4, 1: 1, 2: 4}
    assert predict_3n_plus3_half(4).omega == {0: 40, 1: 1, 2: 40}
    assert predict_3n_plus3_half(6).consistent
    with pytest.raises(Inapplicable):
        predict_3n_plus3_half(3)  # odd n is out of hypothesis


# ---------------------------------------------------------------------------
# x^(3^n - 3)
# ---------------------------------------------------------------------------

def test_3n_minus3_branches():
    assert predict_3n_minus3(3).omega == {0: 16, 1: 1, 2: 7, 4: 3}
    assert predict_3n_minus3(2).omega == {0: 4, 1: 1, 2: 4, 4: 0}
    assert predict_3n_minus3(5).omega == {0: 151, 1: 1, 2: 61, 4: 30}
    assert predict_3n_minus3(6).omega == {0: 454, 1: 1, 2: 184, 4: 90}


def test_3n_minus3_n0mod4_flagged_inconsistent():
    pred = predict_3n_minus3(4)
    assert not pred.consistent
    assert pred.omega == {1: 1, 2: 21, 4: 8, 6: 1}
    assert "402/8" in pred.notes
    assert "50" in pred.notes


# ---------------------------------------------------------------------------
# x^((p^k + 1)/2)
# ---------------------------------------------------------------------------

def test_pk1_half_1mod4():
    assert predict_pk1_half(5, 2, 1).omega == {0: 8, 1: 12, 2: 2, 3: 3}
    assert predict_pk1_half(5, 1, 1).omega == {0: 2, 1: 1, 2: 2, 3: 0}
    assert predict_pk1_half(13, 1, 1).omega == {0: 6, 1: 5, 4: 2, 7: 0}
    assert predict_pk1_half(13, 2, 1).omega == {0: 72, 1: 84, 4: 2, 7: 11}


def test_pk1_half_3mod4():
    assert predict_pk1_half(11, 1, 1).omega == {0: 7, 2: 2, 3: 1, 4: 1, 6: 0}
    assert predict_pk1_half(11, 2, 1).omega == {0: 80, 2: 30, 3: 1, 4: 1, 6: 9}
    assert predict_pk1_half(19, 1, 1).omega == {0: 13, 2: 4, 5: 1, 6: 1, 10: 0}


def test_pk1_half_theorem_ids():
    assert predict_pk1_half(5, 2, 1).theorem is TheoremId.PK1_HALF_1MOD4
    assert predict_pk1_half(11, 2, 1).theorem is TheoremId.PK1_HALF_3MOD4


def test_pk1_half_inapplicable():
    with pytest.raises(Inapplicable):
        predict_pk1_half(7, 1, 1)  # p = 3 (mod 4) needs p > 7
    with pytest.raises(Inapplicable):
        predict_pk1_half(3, 1, 1)
    with pytest.raises(Inapplicable):
        predict_pk1_half(5, 2, 2)  # k even
    with pytest.raises(Inapplicable):
        predict_pk1_half(5, 3, 3)  # gcd(n, k) > 1


# ---------------------------------------------------------------------------
# Gamma and the quintic family
# ---------------------------------------------------------------------------

def test_gamma_closed_values():
    assert gamma_5n_closed(1) == 2
    assert gamma_5n_closed(2) == 6
    assert gamma_5n_closed(3) == -22


def _gamma_binomial(n):
    """The binomial sum the Gaussian-integer form replaces."""
    sign = 1 if n % 2 == 1 else -1
    return sign * sum((-1) ** k * math.comb(n, 2 * k) * 2 ** (2 * k + 1)
                      for k in range(n // 2 + 1))


def test_gamma_closed_matches_binomial_sum():
    for n in range(1, 400):
        assert gamma_5n_closed(n) == _gamma_binomial(n), n


def test_gamma_closed_equals_direct():
    for n in range(1, 9):
        assert gamma_5n_closed(n) == gamma_5n_direct(get_ctx(5, n))


def test_n4_closed_5n():
    assert n4_closed_5n(1) == 25
    assert n4_closed_5n(2) == 1009
    assert n4_closed_5n(2) == n4_bruteforce(PowerMapCase(PowerMap(get_ctx(5, 2), 11), 4))


def test_5n_minus3_half_spectra():
    assert predict_5n_minus3_half(1).omega == {0: 0, 1: 5, 2: 0}
    assert predict_5n_minus3_half(2).omega == {0: 8, 1: 9, 2: 8}
    assert predict_5n_minus3_half(3).omega == {0: 48, 1: 29, 2: 48}
    assert all(predict_5n_minus3_half(n).consistent for n in range(1, 9))


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------

def _theorems(ctx, d, c):
    return [p.theorem for p in dispatch(PowerMap(ctx, d), c)]


def test_dispatch_inverse_char2():
    ctx = get_ctx(2, 4)
    c = next(
        x for x in range(2, 16) if ctx.trace(x) == 1 and ctx.trace(ctx.inv(x)) == 1
    )
    assert _theorems(ctx, 14, c) == [TheoremId.INV_CHAR2]


def test_dispatch_gf5_d3():
    # d = 3 = (5+1)/2 matches the pk1 row; c = -1 = 4 is excluded from the
    # inverse-theorem hypotheses even though d = q - 2 as well.
    assert _theorems(get_ctx(5, 1), 3, 4) == [TheoremId.PK1_HALF_1MOD4]


def test_dispatch_no_match():
    assert _theorems(get_ctx(7, 1), 2, 2) == []


def test_dispatch_gf9_d6_matches_both_char3_rows():
    ids = _theorems(get_ctx(3, 2), 6, 2)
    assert set(ids) == {TheoremId.P3_PLUS3_HALF, TheoremId.P3_MINUS3}


def test_dispatch_reduces_d_mod_q_minus_1():
    ctx = get_ctx(3, 2)
    assert TheoremId.P3_PLUS3_HALF in set(_theorems(ctx, 6 + 8, 2))


def test_dispatch_excludes_p7_for_pk1():
    # (7^1+1)/2 = 4 over GF(7), c = -1: the p = 3 (mod 4) theorem needs p > 7
    assert _theorems(get_ctx(7, 1), 4, 6) == []


def test_dispatch_excludes_c_values_for_inverse_odd():
    ctx = get_ctx(7, 1)
    assert _theorems(ctx, 5, 4) == []  # c = 4
    assert _theorems(ctx, 5, 2) == []  # c = 1/4 = 2 over GF(7)
    assert _theorems(ctx, 5, 3) == [TheoremId.INV_ODD]


def test_condition_tuples_recorded():
    pred = dispatch(PowerMap(get_ctx(5, 2), 11), 4)[0]
    names = [k for k, _ in pred.conditions]
    assert "gamma_5n" in names


_KEY_FIELDS = [(2, n) for n in range(1, 9)] + odd_fields(1, 343)


def _family_exponents(p, n):
    """Every family exponent dispatch tests at (p, n), as a positive d."""
    q = p ** n
    ds = [q - 2]
    if p == 3:
        ds += [(q + 3) // 2, q - 3]
    if p == 5:
        ds.append((q - 3) // 2)
    if p > 2:
        ds += [(p ** k + 1) // 2 for k in range(1, 2 * n + 1, 2) if math.gcd(n, k) == 1]
    return [d for d in ds if d > 0]


@pytest.mark.parametrize("p,n", _KEY_FIELDS, ids=[f"{p}^{n}" for p, n in _KEY_FIELDS])
def test_dispatch_key_matches_the_field_expressions(p, n):
    """At every c: the traces, or the characters through field products, and
    the prime-field constants dispatch tests; and every c of one key has
    one dispatch, at every family exponent."""
    ctx = get_ctx(p, n)
    if p == 2:
        constants = {0, 1}
    else:
        four = 4 % p
        constants = {0, 1, four, pow(four, -1, p), ctx.neg_one}
    by_key = {}
    for c in range(ctx.q):
        key = dispatch_key(ctx, c)
        const = c if c in constants else None
        if p == 2:
            expected = (c,) if c < 2 else (None, ctx.trace(c), ctx.trace(ctx.inv(c)))
        else:
            expected = (const, ctx.chi(ctx.sub(ctx.mul(c, c), ctx.mul(four, c))),
                        ctx.chi(ctx.sub(1, ctx.mul(four, c))), ctx.chi(c))
        assert key == expected, c
        by_key.setdefault(key, []).append(c)
    for d in _family_exponents(p, n):
        power = PowerMap(ctx, d)
        for key, cs in by_key.items():
            docs = {c: [pr.as_dict() for pr in dispatch(power, c)] for c in cs}
            assert all(doc == docs[cs[0]] for doc in docs.values()), (d, key)


def _reference_dispatch_key(ctx, c):
    """dispatch_key as it was when dispatch read the whole key on every call."""
    p, chi = ctx.p, ctx.chi
    if p == 2:
        return (c,) if c < 2 else (None, ctx.trace(c), ctx.trace(ctx.inv(c)))
    four, quarter = 4 % p, pow(4, -1, p)
    base, chi_c = c - c % p, chi(c)
    return (c if c in (0, 1, four, quarter, p - 1) else None,
            chi_c * chi(base + (c - four) % p), chi(p - 1) * chi(base + (c - quarter) % p), chi_c)


def _reference_dispatch(power, c):
    """dispatch as it was when it read the whole key on every call."""
    ctx, dn = power.ctx, power.d
    p, n, q = ctx.p, ctx.n, ctx.q
    const, *values = _reference_dispatch_key(ctx, c)

    def matches(e):
        return normalize_exponent(e, q) in power.members

    preds = []
    if const not in (0, 1) and matches(q - 2):
        if p == 2:
            preds.append(predict_inverse_char2(n, *values))
        elif const not in (4 % p, pow(4, -1, p)):
            preds.append(predict_inverse_odd(q, *values))
    if p > 2 and const == ctx.neg_one:
        if p == 3 and n >= 2:
            if n % 2 == 0 and matches((q + 3) // 2):
                preds.append(predict_3n_plus3_half(n))
            if matches(q - 3):
                preds.append(predict_3n_minus3(n))
        if p % 4 == 1 or (p % 4 == 3 and p > 7):
            ks = [k for k in range(1, 2 * n + 1, 2)
                  if math.gcd(n, k) == 1 and matches((p ** k + 1) // 2)]
            if ks:
                k = min(ks, key=lambda k: normalize_exponent((p ** k + 1) // 2, q) != dn)
                preds.append(predict_pk1_half(p, n, k))
        if p == 5 and matches((q - 3) // 2):
            preds.append(predict_5n_minus3_half(n))
    return preds


@pytest.mark.parametrize("p,n", [(3, 3), (2, 4)], ids=["3^3", "2^4"])
def test_dispatch_reads_c_through_one_dispatch_key_call(p, n, monkeypatch):
    """dispatch reads c through exactly one dispatch_key call, at every d and
    c, whether or not d matches q - 2."""
    calls = []
    real = closed_forms.dispatch_key

    def counted(ctx, c):
        calls.append(c)
        return real(ctx, c)

    monkeypatch.setattr(closed_forms, "dispatch_key", counted)
    ctx = get_ctx(p, n)
    for d in range(1, ctx.q):
        power = PowerMap(ctx, d)
        for c in range(ctx.q):
            calls.clear()
            dispatch(power, c)
            assert calls == [c], (d, c)


_DISPATCH_FIELDS = [(2, n) for n in range(1, 8)] + odd_fields(1, 243)


@pytest.mark.parametrize("p,n", _DISPATCH_FIELDS, ids=[f"{p}^{n}" for p, n in _DISPATCH_FIELDS])
def test_dispatch_equals_the_whole_key_reference_at_every_d_and_c(p, n):
    """dispatch computes the whole key of c on every call, whatever d is;
    it returns what the reference returns, and dispatch_key is unchanged."""
    ctx = get_ctx(p, n)
    for c in range(ctx.q):
        assert dispatch_key(ctx, c) == _reference_dispatch_key(ctx, c), c
    for d in range(1, ctx.q):
        power = PowerMap(ctx, d)
        for c in range(ctx.q):
            assert dispatch(power, c) == _reference_dispatch(power, c), (d, c)
