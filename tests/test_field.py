import dataclasses
import hashlib
import itertools
import math
import sys
import threading

import numpy as np
import pytest

from cdspec import (
    CharTwoUnsupported,
    PowerMap,
    PowerMapCase,
    DivisionByZero,
    FieldSpec,
    FieldTooLarge,
    LeadingCoeffZero,
    NotPrime,
    ParseError,
    ReducibleModulus,
    WrongCharacteristic,
    build_context,
    char_sum_quadratic,
    find_irreducible,
    gamma_5n_direct,
    gcd_pk1,
    n4_bruteforce,
    n4_fourier,
    parse_field_spec,
    quadratic_solution_count,
    sweep_c,
    verify_with_context,
)
from cdspec.field import (
    DEFAULT_ENUM_CAP,
    _linear_mapper,
    _pmod,
    _xor_tables,
    is_irreducible,
    is_prime,
    prime_factors,
)
from cdspec.verifier import SplitMix64

from conftest import get_ctx, is_prime_trial, odd_fields, poly_mul, poly_pow


# ---------------------------------------------------------------------------
# Context construction
# ---------------------------------------------------------------------------

def test_gf5_generator_is_smallest_primitive_root():
    ctx = get_ctx(5, 1)
    assert ctx.generator == 2  # primitive roots mod 5 are 2 and 3


def test_gf8_default_modulus_and_generator_cycle():
    ctx = get_ctx(2, 3)
    assert ctx.modulus == (1, 1, 0, 1)  # x^3 + x + 1
    # powers of x mod x^3+x+1, worked out by hand
    assert [ctx.pow(2, i) for i in range(1, 8)] == [2, 4, 3, 6, 7, 5, 1]


def test_default_moduli_are_the_classic_choices():
    assert get_ctx(2, 2).modulus == (1, 1, 1)
    assert get_ctx(3, 2).modulus == (1, 0, 1)
    assert get_ctx(2, 4).modulus == (1, 1, 0, 0, 1)


def test_not_prime_rejected():
    with pytest.raises(NotPrime):
        build_context(FieldSpec(4, 1))
    with pytest.raises(NotPrime):
        build_context(FieldSpec(1, 1))


def test_is_prime_matches_trial_division():
    # build_context asks only for p <= 2^22, the field-size cap, and N4's
    # moduli search asks for l < 2^28
    for lo, hi in ((0, 100_000), (DEFAULT_ENUM_CAP - 5000, DEFAULT_ENUM_CAP + 1),
                   ((1 << 28) - 5000, (1 << 28) + 1)):
        assert [m for m in range(lo, hi) if is_prime(m)] == \
            [m for m in range(lo, hi) if is_prime_trial(m)]
    assert not is_prime(3215031751)  # a strong pseudoprime to 2, 3, 5, 7


def test_reducible_modulus_rejected():
    with pytest.raises(ReducibleModulus):
        build_context(FieldSpec(2, 2, (1, 0, 1)))  # x^2+1 = (x+1)^2 over GF(2)
    with pytest.raises(ReducibleModulus):
        build_context(FieldSpec(2, 3, (1, 1, 1)))  # wrong degree


def test_field_too_large():
    with pytest.raises(FieldTooLarge):
        build_context(FieldSpec(2, 23))


def test_find_irreducible_indexing():
    assert find_irreducible(2, 3, 0) == (1, 1, 0, 1)
    assert find_irreducible(2, 3, 1) == (1, 0, 1, 1)
    assert find_irreducible(3, 2, 0) == (1, 0, 1)


# Every monic polynomial of degree n <= IRREDUCIBILITY_DEGREES[p] over GF(p):
# 4,631 in all, checked against oracles that run no irreducibility test.
IRREDUCIBILITY_DEGREES = {2: 10, 3: 6, 5: 4, 7: 3, 11: 2, 13: 2}


def _monic(p, n):
    for low in itertools.product(range(p), repeat=n):
        yield list(low) + [1]


def _mobius(k):
    factors = prime_factors(k)
    if any(k % (r * r) == 0 for r in factors):
        return 0
    return (-1) ** len(factors)


@pytest.mark.parametrize("p", sorted(IRREDUCIBILITY_DEGREES))
def test_irreducible_count_is_gauss_formula(p):
    for n in range(1, IRREDUCIBILITY_DEGREES[p] + 1):
        count = sum(is_irreducible(f, p) for f in _monic(p, n))
        assert n * count == sum(_mobius(k) * p ** (n // k) for k in range(1, n + 1) if n % k == 0)


@pytest.mark.parametrize("p", sorted(IRREDUCIBILITY_DEGREES))
def test_reducible_exactly_when_a_small_factor_divides(p):
    for n in range(1, IRREDUCIBILITY_DEGREES[p] + 1):
        divisors = [g for k in range(1, n // 2 + 1) for g in _monic(p, k)]
        for f in _monic(p, n):
            assert is_irreducible(f, p) == all(_pmod(f, g, p) for g in divisors), (p, f)


# The default moduli (index 0) and the next ones (index 1) of the field grid,
# as their non-leading coefficients from the constant term up: 2^22 uses
# x^22 + x + 1.  Every table, spectrum and pinned byte depends on them.
GRID_MODULI = {
    (3, 7): ((2, 0, 1), (1, 2, 1)),
    (5, 5): ((1, 4), (2, 4)),
    (2, 16): ((1, 1, 0, 1, 0, 1), (1, 0, 1, 1, 0, 1)),
    (3, 10): ((1, 0, 2), (2, 1, 0, 1)),
    (2, 20): ((1, 0, 0, 1), (1, 1, 1, 1)),
    (3, 13): ((1, 2), (2, 2)),
    (5, 9): ((3, 2, 1), (4, 2, 1)),
    (2, 22): ((1, 1), (1, 1, 1, 0, 0, 1)),
}


@pytest.mark.parametrize("p, n", sorted(GRID_MODULI))
def test_grid_moduli_are_pinned(p, n):
    for index, low in enumerate(GRID_MODULI[p, n]):
        assert find_irreducible(p, n, index) == low + (0,) * (n - len(low)) + (1,)


# (generator, sha256 of the bytes of exp, log, succ and, in odd p, zech),
# pinned from a construction that built every doubling step's lookup tables
# from its matrix; any other construction must reproduce them byte for
# byte.  Every 2^n has its own pair of low and high tables, of unequal size
# at odd n.
TABLE_DIGESTS = {
    (2, 2): (2, "5db64f07c6fb93d4fea2f3cc3e6d185db4d33e8dd516e2f09d0a9ec88c39c942"),
    (2, 3): (2, "4453f1a801306dfaa8a6c0c18947a191d9b63cea0f0af4dc8cdb603245df9276"),
    (2, 4): (2, "d5001554a7a90c3dc397f0c62b7c67c860839d2b6cfbd28024acf76bd8d606cc"),
    (2, 5): (2, "8a4cbb3c3b158f0e7539e4aa2c56c986359e8dcea2f42f33bcd36272a50a3c75"),
    (2, 6): (2, "f0303eaaab62b2415e2f797010c9289b3477c2435d6ef0714f017852a5bfb6dd"),
    (2, 7): (2, "7bf500da919ab569e339bc4fca8fb6f1cac1bb9a4caaa292ac5c14149de98780"),
    (2, 8): (3, "eaac8f6ac75f03a9dde9849620753a45b9010aa0ebc4fc3f39198b3f23862b18"),
    (2, 9): (7, "eb5c9f64af310fe8e5c7f31b219a8bd9389db88f99335f9bc8d0067e607288a5"),
    (2, 10): (2, "71548c9b487be6f71c0bc58a4c784e8567a1a7967aa5de710506672b1b4166af"),
    (2, 11): (2, "871edb6b0b814bb1504434db215187e3ff29056f27b384fa55cc09157f3386f0"),
    (2, 12): (3, "5aef3a20bc4c3c4e637aaea10e4923868b7374b9277208227ec34beb44e3e9ec"),
    (2, 13): (2, "e6cfe51a5ef391e57951f701dccf3bac43df879b2ab0c435ce879ea47385b4f8"),
    (2, 14): (7, "4b0895a6fc7d15b387f320616bc648f5fe4128840cad194e06e9d5cd35039424"),
    (2, 15): (2, "36a41c486227d541b46327dd1465ca6bf2022f515e9c179614b37c3fb599a53c"),
    (2, 16): (3, "caf2877b39a324688568633ffc642830016261c47013cea9d03ddc625be49e68"),
    (2, 17): (2, "d6c09e04a4d5d46e2289358fa19db44b1446858e5610c9d1854c3db43dc44521"),
    (2, 18): (10, "7a711a10e74d8ffb8d3848292f98abf65c9d431841e0196240b3fad0dbdafcf1"),
    (2, 19): (2, "97d95f8207475236b8c53de6af0a5f597fcff8512877b6fa3ec4b13e01bea6ca"),
    (2, 20): (2, "bcefefd8ae1998472ea9fd3590ed78f200cc5a2fb5cd4790d90eb95b4e5dd82d"),
    (2, 21): (2, "f8ecbd5997f39a149c4d5c0f4bb048f87f1c6c1d70ce0d01df34b239350eea47"),
    (2, 22): (2, "d26a15f5873ae5896d971906d97be05eb3da89b530e0be3fddf09b8a6e7f8687"),
    (3, 11): (5, "ef3094db9a1db0e7fade7e2aae910d608f9266fb7b7917a091c6da89e2cc1661"),
    (3, 13): (3, "258d9346088a2740e5837b4e87c3c8db4ba90ae4f3813dd2e4a1011003b1bb26"),
    (5, 9): (5, "2c335effcc8e0600c6936d068f93c470daecc508adf01d62c4968b566ef14812"),
}


@pytest.mark.parametrize("p, n", sorted(TABLE_DIGESTS), ids=[f"{p}^{n}" for p, n in sorted(TABLE_DIGESTS)])
def test_tables_are_pinned(p, n):
    ctx = build_context(FieldSpec(p, n))
    digest = hashlib.sha256()
    for name in ("exp", "log", "succ") + (("zech",) if p != 2 else ()):
        table = getattr(ctx, name)
        assert table.dtype == np.int32, name
        digest.update(table.tobytes())
    assert (ctx.generator, digest.hexdigest()) == TABLE_DIGESTS[p, n]


def test_exp_steps_by_the_generator_on_every_small_field():
    """exp[k+1] = exp[k] * g by polynomial arithmetic, for every k (the last
    wraps to exp[0] = 1), on every field with q <= 2^12."""
    fields = [(p, n) for p in range(2, 1 << 12) if is_prime_trial(p)
              for n in range(1, 13) if p ** n <= 1 << 12]
    assert (2, 12) in fields and (4093, 1) in fields and (3, 7) in fields
    for p, n in fields:
        ctx = build_context(FieldSpec(p, n))
        g = ctx.generator
        exp = ctx.exp.tolist()
        assert [poly_mul(ctx, x, g) for x in exp] == exp[1:] + exp[:1], (p, n)


def test_parse_field_spec():
    assert parse_field_spec("5^4") == FieldSpec(5, 4)
    assert parse_field_spec("2^3/1,1,0,1") == FieldSpec(2, 3, (1, 1, 0, 1))
    assert parse_field_spec("7") == FieldSpec(7, 1)
    with pytest.raises(ParseError):
        parse_field_spec("5^x")
    with pytest.raises(ParseError):
        parse_field_spec("2^")
    with pytest.raises(ParseError):
        parse_field_spec("3^2/")  # a slash with no modulus after it


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------

def test_mul_examples():
    assert get_ctx(5, 1).mul(3, 4) == 2
    assert get_ctx(2, 3).mul(2, 4) == 3  # x * x^2 = x + 1


def test_fermat_for_all_nonzero():
    for p, n in [(2, 3), (3, 2), (5, 1), (7, 1)]:
        ctx = get_ctx(p, n)
        for a in range(1, ctx.q):
            assert ctx.pow(a, ctx.q - 1) == 1


def test_field_axioms_random_triples():
    rng = SplitMix64(2024)
    for p, n in [(2, 4), (3, 3), (5, 2), (7, 2), (11, 1)]:
        ctx = get_ctx(p, n)
        for _ in range(200):
            a, b, c = (rng.below(ctx.q) for _ in range(3))
            assert ctx.add(a, b) == ctx.add(b, a)
            assert ctx.mul(a, b) == ctx.mul(b, a)
            assert ctx.mul(a, ctx.mul(b, c)) == ctx.mul(ctx.mul(a, b), c)
            assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
            assert ctx.sub(ctx.add(a, b), b) == a
            if a:
                assert ctx.mul(a, ctx.inv(a)) == 1


def test_pow_matches_square_and_multiply():
    rng = SplitMix64(99)
    for p, n in [(2, 5), (3, 3), (5, 2)]:
        ctx = get_ctx(p, n)
        for _ in range(50):
            a = rng.below(ctx.q)
            e = rng.below(3 * ctx.q)
            acc, base, k = 1, a, e
            if a == 0:
                expected = 1 if e == 0 else 0
            else:
                k = e % (ctx.q - 1)
                while k:
                    if k & 1:
                        acc = ctx.mul(acc, base)
                    base = ctx.mul(base, base)
                    k >>= 1
                expected = acc
            assert ctx.pow(a, e) == expected


_WIDE_FIELDS = [(2, 18), (3, 11), (5, 9)]


@pytest.mark.parametrize("p,n", _WIDE_FIELDS, ids=[f"{p}^{n}" for p, n in _WIDE_FIELDS])
def test_scalar_arithmetic_where_log_times_exponent_passes_int32(p, n):
    """log a * e reaches about q^2 > 2^31 here, past what an int32 product
    holds; pow, inv and mul agree with the table-free square-and-multiply
    and polynomial product."""
    ctx = build_context(FieldSpec(p, n))
    q, order = ctx.q, ctx.q - 1
    rng = SplitMix64(q)
    elems = [int(ctx.exp[order - 1]), ctx.neg_one] + [2 + rng.below(q - 2) for _ in range(3)]
    exps = [q - 2, q - 1, order // 2, -1] + [rng.below(1 << 40) for _ in range(3)]
    assert int(ctx.log[elems[0]]) * (q - 2) >= 2 ** 31
    for a in elems:
        for e in exps:
            assert ctx.pow(a, e) == poly_pow(ctx, a, e % order), (p, n, a, e)
        inv = ctx.inv(a)
        assert inv == poly_pow(ctx, a, q - 2) and poly_mul(ctx, a, inv) == 1, (p, n, a)
        b = 2 + rng.below(q - 2)
        assert ctx.mul(a, b) == poly_mul(ctx, a, b), (p, n, a, b)


@pytest.mark.parametrize("p", [65537, 4194301])
def test_prime_field_tables_where_residue_products_pass_int32(p):
    """The tables of GF(p) multiply residues below p, and past p = 46,341
    such a product passes 2^31; 4,194,301 is the largest prime under the
    cap.  exp and log agree with Python's pow."""
    ctx = build_context(FieldSpec(p, 1))
    g = ctx.generator
    rng = SplitMix64(p)
    for k in [0, 1, p - 2] + [rng.below(p - 1) for _ in range(50)]:
        assert int(ctx.exp[k]) == pow(g, k, p) and int(ctx.log[pow(g, k, p)]) == k, (p, k)


def test_log_antilog_roundtrip():
    for p, n in [(2, 6), (3, 4), (5, 3)]:
        ctx = get_ctx(p, n)
        assert np.array_equal(ctx.exp[ctx.log[1:]], np.arange(1, ctx.q))


def test_zech_vec_add_sub_match_scalar_on_every_pair():
    """vec_add and vec_sub against the scalar digit loop on every pair, in odd
    characteristic by zech_sum and in characteristic 2 by XOR, where vec_add
    first scales b by -1 = 1."""
    for p, n in odd_fields(0, 243) + [(2, n) for n in range(1, 8)]:
        ctx = get_ctx(p, n)
        q = ctx.q
        X = np.arange(q, dtype=np.int64)
        add = ctx.vec_add(X[:, None], X[None, :])  # 2-D operands, by broadcasting
        sub = ctx.vec_sub(X[:, None], X[None, :])
        # scalar sub and neg against digit-wise (a_i - b_i) mod p
        digit_sub = sum((X[:, None] // p ** i - X[None, :] // p ** i) % p * p ** i
                        for i in range(n))
        scalar_sub = [[ctx.sub(a, b) for b in range(q)] for a in range(q)]
        assert scalar_sub == digit_sub.tolist(), (p, n)
        assert [ctx.neg(a) for a in range(q)] == digit_sub[0].tolist(), (p, n)
        assert add.tolist() == [[ctx.add(a, b) for b in range(q)] for a in range(q)], (p, n)
        assert sub.tolist() == scalar_sub, (p, n)
        for k in (0, 1, ctx.neg_one, q - 1):  # scalar-broadcast operands
            assert np.array_equal(ctx.vec_add(np.int64(k), X), add[k])
            assert np.array_equal(ctx.vec_sub(np.int64(k), X), sub[k])
            assert np.array_equal(ctx.vec_sub(X, np.int64(k)), sub[:, k])
            assert ctx.vec_sub(np.int64(k), np.int64(1)).shape == ()
            assert int(ctx.vec_sub(np.int64(k), np.int64(1))) == sub[k, 1]
            assert ctx.vec_add(np.int64(k), np.int64(1)).shape == ()
            assert int(ctx.vec_add(np.int64(k), np.int64(1))) == add[k, 1]


def _xor_mapper(mat, x):
    """The characteristic-2 digit map as the XOR of the images of the low
    h = ceil(n/2) bits and of the high ones, through _xor_tables."""
    n = len(mat)
    h = (n + 1) // 2
    split = 1 << h
    table = _xor_tables(mat)
    return table[:split].take(x & (split - 1)) ^ table[split:].take(x >> h)


def test_linear_mapper_matches_xor_tables_in_characteristic_2():
    """The lane-packed map at p = 2 equals the XOR of _xor_tables' images:
    on every x for n <= 16, with seeded random matrices, the all-ones matrix
    (every lane sum reaches 2) and the Hankel matrix Tr(X^(i+j)) of
    PowerMap.n4_pairs; and on a seeded sample of x up to n = 22, the widest
    packing."""
    rng = np.random.default_rng(2)
    for n in range(2, 23):
        q = 1 << n
        mats = [rng.integers(0, 2, (n, n)) for _ in range(3)] + [np.ones((n, n), dtype=np.int64)]
        if n > 16:
            x = np.concatenate([[0, 1, q - 1], rng.integers(0, q, 1 << 16)])
        else:
            x = np.arange(q, dtype=np.int64)
            ctx = get_ctx(2, n)
            x_pows = [1]  # X^k for k <= 2n - 2
            for _ in range(2 * n - 2):
                x_pows.append(ctx.mul(x_pows[-1], 2))
            traces = np.array([ctx.trace(v) for v in x_pows], dtype=np.int64)
            mats.append(traces[np.add.outer(np.arange(n), np.arange(n))])
        apply = _linear_mapper(2, n)
        for mat in mats:
            assert np.array_equal(apply(mat, x), _xor_mapper(mat, x)), n


def _race(worker, args_per_thread):
    """Run worker(*args, interval, step) on one thread per args.  step is a
    barrier the workers pass before each round of reads, so their first
    reads of fresh tables race; a worker that fails aborts it.  Switch
    intervals short enough to interleave threads inside one table build are
    tried in turn, since which one exposes a race varies from run to run."""
    old = sys.getswitchinterval()
    try:
        for interval in (5e-6, 1e-5, 2e-5):
            sys.setswitchinterval(interval)
            step = threading.Barrier(len(args_per_thread), timeout=60)
            threads = [threading.Thread(target=worker, args=(*args, interval, step))
                       for args in args_per_thread]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)


def test_pow_table_threads_share_one_power_map():
    """Threads read x^d of each fresh power map of one shared list at the
    same time, so their first reads race; each also builds x^d for other
    exponents with the stateless ctx.pow_table."""
    ctx = build_context(FieldSpec(3, 5))
    order = ctx.q - 1
    g = ctx.generator
    g_pow = [ctx.pow(g, d) for d in range(ctx.q)]
    powers = {interval: [PowerMap(ctx, d) for d in range(1, ctx.q)]
              for interval in (5e-6, 1e-5, 2e-5)}
    errors = []

    def worker(stride, interval, step):
        try:
            for i, power in enumerate(powers[interval]):
                step.wait()
                if power.powd[g] != g_pow[power.d]:
                    errors.append(power.d)
                e = 1 + (stride * i) % order
                if ctx.pow_table(e)[g] != g_pow[e]:
                    errors.append(("pow_table", e))
        except Exception as exc:  # reported through errors, asserted below
            step.abort()
            errors.append(exc)

    _race(worker, [(s,) for s in (1, 5, 7, 13, 17, 19)])
    assert errors == []
    for maps in powers.values():
        for power in maps:
            assert power.powd is power.powd and not power.powd.flags.writeable
    for d in (1, 2, 121, order):
        expected = [ctx.pow(x, d) for x in range(ctx.q)]
        assert np.array_equal(PowerMap(ctx, d).powd, expected)
        assert np.array_equal(ctx.pow_table(d), expected)
    assert ctx.pow_table(7) is not ctx.pow_table(7)  # a new array per call


def test_delta_pair_threads_share_one_power_map():
    """Threads read each generation of fresh power maps, one per d on an odd
    field, at the same time and in rotated orders, so their first reads of
    the delta pair (lu, ratio), x^d and the N4 pairs race with each other.
    Each checks lu and ratio, x^d, N4 and Delta_c through cases on the shared
    maps, and the stateless ctx.pow_table."""
    # A small field makes each table build cheap, so first reads are frequent.
    ctx = build_context(FieldSpec(3, 3))
    order = ctx.q - 1
    x = ctx.generator  # x and x + 1 are nonzero, so both logs are defined
    lx, lx1 = int(ctx.log[x]), int(ctx.log[ctx.add(x, 1)])
    ds = (order - 1, 7, 2, 13)
    expected = {d: (d * lx1 % order, d * (lx - lx1) % order) for d in ds}
    c = ctx.neg_one
    delta = {d: ctx.sub(ctx.pow(ctx.add(x, 1), d), ctx.mul(c, ctx.pow(x, d))) for d in ds}
    powers = {d: [ctx.pow(y, d) for y in range(ctx.q)] for d in ds}
    n4 = {d: n4_bruteforce(PowerMapCase(PowerMap(ctx, d), c)) for d in ds}
    generations = {interval: [{d: PowerMap(ctx, d) for d in ds} for _ in range(300)]
                   for interval in (5e-6, 1e-5, 2e-5)}
    errors = []

    def worker(offset, interval, step):
        try:
            for i, maps in enumerate(generations[interval]):
                step.wait()
                for j in range(len(ds)):
                    d = ds[(offset + j) % len(ds)]
                    lu, ratio = maps[d].delta_pair
                    if (int(lu[x]), int(ratio[x])) != expected[d]:
                        errors.append(d)
                    if not np.array_equal(maps[d].powd, powers[d]):
                        errors.append(("powd", d))
                    if n4_fourier(PowerMapCase(maps[d], c)) != n4[d]:
                        errors.append(("n4", d))
                    if i % 8 == 0 and PowerMapCase(maps[d], c).delta_values()[x] != delta[d]:
                        errors.append(("delta", d))
                e = ds[(offset + i) % len(ds)]
                if not np.array_equal(ctx.pow_table(e), powers[e]):
                    errors.append(("pow_table", e))
        except Exception as exc:  # reported through errors, asserted below
            step.abort()
            errors.append(exc)

    _race(worker, [(k,) for k in range(6)])
    assert errors == []
    for gens in generations.values():
        for power in gens[0].values():
            assert power.delta_pair[0] is power.delta_pair[0]
            assert power.n4_pairs is power.n4_pairs
            assert power.powd is power.powd


def test_context_attributes_do_not_change_after_construction():
    """A context has no mutable state: what runs on it rebinds nothing."""
    ctx = build_context(FieldSpec(3, 3))
    before = dict(vars(ctx))
    verify_with_context(ctx, 7, 2)
    sweep_c(ctx, 25)
    ctx.pow_table(5)
    PowerMap(ctx, 5).delta_pair
    assert vars(ctx).keys() == before.keys()
    assert all(vars(ctx)[k] is v for k, v in before.items())


def test_inverse_of_zero():
    with pytest.raises(DivisionByZero):
        get_ctx(5, 1).inv(0)


def test_tables_match_polynomial_arithmetic():
    """Every table-backed scalar operation against polynomial arithmetic."""
    for p, n in [(3, 3), (2, 5), (5, 2)]:
        ctx = get_ctx(p, n)
        q = ctx.q
        X = np.arange(q, dtype=np.int64)
        for a in range(q):
            row = [poly_mul(ctx, a, b) for b in range(q)]
            assert [ctx.mul(a, b) for b in range(q)] == row
            assert ctx.vec_scale(X, a).tolist() == row  # a = 0 and a = 1 included
            if a:
                assert ctx.inv(a) == poly_pow(ctx, a, q - 2)
            for e in (0, 1, 2, p, q - 2, q - 1, q, 2 * q + 3):
                assert ctx.pow(a, e) == poly_pow(ctx, a, e)
            frobenius_sum = a
            for i in range(1, n):
                frobenius_sum = ctx.add(frobenius_sum, poly_pow(ctx, a, p ** i))
            assert ctx.trace(a) == frobenius_sum
            if p != 2:
                euler = poly_pow(ctx, a, (q - 1) // 2)
                assert ctx.chi(a) == (0 if a == 0 else 1 if euler == 1 else -1)


# The formulas pow_table and vec_scale replaced, each with a mod-(q-1) pass;
# the division-free kernels must reproduce them exactly.

def _pow_table_mod(ctx, d):
    order = ctx.q - 1
    t = np.zeros(ctx.q, dtype=np.int64)
    t[ctx.exp] = ctx.exp[(np.arange(order, dtype=np.int64) * d) % order]
    return t


def _vec_scale_mod(ctx, arr, c):
    out = np.zeros_like(arr)
    if c:
        nz = arr != 0
        out[nz] = ctx.exp[(ctx.log[arr[nz]] + ctx.log[c]) % (ctx.q - 1)]
    return out


def test_pow_table_and_vec_scale_match_mod_formulas_on_small_fields():
    """Every d and every c (0 and 1 included) on every field with q <= 729."""
    fields = [(p, n) for p in range(2, 730) if is_prime_trial(p)
              for n in range(1, 10) if p ** n <= 729]
    assert (2, 1) in fields and (3, 1) in fields and (3, 6) in fields
    for p, n in fields:
        ctx = get_ctx(p, n)
        X = np.arange(ctx.q, dtype=np.int64)
        for d in range(1, ctx.q):
            assert np.array_equal(ctx.pow_table(d), _pow_table_mod(ctx, d)), (p, n, d)
        for c in range(ctx.q):
            assert np.array_equal(ctx.vec_scale(X, c), _vec_scale_mod(ctx, X, c)), (p, n, c)


def test_pow_table_matches_mod_formula_on_large_fields():
    rng = SplitMix64(10)
    for p, n in ((2, 16), (3, 11), (5, 7)):
        ctx = get_ctx(p, n)
        q = ctx.q
        for d in [1, q - 2, q - 1] + [1 + rng.below(q - 1) for _ in range(3)]:
            assert np.array_equal(ctx.pow_table(d), _pow_table_mod(ctx, d)), (p, n, d)


def test_pow_table_at_zero_and_at_extreme_exponents_on_2_20():
    """x = 0 and d in {1, q-2, q-1} at 2^20, where log x * d passes 2^31
    and an int32 product would wrap; each entry agrees with Python-int pow."""
    ctx = get_ctx(2, 20)
    q, order = ctx.q, ctx.q - 1
    X = np.arange(q)
    top = int(ctx.exp[order - 1])  # log = q - 2
    assert (order - 1) * (q - 2) >= 2 ** 31
    rng = SplitMix64(20)
    xs = [0, 1, 2, top] + [rng.below(q) for _ in range(20)]
    for d in (1, q - 2, q - 1):
        t = ctx.pow_table(d)
        assert t.dtype == np.int32 and t[0] == 0
        for x in xs:
            assert int(t[x]) == ctx.pow(x, d), (d, x)
        if d == 1:
            assert np.array_equal(t, X)
        elif d == q - 1:
            assert np.array_equal(t[1:], np.ones(order, dtype=np.int32))
        else:  # x^(q-2) = 1/x: log t[x] = -log x mod (q-1)
            assert np.array_equal(ctx.log[t[1:]], -ctx.log[1:] % order)


def test_vec_scale_shapes_and_writable_result():
    """2-D and 0-d input keep their shape; a read-only input (a pow_table)
    gives a writable result, which delta_values passes on to vec_sub."""
    ctx = get_ctx(3, 3)
    grid = np.arange(ctx.q, dtype=np.int64).reshape(3, 9)
    power = PowerMap(ctx, 3)
    cubes = power.powd
    for c in (0, 1, 2, ctx.neg_one, ctx.q - 1):
        scaled = ctx.vec_scale(grid, c)
        assert scaled.shape == (3, 9) and np.array_equal(scaled, _vec_scale_mod(ctx, grid, c))
        for x in (0, 1, ctx.q - 1):
            point = np.asarray(x, dtype=np.int64)
            scaled = ctx.vec_scale(point, c)
            assert scaled.shape == () and int(scaled) == int(_vec_scale_mod(ctx, point, c))
        scaled = ctx.vec_scale(cubes, c)
        assert np.array_equal(scaled, _vec_scale_mod(ctx, cubes, c))
        assert scaled.flags.writeable
    assert not cubes.flags.writeable and power.powd is cubes


def test_tables_are_read_only():
    ctx = build_context(FieldSpec(3, 3))
    for name in ("exp", "log", "succ", "zech"):
        with pytest.raises(ValueError):
            getattr(ctx, name)[1] = 0
    fresh = ctx.pow_table(3)
    with pytest.raises(ValueError):
        fresh[1] = 0
    assert ctx.pow_table(3) is not fresh and np.array_equal(ctx.pow_table(3), fresh)
    power = PowerMap(ctx, 3)
    cubes = power.powd
    with pytest.raises(ValueError):
        cubes[1] = 0
    assert power.powd is cubes
    assert int(cubes[2]) == ctx.pow(2, 3)
    lu, ratio = power.delta_pair
    for arr in (lu, ratio):
        with pytest.raises(ValueError):
            arr[1] = 0
    assert power.delta_pair[0] is lu and power.delta_pair[1] is ratio
    assert int(lu[4]) == int(ctx.log[ctx.pow(ctx.add(4, 1), 3)])  # 4 is not 0 or -1
    for _, pair1, pair0 in power.n4_pairs:
        for arr in (pair1, pair0):
            with pytest.raises(ValueError):
                arr[1] = 0
    for name in ("ctx", "d", "powd"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(power, name, None)


# ---------------------------------------------------------------------------
# Trace
# ---------------------------------------------------------------------------

def test_trace_gf4():
    ctx = get_ctx(2, 2)
    assert [ctx.trace(x) for x in range(4)] == [0, 0, 1, 1]


def test_trace_kernel_size():
    ctx = get_ctx(3, 2)
    assert sum(1 for x in range(9) if ctx.trace(x) == 0) == 3


def test_trace_additive_and_frobenius_invariant():
    rng = SplitMix64(5)
    for p, n in [(2, 5), (3, 3), (5, 2)]:
        ctx = get_ctx(p, n)
        for _ in range(100):
            x, y = rng.below(ctx.q), rng.below(ctx.q)
            assert ctx.trace(ctx.add(x, y)) == (ctx.trace(x) + ctx.trace(y)) % p
            assert ctx.trace(ctx.pow(x, p)) == ctx.trace(x)
        assert set(ctx.trace(x) for x in range(ctx.q)) == set(range(p))


# ---------------------------------------------------------------------------
# Quadratic character
# ---------------------------------------------------------------------------

def test_chi_gf5():
    ctx = get_ctx(5, 1)
    assert ctx.chi(0) == 0
    assert ctx.chi(1) == 1
    assert ctx.chi(2) == -1
    assert ctx.chi(4) == 1


def test_chi_minus_one_gf9():
    ctx = get_ctx(3, 2)
    assert ctx.chi(ctx.neg_one) == 1  # q = 1 (mod 4)


def test_chi_char2_is_error():
    with pytest.raises(CharTwoUnsupported):
        get_ctx(2, 3).chi(1)


def test_chi_squares_multiplicativity_and_balance():
    rng = SplitMix64(13)
    for p, n in [(3, 2), (5, 2), (7, 1), (11, 1), (3, 4)]:
        ctx = get_ctx(p, n)
        squares = {ctx.mul(x, x) for x in range(1, ctx.q)}
        for x in range(ctx.q):
            expected = 0 if x == 0 else (1 if x in squares else -1)
            assert ctx.chi(x) == expected
        for _ in range(100):
            a, b = rng.below(ctx.q), rng.below(ctx.q)
            assert ctx.chi(ctx.mul(a, b)) == ctx.chi(a) * ctx.chi(b)
        assert sum(ctx.chi(x) for x in range(ctx.q)) == 0


# ---------------------------------------------------------------------------
# gcd closed form
# ---------------------------------------------------------------------------

def test_gcd_pk1_examples():
    assert gcd_pk1(3, 1, 2) == 4 and math.gcd(3 + 1, 3**2 - 1) == 4
    assert gcd_pk1(3, 1, 3) == 2 and math.gcd(3 + 1, 3**3 - 1) == 2
    assert gcd_pk1(2, 1, 2) == 3 and math.gcd(2 + 1, 2**2 - 1) == 3


def test_gcd_pk1_matches_euclid():
    for p in (2, 3, 5, 7, 11, 13):
        for k in range(1, 13):
            for n in range(1, 13):
                assert gcd_pk1(p, k, n) == math.gcd(p**k + 1, p**n - 1)


# ---------------------------------------------------------------------------
# Quadratic root counts (Lemma-style closed form vs enumeration)
# ---------------------------------------------------------------------------

def _root_counts_by_enumeration(ctx, a):
    """For x^2 + a*x + b: counts per b, derived from b = -(x^2 + a*x)."""
    X = np.arange(ctx.q, dtype=np.int64)
    vals = ctx.vec_add(ctx.pow_table(2), ctx.vec_scale(X, a))
    return np.bincount(ctx.vec_sub(np.int64(0), vals), minlength=ctx.q)


def test_quadratic_solution_count_examples():
    gf4 = get_ctx(2, 2)
    assert quadratic_solution_count(gf4, 1, 1) == 2
    gf5 = get_ctx(5, 1)
    assert quadratic_solution_count(gf5, 1, 4) == 1  # x^2 + x - 1, disc = 0
    gf3 = get_ctx(3, 1)
    assert quadratic_solution_count(gf3, 0, 1) == 0  # x^2 + 1 over GF(3)


def test_quadratic_solution_count_char2_a0():
    ctx = get_ctx(2, 3)
    for b in range(8):
        assert quadratic_solution_count(ctx, 0, b) == 1


def test_quadratic_solution_count_vs_enumeration():
    for p, n in [(2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2)]:
        ctx = get_ctx(p, n)
        for a in range(ctx.q):
            counts = _root_counts_by_enumeration(ctx, a)
            for b in range(ctx.q):
                assert quadratic_solution_count(ctx, a, b) == counts[b], (p, n, a, b)


# ---------------------------------------------------------------------------
# Quadratic character sums
# ---------------------------------------------------------------------------

def _char_sum_direct(ctx, a2, a1, a0):
    X = np.arange(ctx.q, dtype=np.int64)
    vals = ctx.vec_add(
        ctx.vec_add(ctx.vec_scale(ctx.pow_table(2), a2), ctx.vec_scale(X, a1)),
        np.int64(a0),
    )
    return int(ctx.vec_chi(vals).sum(dtype=np.int64))


def test_char_sum_examples():
    gf5 = get_ctx(5, 1)
    assert char_sum_quadratic(gf5, 1, 0, 0) == 4  # f = x^2, degenerate
    assert char_sum_quadratic(gf5, 1, 0, 1) == -1  # f = x^2 + 1
    assert sum(gf5.chi((x * x + 1) % 5) for x in range(5)) == -1
    gf7 = get_ctx(7, 1)
    assert char_sum_quadratic(gf7, 2, 1, 0) == -1
    assert sum(gf7.chi((2 * x * x + x) % 7) for x in range(7)) == -1


def test_char_sum_closed_form_vs_direct():
    rng = SplitMix64(42)
    for p, n in [(3, 2), (5, 1), (5, 2), (7, 1), (7, 2), (11, 1)]:
        ctx = get_ctx(p, n)
        for _ in range(200):
            a2 = 1 + rng.below(ctx.q - 1)
            a1 = rng.below(ctx.q)
            a0 = rng.below(ctx.q)
            assert char_sum_quadratic(ctx, a2, a1, a0) == _char_sum_direct(ctx, a2, a1, a0)


def test_char_sum_rejects_bad_inputs():
    with pytest.raises(LeadingCoeffZero):
        char_sum_quadratic(get_ctx(5, 1), 0, 1, 1)
    with pytest.raises(CharTwoUnsupported):
        char_sum_quadratic(get_ctx(2, 3), 1, 1, 1)


# ---------------------------------------------------------------------------
# Cubic character sum over GF(5^n)
# ---------------------------------------------------------------------------

def test_gamma_direct_small():
    assert gamma_5n_direct(get_ctx(5, 1)) == 2
    assert gamma_5n_direct(get_ctx(5, 2)) == 6


def test_gamma_weil_envelope():
    for n in (1, 2, 3, 4):
        assert abs(gamma_5n_direct(get_ctx(5, n))) <= 2 * math.isqrt(5**n) + 2


def test_gamma_wrong_characteristic():
    with pytest.raises(WrongCharacteristic):
        gamma_5n_direct(get_ctx(3, 2))


# ---------------------------------------------------------------------------
# Sign pattern of (chi(x), chi(x+1))
# ---------------------------------------------------------------------------

def _chi_pair_product(ctx):
    """chi(x) * chi(x+1) for every x: 0 at x = 0 and x = -1, else +-1."""
    return ctx.vec_chi(np.arange(ctx.q, dtype=np.int64)) * ctx.vec_chi(ctx.succ)


def test_partition_gf5():
    # Squares of GF(5) are 1 and 4: for x = 1, 2, 3 the signs of
    # (chi(x), chi(x+1)) are (+,-), (-,-), (-,+), and no x has (+,+).
    ctx = get_ctx(5, 1)
    signs = zip(ctx.vec_chi(np.arange(5)).tolist(), ctx.vec_chi(ctx.succ).tolist())
    assert list(signs)[1:4] == [(1, -1), (-1, -1), (-1, 1)]
    assert _chi_pair_product(ctx).tolist() == [0, -1, 1, -1, 0]


def test_partition_sums_and_cross_check():
    for p, n in [(3, 2), (5, 1), (5, 2), (7, 1), (7, 2), (11, 1)]:
        ctx = get_ctx(p, n)
        prod = _chi_pair_product(ctx)
        assert np.flatnonzero(prod == 0).tolist() == [0, ctx.neg_one]  # q - 2 signs
        # sum chi(x(x+1)) = -1 by the closed-form character sum
        assert int(prod.sum()) == char_sum_quadratic(ctx, 1, 1, 0)
