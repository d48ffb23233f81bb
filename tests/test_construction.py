"""Differential tests of context construction against the polynomial path.

The tables are built from GF(p)-linear maps (matrix generator search,
doubling exp table); the trace and the quadratic character are derived from
the basis traces and the parity of log.  The references below are written
out here: the generator from the order test on polynomial powers (_ppowmod,
through conftest.poly_pow), the exp table by baby/giant steps through
vec_mul_poly, chi from the set of squares, and the trace as a sum of
Frobenius iterates.
"""

import math

import numpy as np
import pytest

from cdspec import FieldSpec, build_context, find_irreducible
from cdspec.field import is_prime, prime_factors
from cdspec.verifier import SplitMix64

from conftest import poly_mul, poly_pow

# Every field with n >= 2 and q <= 2^12, and every GF(p) with p <= 600.
EXTENSION_FIELDS = [(p, n) for p in range(2, 65) if is_prime(p)
                    for n in range(2, 13) if p ** n <= 1 << 12]
PRIME_FIELDS = [(p, 1) for p in range(2, 601) if is_prime(p)]
# One non-default modulus per characteristic, on its largest such field.
OTHER_MODULI = [(p, max(m for r, m in EXTENSION_FIELDS if r == p))
                for p in sorted({r for r, _ in EXTENSION_FIELDS})]


def _reference_generator(ctx):
    order = ctx.q - 1
    factors = prime_factors(order) if ctx.q > 2 else []
    for cand in range(1, ctx.q):
        if all(poly_pow(ctx, cand, order // r) != 1 for r in factors):
            return cand
    raise AssertionError("no generator")


def _reference_exp(ctx, g):
    """g^k for k < q - 1 by baby steps g^j, giant steps g^(block*i), and one
    vec_mul_poly of the two."""
    order = ctx.q - 1
    block = math.isqrt(order) + 1
    baby = [1]
    for _ in range(block - 1):
        baby.append(poly_mul(ctx, baby[-1], g))
    giant_step = poly_mul(ctx, baby[-1], g)
    giant = [1]
    for _ in range(-(-order // block) - 1):
        giant.append(poly_mul(ctx, giant[-1], giant_step))
    idx = np.arange(order, dtype=np.int64)
    return ctx.vec_mul_poly(np.array(giant)[idx // block], np.array(baby)[idx % block])


def _digit_sum(terms, p, n):
    """Digit-wise sum over GF(p) of equal-shape encoding arrays."""
    out = np.zeros_like(terms[0])
    for i in range(n):
        out += sum(t // p ** i % p for t in terms) % p * p ** i
    return out


def _reference_tables(ctx, g):
    p, n, q = ctx.p, ctx.n, ctx.q
    order = q - 1
    idx = np.arange(order, dtype=np.int64)
    exp = _reference_exp(ctx, g)
    log = np.full(q, -1, dtype=np.int64)
    log[exp] = idx
    X = np.arange(q, dtype=np.int64)
    d0 = X % p
    succ = X - d0 + (d0 + 1) % p
    tables = {"exp": exp, "log": log, "succ": succ}
    chi = None
    if p != 2:
        tables["zech"] = log[succ[exp]]
        chi = np.full(q, -1, dtype=np.int64)
        chi[ctx.vec_mul_poly(X, X)] = 1
        chi[0] = 0
    # x^(p^i) = g^(k * p^i) for x = g^k
    trace = np.zeros(q, dtype=np.int64)
    trace[exp] = _digit_sum([exp[idx * p ** i % order] for i in range(n)], p, n)
    return tables, chi, trace


def _frobenius_trace(ctx, x):
    acc = 0
    for i in range(ctx.n):
        acc = ctx.add(acc, poly_pow(ctx, x, ctx.p ** i))
    return acc


def _check_against_reference(ctx):
    g = _reference_generator(ctx)
    assert ctx.generator == g
    tables, chi, trace = _reference_tables(ctx, g)
    stored = {k for k, v in vars(ctx).items() if isinstance(v, np.ndarray)}
    assert stored == set(tables)  # one table per fact; chi and trace are derived
    for name, ref in tables.items():
        assert np.array_equal(getattr(ctx, name), ref), name
    assert [ctx.trace(x) for x in range(ctx.q)] == trace.tolist()
    if chi is not None:
        assert [ctx.chi(x) for x in range(ctx.q)] == chi.tolist()
        assert np.array_equal(ctx.vec_chi(np.arange(ctx.q)), chi)
    rng = SplitMix64(ctx.q)
    for x in [0, 1, ctx.generator] + [rng.below(ctx.q) for _ in range(5)]:
        assert ctx.trace(x) == _frobenius_trace(ctx, x)


@pytest.mark.parametrize("p, n", EXTENSION_FIELDS, ids=lambda v: str(v))
def test_construction_matches_polynomial_path_extension_fields(p, n):
    ctx = build_context(FieldSpec(p, n))
    assert ctx.modulus == find_irreducible(p, n)
    _check_against_reference(ctx)


def test_construction_matches_polynomial_path_prime_fields():
    for p, n in PRIME_FIELDS:
        ctx = build_context(FieldSpec(p, n))
        assert ctx.modulus == (0, 1)
        _check_against_reference(ctx)


@pytest.mark.parametrize("p, n", OTHER_MODULI, ids=lambda v: str(v))
def test_construction_matches_polynomial_path_other_modulus(p, n):
    modulus = find_irreducible(p, n, 1)
    ctx = build_context(FieldSpec(p, n, modulus))
    assert ctx.modulus == modulus != find_irreducible(p, n)
    _check_against_reference(ctx)


@pytest.mark.parametrize("p, n", [(2, 20), (3, 13)])
def test_construction_spot_check_large(p, n):
    ctx = build_context(FieldSpec(p, n))
    g = ctx.generator
    assert all(poly_pow(ctx, g, (ctx.q - 1) // r) != 1 for r in prime_factors(ctx.q - 1))
    assert all(any(poly_pow(ctx, a, (ctx.q - 1) // r) == 1 for r in prime_factors(ctx.q - 1))
               for a in range(1, g))
    rng = SplitMix64(p ** n)
    for k in [0, ctx.q - 3] + [rng.below(ctx.q - 2) for _ in range(40)]:
        assert int(ctx.exp[k + 1]) == poly_mul(ctx, int(ctx.exp[k]), g)
    for x in [1, g, ctx.q - 1] + [rng.below(ctx.q) for _ in range(20)]:
        assert ctx.trace(x) == _frobenius_trace(ctx, x)
