"""Property tests of field arithmetic over random fields with q <= 2^12."""

from hypothesis import given, settings, strategies as st

from cdspec import FieldSpec, parse_field_spec
from cdspec.field import is_prime

from conftest import get_ctx, poly_mul

FIELDS = [(p, n) for p in range(2, 1 << 12) if is_prime(p)
          for n in range(1, 13) if p ** n <= 1 << 12]

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def field_and_elements(draw, count=3, odd=False):
    p, n = draw(st.sampled_from([f for f in FIELDS if f[0] != 2] if odd else FIELDS))
    ctx = get_ctx(p, n)
    return ctx, [draw(st.integers(0, ctx.q - 1)) for _ in range(count)]


@PROPERTY
@given(field_and_elements())
def test_distributivity(case):
    ctx, (a, b, c) = case
    assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
    assert ctx.mul(a, ctx.sub(b, c)) == ctx.sub(ctx.mul(a, b), ctx.mul(a, c))


@PROPERTY
@given(field_and_elements())
def test_mul_and_inv(case):
    ctx, (a, b, c) = case
    assert ctx.mul(a, b) == poly_mul(ctx, a, b)
    assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
    if a:
        assert ctx.mul(a, ctx.inv(a)) == 1
        assert ctx.inv(ctx.inv(a)) == a
        if b:
            assert ctx.inv(ctx.mul(a, b)) == ctx.mul(ctx.inv(a), ctx.inv(b))


@PROPERTY
@given(field_and_elements(count=2))
def test_trace_additive_and_frobenius_invariant(case):
    ctx, (a, b) = case
    assert ctx.trace(ctx.add(a, b)) == (ctx.trace(a) + ctx.trace(b)) % ctx.p
    assert ctx.trace(ctx.pow(a, ctx.p)) == ctx.trace(a)
    assert 0 <= ctx.trace(a) < ctx.p


@PROPERTY
@given(field_and_elements(count=2, odd=True))
def test_chi_multiplicative(case):
    ctx, (a, b) = case
    assert ctx.chi(ctx.mul(a, b)) == ctx.chi(a) * ctx.chi(b)


@PROPERTY
@given(st.integers(2, 10 ** 6), st.integers(1, 64),
       st.none() | st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=8).map(tuple))
def test_parse_field_spec_round_trip(p, n, modulus):
    suffix = "" if modulus is None else "/" + ",".join(map(str, modulus))
    assert parse_field_spec(f"{p}^{n}{suffix}") == FieldSpec(p, n, modulus)
    if n == 1:
        assert parse_field_spec(f"{p}{suffix}") == FieldSpec(p, 1, modulus)
