import math

from cdspec import FieldSpec, build_context
from cdspec.field import _pmod, _pmul, _ppowmod, decode_digits, encode_digits

_CTX_CACHE = {}


def get_ctx(p, n, modulus=None):
    """Context cache shared across the suite; contexts are immutable."""
    key = (p, n, modulus)
    if key not in _CTX_CACHE:
        _CTX_CACHE[key] = build_context(FieldSpec(p, n, modulus))
    return _CTX_CACHE[key]


def poly_mul(ctx, a, b):
    """a * b in ctx by polynomial arithmetic mod its modulus, table-free."""
    p, n = ctx.p, ctx.n
    prod = _pmul(decode_digits(a, p, n), decode_digits(b, p, n), p)
    return encode_digits(_pmod(prod, ctx.modulus, p), p)


def poly_pow(ctx, a, e):
    """a^e in ctx for e >= 0 by polynomial square-and-multiply, table-free."""
    return encode_digits(_ppowmod(decode_digits(a, ctx.p, ctx.n), e, ctx.modulus, ctx.p), ctx.p)


def is_prime_trial(m):
    return m >= 2 and all(m % f for f in range(2, math.isqrt(m) + 1))


def odd_fields(lo, hi):
    """Every odd-characteristic (p, n) with lo < p^n <= hi."""
    return [(p, n) for p in range(3, hi + 1) if is_prime_trial(p)
            for n in range(1, hi.bit_length()) if lo < p ** n <= hi]
