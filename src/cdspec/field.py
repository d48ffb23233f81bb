"""Arithmetic, characters, and character sums over GF(p^n).

Field elements are encoded as integers in [0, p^n): the little-endian
base-p digits of the encoding are the coefficients of the residue
polynomial.  A FieldContext carries dense, read-only tables, one per fact:
exp (antilog), log and succ (x -> x + 1); in odd characteristic also the
Zech-logarithm table Z(k) = log(1 + g^k), read by zech_sum alone: the sum
behind vec_sub (and so vec_add), the spectrum and the scan sample
(characteristic 2 adds by XOR).  Every field order up to DEFAULT_ENUM_CAP
gets its tables.  The quadratic character and the trace are derived, not
stored: g is a nonsquare, so chi(g^k) = (-1)^k, and the trace is
GF(p)-linear in the digits.  A context is immutable; spectrum.PowerMap owns
the tables of a d.

The tables are built from GF(p)-linear maps on digit vectors.  The matrix
of x -> a*x is a combination of powers of the modulus's companion matrix.
The generator is the least element whose matrix powers pass the order test
for every prime factor of q - 1.  The antilog table is built by doubling,
exp[m:2m] = g^m * exp[:m], each block mapped through two lookup tables of
about sqrt(q) entries (low and high halves of the digits) and one
digit-wise add.  In characteristic 2 the add is XOR, and the tables of g
are built once, from the images of the basis vectors; each step squares
the map by passing both tables through it.  In odd characteristic the
tables are built per matrix, from the square of the last.  The absolute
trace is the matrix trace of x -> a*x, so Tr(x) = sum_i x_i Tr(X^i) mod p
over the n basis traces.  pow_table is one gather in x order,
exp[d * log x mod (q-1)], with one remainder pass over the field.
vec_scale adds log c - (q-1) to log x and so needs no division pass: the
index into exp stays in [-(q-1), q-1), where a negative index wraps.
vec_mul_poly and the digit loop of the scalar add remain as table-free
references; the table-free scalar product and powers are the polynomial
routines (_pmul, _pmod, _ppowmod) that Ben-Or's test runs.

Every table entry is below q <= 2^22 < 2^31, so the tables are int32, and
so are the per-d tables of spectrum.PowerMap: half the memory and half the
cache footprint of int64.  An index array built by arithmetic is int64, and
so is every log times an exponent (or it is a Python int): under numpy 2 an
int32 array or scalar times a Python int stays int32 and wraps silently.
A gather indexed by an int32 table (powd at succ, log at powd) goes
through ndarray.take, which converts the index once; fancy indexing by an
int32 array converts it chunk by chunk, two to three times slower at
q = 2^11 to 2^14.  zech_sum and vec_scale write their result over their
int64 index and return it, so bincount and the callers that index with it
need no conversion.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    CharTwoUnsupported,
    DivisionByZero,
    FieldTooLarge,
    LeadingCoeffZero,
    NotPrime,
    ParseError,
    ReducibleModulus,
    WrongCharacteristic,
)

DEFAULT_ENUM_CAP = 1 << 22

_VEC_CHUNK = 1 << 16
_GEN_BATCH = 16  # generator candidates tested per batch
_UNPACK_BITS = 12  # packed bits per unpacking lookup (4096-entry tables)


# ---------------------------------------------------------------------------
# Integer helpers
# ---------------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11)


def is_prime(m: int) -> bool:
    """Miller-Rabin on _MR_BASES, exact below 2,152,302,898,747 (Jaeschke,
    Math. Comp. 61, 1993): past every p <= 2^22 and every l < 2^28 of N4."""
    if m < 2:
        return False
    for b in _MR_BASES:
        if m % b == 0:
            return m == b
    s, t = 0, m - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    for b in _MR_BASES:
        x = pow(b, t, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def prime_factors(m: int) -> list[int]:
    """Distinct prime factors of m, ascending."""
    out = []
    f = 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1 if f == 2 else 2
    if m > 1:
        out.append(m)
    return out


def encode_digits(digits: Sequence[int], p: int) -> int:
    v = 0
    for d in reversed(digits):
        v = v * p + d
    return v


def decode_digits(value: int, p: int, n: int) -> list[int]:
    out = []
    for _ in range(n):
        value, d = divmod(value, p)
        out.append(d)
    return out


def _frozen(arr: np.ndarray) -> np.ndarray:
    """arr made read-only: contexts and power maps share their tables."""
    arr.setflags(write=False)
    return arr


def _digit_rows(values: np.ndarray, p: int, n: int) -> np.ndarray:
    """Little-endian base-p digits of each value, shape (len(values), n)."""
    place = p ** np.arange(n, dtype=np.int64)
    return np.asarray(values, dtype=np.int64)[:, None] // place % p


def _xor_span(images: np.ndarray) -> np.ndarray:
    """t[v] = XOR of images[i] over the set bits i of v, as int32."""
    t = np.zeros(1 << len(images), dtype=np.int32)
    for i, image in enumerate(images):
        t[1 << i:2 << i] = t[:1 << i] ^ image
    return t


def _xor_tables(mat: np.ndarray) -> np.ndarray:
    """The lookup tables of x -> digits(x) @ mat over GF(2): the images of
    every low h = ceil(n/2) bits, then of every high n - h bits, as XOR-spans
    of the images of the basis vectors (the rows of mat)."""
    n = len(mat)
    h = (n + 1) // 2
    images = mat % 2 @ (np.int64(1) << np.arange(n, dtype=np.int64))
    return np.concatenate([_xor_span(images[:h]), _xor_span(images[h:])])


@functools.lru_cache(maxsize=64)
def _linear_mapper(p: int, n: int):
    """apply(mat, x): the encodings of digits(x) @ mat over GF(p), cached per
    (p, n): the odd antilog build and N4's map L(w) share one per field.

    For n = 1 this is x * mat mod p.  Otherwise it is the image of the low
    h = ceil(n/2) digits plus that of the high ones: two lookup tables of
    about sqrt(q) packed digit vectors, built per matrix, and one digit-wise
    add.  Each digit takes a lane of (2p - 2).bit_length() bits, so one
    integer add overflows no lane (lane sums stay at most 2p - 2), and tables
    over a few lanes at a time reduce each lane mod p and put it at its
    base-p place.  The widest packing, 2-bit lanes at 2^22, takes 44 bits."""
    if n == 1:  # x * mat < p^2, past 2^31 once p > 46,341: int64
        return lambda mat, x: np.asarray(x, dtype=np.int64) * int(mat[0, 0]) % p
    h = (n + 1) // 2
    split = p ** h
    # digit rows of every low part (first h columns), then of every high part
    parts = np.zeros((split + p ** (n - h), n), dtype=np.int64)
    parts[:split, :h] = _digit_rows(np.arange(split), p, h)
    parts[split:, h:] = _digit_rows(np.arange(p ** (n - h)), p, n - h)
    w = (2 * p - 2).bit_length()
    weights = np.int64(1) << (w * np.arange(n, dtype=np.int64))
    # Unpacking reads g lanes at a time through a table that maps each lane
    # sum s_i < 2p to (s_i mod p) at its base-p place.
    g = max(1, min(n, _UNPACK_BITS // w))
    lanes = np.arange(1 << (g * w), dtype=np.int64)
    group = sum((lanes >> (w * i) & (1 << w) - 1) % p * p ** i for i in range(g))
    unpack = [(w * j, group * p ** j) for j in range(0, n, g)]
    group_mask = (1 << (g * w)) - 1

    def apply(mat, x):
        table = parts @ mat % p @ weights
        hi, lo = np.divmod(x, split)
        s = table[:split].take(lo) + table[split:].take(hi)
        out = unpack[0][1][s & group_mask]
        for shift, digits in unpack[1:]:
            out += digits[(s >> shift) & group_mask]
        return out
    return apply


# ---------------------------------------------------------------------------
# Polynomials over GF(p), as coefficient lists (low to high, no trailing zeros)
# ---------------------------------------------------------------------------

def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a: list[int], f: list[int], p: int) -> list[int]:
    a = list(a)
    df = len(f) - 1
    inv_lead = pow(f[-1], p - 2, p)
    while len(a) - 1 >= df and a:
        k = len(a) - 1 - df
        c = (a[-1] * inv_lead) % p
        for i, fi in enumerate(f):
            a[k + i] = (a[k + i] - c * fi) % p
        _ptrim(a)
    return a


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, _pmod(a, b, p)
    return a


def _ppowmod(base: list[int], e: int, f: list[int], p: int) -> list[int]:
    result = [1]
    acc = _pmod(base, f, p)
    while e > 0:
        if e & 1:
            result = _pmod(_pmul(result, acc, p), f, p)
        acc = _pmod(_pmul(acc, acc, p), f, p)
        e >>= 1
    return result


def is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Ben-Or's test for a monic polynomial f of degree n over GF(p).

    f is irreducible iff gcd(f, x^(p^i) - x) = 1 for every i <= n/2.  The
    test is exact: x^(p^i) - x is the product of the monic irreducibles
    whose degree divides i, and a reducible f has an irreducible factor of
    degree i <= n/2, which divides it.  It stops at the first such i."""
    f = _ptrim(list(coeffs))
    n = len(f) - 1
    h = [0, 1]
    for _ in range(n // 2):
        h = _ppowmod(h, p, f, p)  # x^(p^i) mod f
        g = h + [0] * (2 - len(h))
        g[1] = (g[1] - 1) % p
        if len(_pgcd(f, _ptrim(g), p)) != 1:
            return False
    return n >= 1


def find_irreducible(p: int, n: int, index: int = 0) -> tuple[int, ...]:
    """index-th monic irreducible of degree n, ordered by the integer value
    of the non-leading coefficient vector (constant term varying fastest)."""
    seen = 0
    for k in range(p ** n):
        coeffs = decode_digits(k, p, n) + [1]
        if is_irreducible(coeffs, p):
            if seen == index:
                return tuple(coeffs)
            seen += 1
    raise ReducibleModulus(f"no irreducible of degree {n} over GF({p}) at index {index}")


# ---------------------------------------------------------------------------
# Field specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldSpec:
    """Characteristic p, extension degree n, optional modulus (coefficients
    low to high, length n+1, monic).  Modulus is auto-selected when absent."""

    p: int
    n: int
    modulus: Optional[tuple[int, ...]] = None


def parse_field_spec(text: str) -> FieldSpec:
    """Parse "p^n" or "p^n/c0,c1,...,cn" (modulus coefficients low to high)."""
    body, slash, mod_part = text.partition("/")
    try:
        p_str, caret, n_str = body.partition("^")
        p = int(p_str)
        n = int(n_str) if caret else 1
    except ValueError as exc:
        raise ParseError(f"bad field spec {text!r}") from exc
    modulus = None
    if slash:
        try:
            modulus = tuple(int(c) for c in mod_part.split(","))
        except ValueError as exc:
            raise ParseError(f"bad modulus in {text!r}") from exc
    return FieldSpec(p=p, n=n, modulus=modulus)


# ---------------------------------------------------------------------------
# Field context
# ---------------------------------------------------------------------------

class FieldContext:
    """A concrete GF(p^n).  Construct via build_context.

    Every attribute is set during __init__ and every table is read-only, so
    a context has no mutable state.  The tables are int32: exp (q - 1
    entries), log (q entries, -1 at 0), succ (q entries) and, in odd
    characteristic, zech (q - 1 entries)."""

    def __init__(self, spec: FieldSpec, modulus: tuple[int, ...]):
        self.p = spec.p
        self.n = spec.n
        self.q = spec.p ** spec.n
        self.modulus = modulus
        self.neg_one = 1 if self.p == 2 else self.p - 1
        cpow = self._companion_powers()
        self.generator = self._find_generator(cpow)
        self._build_tables(cpow)

    # -- construction internals ------------------------------------------

    def _reduction_rows(self) -> list[list[int]]:
        """x^(n+t) mod modulus for t in [0, n-2], as digit rows (vec_mul_poly)."""
        p, n = self.p, self.n
        rows = []
        cur = _pmod([0] * n + [1], self.modulus, p)  # x^n mod f
        for _ in range(max(n - 1, 0)):
            row = cur + [0] * (n - len(cur))
            rows.append(row[:n])
            cur = _pmod([0] + cur, self.modulus, p)  # multiply by x
        return rows

    # Multiplication by a fixed a is GF(p)-linear on digit vectors.  With
    # digits as rows, its matrix R_a has row i = digits of a * X^i, and
    # R_a = sum_i a_i R_X^i for the companion matrix R_X of the modulus.

    def _companion_powers(self) -> np.ndarray:
        """R_X^0, ..., R_X^(n-1), stacked; row 0 of R_X^i is digits of X^i."""
        p, n = self.p, self.n
        comp = np.zeros((n, n), dtype=np.int64)
        comp[:-1, 1:] = np.eye(n - 1, dtype=np.int64)
        comp[-1] = [(-c) % p for c in self.modulus[:n]]  # X^n mod modulus
        out = np.empty((n, n, n), dtype=np.int64)
        out[0] = np.eye(n, dtype=np.int64)
        for i in range(1, n):
            out[i] = out[i - 1] @ comp % p
        return out

    def _mul_matrices(self, elems: np.ndarray, cpow: np.ndarray) -> np.ndarray:
        """R_a for every a in elems, shape (len(elems), n, n)."""
        n = self.n
        flat = _digit_rows(elems, self.p, n) @ cpow.reshape(n, n * n) % self.p
        return flat.reshape(-1, n, n)

    def _find_generator(self, cpow: np.ndarray) -> int:
        """Least a with a^((q-1)/r) != 1 for every prime r | q - 1, tested
        on a batch of candidates at once.  The digits of a^e are those of 1
        times R_a^e, built from the squarings R_a^(2^k) that every e shares."""
        p, n, order = self.p, self.n, self.q - 1
        exps = [order // r for r in prime_factors(order)]
        # per bit k: which exponents have it set
        steps = [np.array([j for j, e in enumerate(exps) if e >> k & 1], dtype=np.intp)
                 for k in range(order.bit_length())]
        one = np.zeros(n, dtype=np.int64)
        one[0] = 1
        # GF(p)^* has order p - 1 < q - 1, so for n > 1 the search starts at X.
        for lo in range(1 if n == 1 else p, self.q, _GEN_BATCH):
            cands = np.arange(lo, min(lo + _GEN_BATCH, self.q), dtype=np.int64)
            sq = self._mul_matrices(cands, cpow)
            powers = np.broadcast_to(one, (len(cands), len(exps), n)).copy()
            for sel in steps:
                if sel.size:
                    powers[:, sel] = powers[:, sel] @ sq % p
                sq = sq @ sq % p
            primitive = (powers != one).any(axis=2).all(axis=1)
            if primitive.any():
                return int(cands[primitive.argmax()])
        raise ReducibleModulus(f"no generator found; modulus {self.modulus} is not irreducible")

    def _build_exp(self, cpow: np.ndarray) -> np.ndarray:
        """exp[k] = g^k by doubling: exp[m:2m] = g^m * exp[:m], where the
        map x -> g^(2m) * x is x -> g^m * x applied twice.

        In characteristic 2 that map is held as two lookup tables, the
        images of the low h = ceil(n/2) bits and of the high n - h bits,
        and g^m * x is their XOR.  The tables of g are XOR-spans of the
        images of the basis vectors; each step squares the map by passing
        both old tables through it.  In odd characteristic _linear_mapper
        builds the tables of each step from its matrix."""
        p, n, order = self.p, self.n, self.q - 1
        exp = np.empty(order, dtype=np.int32)
        exp[0] = 1
        gm = self._mul_matrices(np.array([self.generator]), cpow)[0]
        m = 1
        if p != 2:
            apply = _linear_mapper(p, n)
            while m < order:
                k = min(m, order - m)
                exp[m:m + k] = apply(gm, exp[:k])
                gm = gm @ gm % p
                m *= 2
            return exp
        h = (n + 1) // 2
        split, mask = 1 << h, (1 << h) - 1
        table = _xor_tables(gm)
        while m < order:
            k = min(m, order - m)
            low, high = table[:split], table[split:]
            x, out = exp[:k], exp[m:m + k]
            index = np.bitwise_and(x, mask, dtype=np.intp)
            lo = low.take(index)
            np.right_shift(x, h, out=index)
            high.take(index, out=out, mode="clip")  # in range; "clip" skips a copy
            out ^= lo
            if 2 * m < order:  # both new tables at once, from the old ones
                table = low.take(table & mask) ^ high.take(table >> h)
            m *= 2
        return exp

    def _build_tables(self, cpow: np.ndarray) -> None:
        p, n, q = self.p, self.n, self.q
        order = q - 1
        exp = self._build_exp(cpow)
        log = np.full(q, -1, dtype=np.int32)
        log.put(exp, np.arange(order, dtype=np.int32))
        if log[0] != -1 or log[1:].min() < 0:  # exp missed an element
            raise ReducibleModulus(
                f"element {self.generator} does not generate GF({p}^{n})^*"
            )
        self.exp = _frozen(exp)
        self.log = _frozen(log)
        succ = np.arange(1, q + 1, dtype=np.int32)
        succ[p - 1::p] -= p  # the constant digit wraps from p - 1 to 0
        self.succ = _frozen(succ)
        if p != 2:
            # Zech logarithm Z(k) = log(1 + g^k); -1 where 1 + g^k = 0
            self.zech = _frozen(log.take(succ.take(exp)))
        # The absolute trace is GF(p)-linear and Tr(a) is the matrix trace of
        # R_a, so Tr(x) = sum_i x_i Tr(X^i) needs only the basis traces.
        self._basis_trace = tuple(int(t) % p for t in np.trace(cpow, axis1=1, axis2=2))

    # -- scalar arithmetic ------------------------------------------------

    def add(self, a: int, b: int) -> int:
        p = self.p
        if p == 2:
            return a ^ b
        out, pk = 0, 1
        while a or b:
            a, da = divmod(a, p)
            b, db = divmod(b, p)
            out += ((da + db) % p) * pk
            pk *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        return self.mul(self.neg_one, a)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp.item((self.log.item(a) + self.log.item(b)) % (self.q - 1))

    def inv(self, a: int) -> int:
        return self.pow(a, -1)

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise DivisionByZero("inverse of 0")
            return 0
        e %= self.q - 1
        return self.exp.item(self.log.item(a) * e % (self.q - 1))  # Python ints: no wrap

    def trace(self, x: int) -> int:
        """Absolute trace x + x^p + ... + x^(p^(n-1)), a prime-field value."""
        p, out = self.p, 0
        for t in self._basis_trace:
            x, digit = divmod(x, p)
            out += digit * t
        return out % p

    def chi(self, x: int) -> int:
        """Quadratic character: +1 for nonzero squares, -1 for nonsquares, 0 at 0.
        The generator is a nonsquare, so chi(g^k) = (-1)^k (Euler's criterion)."""
        if self.p == 2:
            raise CharTwoUnsupported("quadratic character needs odd characteristic")
        return 0 if x == 0 else 1 - 2 * (self.log.item(x) & 1)

    # -- vectorised arithmetic on encoding arrays -------------------------

    def vec_chi(self, arr) -> np.ndarray:
        """chi(x) elementwise."""
        if self.p == 2:
            raise CharTwoUnsupported("quadratic character needs odd characteristic")
        arr = np.asarray(arr, dtype=np.int64)
        return np.where(arr == 0, 0, 1 - 2 * (self.log[arr] & 1))

    def vec_add(self, a, b):
        """a + b elementwise, with broadcasting: a - (-1) * b."""
        return self.vec_sub(a, self.vec_scale(b, self.neg_one))

    def vec_sub(self, a, b):
        """a - b elementwise, with broadcasting.  In odd characteristic
        a - b = a * (1 + (-b)/a), by zech_sum at log a and
        log(-b/a) = log b + (q-1)/2 - log a, as -1 = g^((q-1)/2)."""
        if self.p == 2:
            return np.bitwise_xor(a, b)
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        shape = np.broadcast_shapes(a.shape, b.shape)
        a, b = np.broadcast_arrays(np.atleast_1d(a), np.atleast_1d(b))
        order = self.q - 1
        la = self.log[a]  # -1 at a = 0, which zech_sum also takes
        lb = np.add(self.log[b], order // 2, dtype=np.int64)  # log(-b)
        t = lb - la
        t[t >= order] -= order  # into [-(q-1), q-1)
        out = self.zech_sum(la, t)
        a_zero = a == 0
        out[a_zero] = self.exp[lb[a_zero] % order]  # -b alone
        b_zero = b == 0
        out[b_zero] = a[b_zero]
        return out.reshape(shape)

    def zech_sum(self, la: np.ndarray, t: np.ndarray) -> np.ndarray:
        """g^la * (1 + g^t) = g^(la + Z(t)) elementwise, 0 where g^t = -1, for
        la in [0, q-1) (or -1, as Z >= 1) and int64 t in [-(q-1), q-1), where
        a negative index wraps: no pass reduces mod q-1.  The result is
        written over t and returned, so it is int64, as bincount reads it."""
        z = self.zech[t]
        zero = z < 0  # 1 + g^t = 0
        np.add(la, z, out=t)
        t -= self.q - 1
        t[zero] = 0  # la + z - (q-1) may be -q there
        t[:] = self.exp[t]
        t[zero] = 0
        return t

    def vec_mul_poly(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise field product by polynomial convolution; table-free,
        kept as a reference for the table construction."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        red_rows = self._reduction_rows()
        out = np.empty(a.shape, dtype=np.int64)
        for lo in range(0, a.size, _VEC_CHUNK):
            hi = min(lo + _VEC_CHUNK, a.size)
            out[lo:hi] = self._mul_poly_chunk(a[lo:hi], b[lo:hi], red_rows)
        return out

    def _mul_poly_chunk(self, a: np.ndarray, b: np.ndarray,
                        red_rows: list[list[int]]) -> np.ndarray:
        p, n = self.p, self.n
        if n == 1:
            return (a * b) % p
        da = [(a // p ** i) % p for i in range(n)]
        db = [(b // p ** i) % p for i in range(n)]
        conv = [np.zeros(a.shape, dtype=np.int64) for _ in range(2 * n - 1)]
        for i in range(n):
            for j in range(n):
                conv[i + j] += da[i] * db[j]
        for t in range(n - 2, -1, -1):
            top = conv[n + t] % p
            row = red_rows[t]
            for j in range(n):
                if row[j]:
                    conv[j] += top * row[j]
        out = np.zeros(a.shape, dtype=np.int64)
        pk = 1
        for j in range(n):
            out += (conv[j] % p) * pk
            pk *= p
        return out

    def vec_scale(self, arr: np.ndarray, c: int) -> np.ndarray:
        """c * arr elementwise, as a new writable int64 array (its callers
        index with it)."""
        if c == 0:
            return np.zeros(np.shape(arr), dtype=np.int64)
        shape = np.shape(arr)
        arr = np.atleast_1d(arr)
        # in [-(q-1), q-1): no mod pass
        t = np.add(self.log[arr], self.log.item(c) - (self.q - 1), dtype=np.int64)
        zero = arr == 0
        t[zero] = 0  # log 0 = -1 would give index -q at c = 1
        t[:] = self.exp[t]
        t[zero] = 0
        return t.reshape(shape)

    def pow_table(self, d: int) -> np.ndarray:
        """x^d for every x, as a new read-only array; d must be in [1, q-1].
        One gather in x order, exp[d * log x mod (q-1)]; d * log x reaches
        about q^2 > 2^31, so the product is int64."""
        if not 1 <= d <= self.q - 1:
            raise ValueError(f"exponent {d} out of range [1, {self.q - 1}]")
        # log 0 = -1, so entry 0 gathers some power; 0^d = 0 for d >= 1
        k = np.multiply(self.log, d, dtype=np.int64)
        k %= self.q - 1
        t = self.exp.take(k)
        t[0] = 0
        return _frozen(t)

    def __repr__(self) -> str:
        return f"FieldContext(GF({self.p}^{self.n}), modulus={self.modulus})"


def build_context(spec: FieldSpec) -> FieldContext:
    """Validate spec, select/verify the modulus, and build a FieldContext.

    The field order may not exceed DEFAULT_ENUM_CAP: every context holds
    q-sized tables."""
    if spec.p < 2:
        raise NotPrime(f"p must be prime, got {spec.p}")
    if spec.n < 1:
        raise ParseError(f"degree must be >= 1, got {spec.n}")
    # The size cap comes before the primality test and before q - 1 is
    # factored by trial division, and 2^n > cap already once n reaches its
    # bit length, so a huge p or n is rejected at once.
    if spec.n >= DEFAULT_ENUM_CAP.bit_length() or spec.p ** spec.n > DEFAULT_ENUM_CAP:
        raise FieldTooLarge(f"q = {spec.p}^{spec.n} exceeds enumeration cap {DEFAULT_ENUM_CAP}")
    if not is_prime(spec.p):
        raise NotPrime(f"p must be prime, got {spec.p}")
    if spec.modulus is None:
        modulus = find_irreducible(spec.p, spec.n)
    else:
        modulus = tuple(int(c) % spec.p for c in spec.modulus)
        if len(modulus) != spec.n + 1 or modulus[-1] != 1:
            raise ReducibleModulus(
                f"modulus must be monic of degree {spec.n}: {spec.modulus}"
            )
        if not is_irreducible(modulus, spec.p):
            raise ReducibleModulus(f"modulus {spec.modulus} is reducible over GF({spec.p})")
    return FieldContext(spec, modulus)


# ---------------------------------------------------------------------------
# Spec-level operations
# ---------------------------------------------------------------------------

def gcd_pk1(p: int, k: int, n: int) -> int:
    """gcd(p^k + 1, p^n - 1) via the three-branch closed form."""
    if p == 2:
        return (2 ** math.gcd(2 * k, n) - 1) // (2 ** math.gcd(k, n) - 1)
    if (n // math.gcd(n, k)) % 2 == 1:
        return 2
    return p ** math.gcd(k, n) + 1


def quadratic_solution_count(ctx: FieldContext, a: int, b: int) -> int:
    """Number of roots of x^2 + a*x + b in the field (0, 1, or 2)."""
    if ctx.p == 2:
        if a == 0:
            return 1  # x -> x^2 is a bijection in characteristic 2
        t = ctx.mul(b, ctx.inv(ctx.mul(a, a)))
        return 2 if ctx.trace(t) == 0 else 0
    four = 4 % ctx.p
    disc = ctx.sub(ctx.mul(a, a), ctx.mul(four, b))
    s = ctx.chi(disc)
    if s == 1:
        return 2
    if s == 0:
        return 1
    return 0


def char_sum_quadratic(ctx: FieldContext, a2: int, a1: int, a0: int) -> int:
    """Sum of chi(a2*x^2 + a1*x + a0) over the field, in closed form."""
    if ctx.p == 2:
        raise CharTwoUnsupported("character sums need odd characteristic")
    if a2 == 0:
        raise LeadingCoeffZero("leading coefficient must be nonzero")
    four = 4 % ctx.p
    disc = ctx.sub(ctx.mul(a1, a1), ctx.mul(four, ctx.mul(a0, a2)))
    if disc == 0:
        return (ctx.q - 1) * ctx.chi(a2)
    return -ctx.chi(a2)


def gamma_5n_direct(ctx: FieldContext) -> int:
    """Sum of chi(x*(x-1)*(x+1)) over GF(5^n), by direct enumeration."""
    if ctx.p != 5:
        raise WrongCharacteristic(f"requires characteristic 5, got {ctx.p}")
    X = np.arange(ctx.q, dtype=np.int64)
    cubes = ctx.pow_table(3)
    vals = ctx.vec_sub(cubes, X)  # x^3 - x = x(x-1)(x+1)
    return int(ctx.vec_chi(vals).sum(dtype=np.int64))

