"""Exhaustive c-differential statistics of power maps x^d.

The single difference function Delta_c(x) = (x+1)^d - c*x^d determines the
whole c-DDT of a power map: row a scales to row 1, and the row-0 counts are
controlled by gcd(d, q-1).  The spectrum is one histogram pass over the
field, so it costs O(q) per (d, c).  _delta alone forms Delta_c, from a pair
of per-d arrays that a PowerMap keeps for the whole field (delta_pair) and a
DeltaSample computes on a fixed subset of x for a block of d at once, with
no division per d.  Counts over a subset never exceed counts over the field,
so a value hit more than U times there, which a sorted row of the block
shows as two equal entries U places apart, proves the uniformity exceeds U
before any q-sized table is built.

The quadruple count N4 of the second identity has two exact paths.
n4_fourier, which the verifier runs, sums products of additive-character
transforms over GF(p)^n: O(q*n*p) work per d and prime l = 1 (mod p), with
one prime when q <= 625 and a few up to the context cap, and O(q) per c.
It reads x^d, the trace and c*x alone, never the spectrum.  What it reads of
the field alone (L(w), -w and the weights zeta^Tr(w)) is one read-only
_N4Field per context, built on first use and dropped with the context, so
every d of a field shares it.  n4_bruteforce enumerates the quadruples in
O(q^2) and is kept as its reference.
"""

from __future__ import annotations

import functools
import itertools
import math
import weakref
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import BudgetExceeded
from .field import FieldContext, _frozen, _linear_mapper, is_prime

DEFAULT_N4_BUDGET = 625

# Elements per block of alpha rows in n4_bruteforce: 2^13 is as fast as
# larger blocks and keeps the block temporaries within about 1 MB.
_N4_BLOCK = 1 << 13


def normalize_exponent(d: int, q: int) -> int:
    """Reduce d into [1, q-1]; x^d depends only on d mod (q-1) there."""
    if d <= 0:
        raise ValueError(f"exponent must be positive, got {d}")
    r = d % (q - 1)
    return q - 1 if r == 0 else r


# Residues per block of class_representatives: its int64 temporaries stay
# at 64 KB, under glibc's 128 KB mmap threshold, so no block is paged in anew.
_CLASS_BLOCK = 1 << 13


def class_representatives(p: int, n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The least member r of every cyclotomic class {r * p^i mod (q-1)} of
    q = p^n, 0 read as q-1, in ascending r, with the largest member of its
    class: one pair of int64 arrays per block of _CLASS_BLOCK residues of
    [1, q-1].  The class of -r is (q-1) - M, whose least member is q-1
    minus the largest of M; the class {q-1} comes last.

    A residue is the least of its class when none of its n-1 rotations
    r*p^i is smaller.  Each rotation is one vector pass, (r*p - 1) mod (q-1)
    + 1, over the residues of the block not yet ruled out."""
    q = p ** n
    order = q - 1
    for lo in range(1, q, _CLASS_BLOCK):
        reps = np.arange(lo, min(lo + _CLASS_BLOCK, q), dtype=np.int64)
        cur = top = reps
        for _ in range(n - 1):
            cur = cur * p
            cur -= 1
            cur %= order
            cur += 1
            least = cur >= reps
            reps, cur, top = reps[least], cur[least], top[least]
            np.maximum(top, cur, out=top)
        yield reps, top


@dataclass(frozen=True)
class PowerMap:
    """x^d over a fixed field and its tables, each built on first read and
    read-only; threads may share it.  Python 3.10/3.11 run first reads one at
    a time (one cached_property lock per name); from 3.12 two may each build it."""

    ctx: FieldContext
    d: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", normalize_exponent(self.d, self.ctx.q))

    @functools.cached_property
    def powd(self) -> np.ndarray:
        """x^d for every x."""
        return self.ctx.pow_table(self.d)

    @functools.cached_property
    def delta_pair(self) -> tuple[np.ndarray, np.ndarray]:
        """(u, t) of _delta for every x; wrong at x = 0 and x = -1.  x^d is
        built for it and dropped: no kernel reads x^d itself."""
        ctx = self.ctx
        powd = ctx.pow_table(self.d)
        lv = ctx.log.take(powd)
        lv[0] = 0  # keeps every log in [0, q-1)
        if ctx.p == 2:
            return _frozen(powd.take(ctx.succ)), _frozen(lv)
        lu = lv.take(ctx.succ)
        lv -= lu
        lv += (lv < 0) * np.int32(ctx.q - 1)  # mod q-1, no division, int32 temporary
        return _frozen(lu), _frozen(lv)

    @functools.cached_property
    def members(self) -> frozenset[int]:
        """The cyclotomic class {d * p^i mod (q-1) : i < n}, 0 read as q-1."""
        p, order = self.ctx.p, self.ctx.q - 1
        return frozenset(self.d * p ** i % order or order for i in range(self.ctx.n))

    @functools.cached_property
    def n4_pairs(self) -> tuple[tuple[int, np.ndarray, np.ndarray], ...]:
        """(l, S1(w) S1(eps*w) mod l, S0(v) S0(-v) mod l) per prime l of
        n4_fourier.  Of these, g, h and their transforms depend on d; the
        rest is read from the field's _N4Field.

        g(y) = sum_{x^d = y} psi(x) is a float64 weighted bincount, and it is
        exact: a bin sums at most q <= 2^22 residues below l < 2^28, so every
        partial sum is an integer below 2^50 < 2^53."""
        fld = _n4_field(self.ctx)
        q, n = self.ctx.q, self.ctx.n
        powd = self.powd.astype(np.intp)  # an index, read twice
        h = np.bincount(powd, minlength=q)
        out = []
        for ell, zp, psi in fld.moduli:
            gh = np.empty((2, q), dtype=np.int64)
            gh[0] = np.bincount(powd, weights=psi, minlength=q)  # exact integers
            gh[1] = h
            gh %= ell
            for _ in range(n):  # after n steps every digit is back in place
                gh = _transform_leading_digit(gh, zp, ell)
            s1, s0 = gh[:, fld.lw]
            s1_eps = s1[fld.neg] if self.d % 2 == 0 else s1
            out.append((ell, _frozen(s1 * s1_eps % ell), _frozen(s0 * s0[fld.neg] % ell)))
        return tuple(out)


def _delta(ctx: FieldContext, u: np.ndarray, t: np.ndarray, c: int) -> np.ndarray:
    """Delta_c(x) = U - c*V as a new array, U = (x+1)^d and V = x^d for x
    outside {0, -1}, from per-d arrays u and t with entries in [0, q-1).  In
    characteristic 2, u = U, t = log V and Delta = u XOR g^(t + log c).
    Else u = log U, t = log(V/U) and Delta = U*(1 + (-c)*V/U) =
    zech_sum(u, t + log(-c)).  At c = 0 it is U; at c != 0 it is written
    over its int64 index into exp, as zech_sum does, for bincount."""
    if c == 0:
        return u.copy() if ctx.p == 2 else ctx.exp.take(u)
    out = np.add(t, ctx.log.item(ctx.neg(c)) - (ctx.q - 1), dtype=np.int64)  # in [-(q-1), q-1)
    if ctx.p != 2:
        return ctx.zech_sum(u, out)
    return np.bitwise_xor(ctx.exp[out], u, out=out)


@dataclass
class PowerMapCase:
    """The power map of power, differentiated with multiplier c."""

    power: PowerMap
    c: int

    def __post_init__(self) -> None:
        self.ctx, self.d = self.power.ctx, self.power.d
        if not 0 <= self.c < self.ctx.q:
            raise ValueError(f"c encoding {self.c} outside [0, {self.ctx.q})")

    def delta_values(self) -> np.ndarray:
        """Delta_c(x) for every x, as an encoding array."""
        ctx = self.ctx
        out = _delta(ctx, *self.power.delta_pair, self.c)
        out[0] = 1  # x = 0: Delta = 1^d
        out[ctx.neg_one] = self.c if self.d % 2 else ctx.neg(self.c)  # x = -1: -c*(-1)^d
        return out

    def delta_histogram(self) -> np.ndarray:
        """Counts of Delta_c preimages per output value b: row 1 of the
        c-DDT."""
        return np.bincount(self.delta_values(), minlength=self.ctx.q)


# B of d = i*B + j in DeltaSample, which keeps the B rows j*log mod q-1 in
# 8*B*m bytes.  32 took 3-5% less time at 3^10 and 2^16, but added 0.2 MB
# to the peak RSS of a scan at 2^14, where 16 keeps the rows within 0.25 MB.
_D_STEP = 16


class DeltaSample:
    """Delta_c(x) on a fixed array x of elements outside {0, -1}, for a block
    of exponents d at once, from logs of x taken once: log(x+1), and log x in
    characteristic 2 or log(x/(x+1)) in odd characteristic; times d mod q-1
    they give _delta's u, t.

    No row divides: with d = i*B + j, B = _D_STEP, lo[j] = j*logs mod q-1 is
    built once by adding and wrapping, and hi = i*B*logs mod q-1 is kept
    from the last block and advanced by one add-and-wrap when i steps by
    one, so only a jump of i costs one % pass.  A sum below 2(q-1) wraps by
    min(s, s - (q-1)) in uint32, where s - (q-1) wraps above s when
    s < q-1.  The kept hi makes a sample stateful: threads may not share it."""

    def __init__(self, ctx: FieldContext, x: np.ndarray):
        self.ctx, self.x = ctx, x
        # int64, as the % pass multiplies a log by i*B < q
        lu = ctx.log[ctx.succ[x]].astype(np.int64)
        lv = ctx.log[x].astype(np.int64)
        if ctx.p != 2:
            lv -= lu  # log(x/(x+1)), mod q-1 as in PowerMap
            lv += (lv < 0) * (ctx.q - 1)
        self.logs = np.stack([lu, lv])
        self._order = np.uint32(ctx.q - 1)  # np scalars: numpy 1.24 and 2 agree
        step = self.logs.astype(np.uint32)
        lo = np.zeros((_D_STEP,) + step.shape, dtype=np.uint32)
        for j in range(1, _D_STEP):
            self._wrap(np.add(lo[j - 1], step, out=lo[j]))
        self._lo = lo
        self._step = self._wrap(lo[-1] + step)  # B*logs mod q-1
        self._i, self._hi = 0, lo[0]

    def _wrap(self, s: np.ndarray) -> np.ndarray:
        """s mod q-1 for uint32 s below 2(q-1), in place."""
        return np.minimum(s, s - self._order, out=s)

    def _high(self, i: int) -> np.ndarray:
        """i*B*logs mod q-1, kept for the next call."""
        if i == self._i + 1:
            self._hi = self._wrap(self._hi + self._step)
        elif i != self._i:
            self._hi = (self.logs * (i * _D_STEP) % (self.ctx.q - 1)).astype(np.uint32)
        self._i = i
        return self._hi

    def log_rows(self, ds, halves: int = 2) -> np.ndarray:
        """d*logs mod q-1 as uint32, shape (len(ds), halves, m), for each d
        in ds, each in [1, q-1]; halves=1 forms the log(x+1) rows alone."""
        i, j = zip(*(divmod(int(d), _D_STEP) for d in ds))
        rows = self._lo[list(j), :halves]
        start = 0
        for step, run in itertools.groupby(i):  # ascending ds step i by one
            end = start + len(list(run))
            rows[start:end] += self._high(step)[:halves]
            start = end
        return self._wrap(rows)

    def delta(self, ds, c: int) -> np.ndarray:
        """(x+1)^d - c*x^d on the sample, one row per d in ds, each in
        [1, q-1].  At c = 0 only the (x+1)^d rows are formed."""
        ctx = self.ctx
        rows = self.log_rows(ds, 1 if c == 0 else 2).view(np.int32)  # entries < 2^23
        lu, t = rows[:, 0], rows[:, -1]  # _delta reads no t at c = 0
        return _delta(ctx, ctx.exp.take(lu) if ctx.p == 2 else lu, t, c)

    def exceeds(self, ds, c: int, bound: int) -> np.ndarray:
        """Per d in ds, True when some value of Delta_c is hit more than
        bound times on the sample, which proves that the uniformity of x^d
        at c exceeds bound.  Each row is sorted as int32: a value is hit
        more than bound times where v[k] == v[k + bound] for some k."""
        m = len(self.x)
        if bound < 0 or bound >= m:  # no d passes, or none can fail
            return np.full(len(ds), bound < 0)
        v = self.delta(ds, c).astype(np.int32, copy=False)  # a new array
        v.sort(axis=1)
        return (v[:, bound:] == v[:, :m - bound]).any(axis=1)


@dataclass
class CDiffSpectrum:
    """Sparse multiset {i -> omega_i}; omega_0 is always materialised."""

    q: int
    d: int
    c: int
    uniformity: int
    omega: dict[int, int]

    def positive(self) -> dict[int, int]:
        return {i: w for i, w in self.omega.items() if w > 0}

    def as_dict(self) -> dict:
        return {
            "q": self.q,
            "d": self.d,
            "c": self.c,
            "uniformity": self.uniformity,
            "omega": omega_doc(self.omega),
        }


def omega_doc(omega: dict[int, int]) -> dict[str, int]:
    """omega as serialised: {"i": omega_i} in ascending i."""
    return {str(i): w for i, w in sorted(omega.items())}


def counting_identity_holds(omega: dict[int, int], q: int) -> bool:
    """sum(omega) = q and sum(i*omega) = q."""
    return sum(omega.values()) == q == sum(i * w for i, w in omega.items())


def c_spectrum(case: PowerMapCase) -> CDiffSpectrum:
    """Full spectrum of the a = 1 row: omega_i is the number of b with
    exactly i solutions x of Delta_c(x) = b.  Its counting identity is left
    to the caller (assert_counting_identity, check_identities)."""
    hist = case.delta_histogram()
    counts = np.bincount(hist)
    uniformity = len(counts) - 1  # the largest count
    omega = {0: int(counts[0])}
    for i in range(1, len(counts)):
        if counts[i]:
            omega[i] = int(counts[i])
    return CDiffSpectrum(q=case.ctx.q, d=case.d, c=case.c, uniformity=uniformity, omega=omega)


def assert_counting_identity(spec: CDiffSpectrum) -> None:
    """Raise AssertionError when spec fails sum(omega) = sum(i*omega) = q.
    Each spectrum is checked once, by its caller: this is the check of the
    spectrum command and of scan, which report no eq1; verify, sweep and
    fuzz report it as eq1, from check_identities."""
    if not counting_identity_holds(spec.omega, spec.q):
        raise AssertionError(f"spectrum fails the counting identity: {spec}")


def uniformity_label(u: int) -> str:
    """PcN/APcN classification of the c-differential uniformity u."""
    return {1: "PcN", 2: "APcN"}.get(u, f"(c,{u})-uniform")


def n4_bruteforce(case: PowerMapCase, budget: int = DEFAULT_N4_BUDGET) -> int:
    """Count quadruples with x1 - x2 + x3 - x4 = 0 and
    x1^d - c*x2^d + c*x3^d - x4^d = 0, by exhaustive enumeration.

    Pairs (x1, x2) and (x4, x3) sharing the difference alpha = x1 - x2 are
    enumerated per alpha; matching quadruples are counted through the
    per-alpha value histograms, a block of alpha rows at a time.
    """
    ctx = case.ctx
    q = ctx.q
    if q > budget:
        raise BudgetExceeded(f"N4 enumeration over q={q} exceeds budget {budget}")
    powd = case.power.powd
    c_powd = ctx.vec_scale(powd, case.c)
    X = np.arange(q, dtype=np.int64)
    rows = max(1, _N4_BLOCK // q)
    total = 0
    for lo in range(0, q, rows):
        alphas = X[lo:lo + rows, None]
        x2 = ctx.vec_sub(X, alphas)
        vals = ctx.vec_sub(powd, c_powd[x2])  # x^d - c*(x-alpha)^d, one row per alpha
        vals += np.arange(0, vals.size, q).reshape(-1, 1)  # row r counts into bins [rq, rq+q)
        h = np.bincount(vals.ravel(), minlength=vals.size)
        total += int(np.dot(h, h))
    return total


# n4_fourier works in GF(l) for primes l = 1 (mod p) below _ELL_MAX.  Its
# int64 bounds: a product of two residues is below 2^56; a transform step
# sums p of them, which needs p * l^2 < 2^63, so for p >= 128 l is taken
# below sqrt(2^63 / p) instead; a sum of q residues is below 2^50, since
# contexts stop at q = 2^22.
_ELL_MAX = 1 << 28


@functools.lru_cache(maxsize=64)
def _fourier_modulus(p: int, i: int) -> tuple[int, int]:
    """(l, zeta) for the i-th largest prime l = 1 (mod p) under the int64
    limit; zeta has order p in GF(l).  Cached per (p, i), not per bound, so
    every field of one characteristic shares the search.  A large p leaves
    few such l: the search raises BudgetExceeded once only l = 1 is left."""
    if i == 0:
        top = min(_ELL_MAX, math.isqrt((2 ** 63 - 1) // p))  # p * l^2 < 2^63
        ell = top - (top - 1) % p  # the largest l <= top with l = 1 (mod p)
    else:
        ell = _fourier_modulus(p, i - 1)[0] - p
    while not is_prime(ell):
        if ell <= p:
            raise BudgetExceeded(f"N4 needs more primes l = 1 (mod {p}) under the int64 limit")
        ell -= p
    return ell, next(z for z in (pow(a, (ell - 1) // p, ell) for a in range(2, ell)) if z != 1)


def _fourier_moduli(p: int, bound: int) -> tuple[tuple[int, int], ...]:
    """The (l, zeta) of _fourier_modulus(p, i) for i = 0, 1, ..., descending
    in l, until the product of the l exceeds bound."""
    out, prod = [], 1
    while prod <= bound:
        out.append(_fourier_modulus(p, len(out)))
        prod *= out[-1][0]
    return tuple(out)


# Entries of the p x p transform matrix built at a time: p <= 256 takes one
# block, and a large prime field stays within a few MB.
_DFT_BLOCK = 1 << 16


def _transform_leading_digit(a: np.ndarray, zp: np.ndarray, ell: int) -> np.ndarray:
    """a (2, q) with the leading base-p digit of its index transformed,
    b[j] = sum_k zeta^(j*k) a[k] mod l, and moved to the least significant
    place; zp[k] = zeta^k mod l.  Each entry sums p products below l^2,
    which stays under 2^63 by the choice of l."""
    p = len(zp)
    x = a.reshape(2, p, -1)
    out = np.empty_like(x)
    rows = max(1, _DFT_BLOCK // p)
    for lo in range(0, p, rows):
        out[:, lo:lo + rows] = zp[_dft_block(p, lo, min(rows, p - lo))] @ x % ell
    return out.transpose(0, 2, 1).reshape(a.shape)


def _dft_index(p: int, lo: int, rows: int) -> np.ndarray:
    """j*k mod p for j in [lo, lo + rows) and k in [0, p), read-only.

    Only row lo divides: row j + s is row j plus s*k mod p, for s = 1, 2,
    4, ..., and a sum a < 2p is reduced by min(a, a - p), where a - p wraps
    above a when a < p; an int64 % over all p^2 entries costs twice as much
    at p = 617.  Every entry is below p, so the int64 view indexes as is."""
    k = np.arange(p, dtype=np.uint64)
    p = np.uint64(p)
    idx = np.empty((rows, len(k)), dtype=np.uint64)
    idx[0] = np.uint64(lo) * k % p  # lo * k < p^2 < 2^44
    step, s = k, 1  # step = s*k mod p
    while s < rows:
        t = min(s, rows - s)
        block = idx[s:s + t]
        np.add(idx[:t], step, out=block)
        np.minimum(block, block - p, out=block)
        step = np.minimum(step + step, step + step - p)
        s += t
    return _frozen(idx.view(np.int64))


# Every digit step, prime l and d of a field reads the same blocks: keep a few.
_dft_block = functools.lru_cache(maxsize=8)(_dft_index)


class _N4Field:
    """What PowerMap.n4_pairs reads of the field alone, read-only: the
    encodings lw of L(w) and neg of -w for every w, and per prime l of
    _fourier_moduli (l, zp, psi), with zp[k] = zeta^k mod l and the weights
    psi = zp[Tr(w)] as float64.  It keeps no reference to its context."""

    def __init__(self, ctx: FieldContext):
        p, n, q = ctx.p, ctx.n, ctx.q
        ells = _fourier_moduli(p, q ** 3)  # first: too few l raise before any q-sized array
        w = np.arange(q, dtype=np.int64)
        x_pows = [1]  # X^k for k <= 2n - 2; X has encoding p when n > 1
        for _ in range(2 * n - 2):
            x_pows.append(ctx.mul(x_pows[-1], p))
        traces = np.array([ctx.trace(v) for v in x_pows], dtype=np.int64)
        hankel = traces[np.add.outer(np.arange(n), np.arange(n))]  # Tr(X^(i+j))
        self.lw = _frozen(_linear_mapper(p, n)(hankel, w))  # encoding of L(w)
        self.neg = _frozen(ctx.vec_scale(w, ctx.neg_one))
        trace = self.lw % p  # digit 0 of L(w) is Tr(w)
        moduli = []
        for ell, zeta in ells:
            zp = np.array([pow(zeta, k, ell) for k in range(p)], dtype=np.int64)
            moduli.append((ell, _frozen(zp), _frozen(zp.astype(np.float64).take(trace))))
        self.moduli = tuple(moduli)


# One _N4Field per live context, dropped with it: a strong cache would keep
# q-sized arrays alive for every field it has seen.
_n4_fields: "weakref.WeakKeyDictionary[FieldContext, _N4Field]" = weakref.WeakKeyDictionary()


def _n4_field(ctx: FieldContext) -> _N4Field:
    """ctx's _N4Field, built on first use.  Two threads that ask first at
    the same time may each build one; they are equal, and both keep the one
    stored first."""
    fld = _n4_fields.get(ctx)
    return fld if fld is not None else _n4_fields.setdefault(ctx, _N4Field(ctx))


def n4_fourier(case: PowerMapCase) -> int:
    """The quadruple count of n4_bruteforce, from additive-character sums.

    With psi(z) = zeta^Tr(z) and W(u, v) = sum_x psi(u*x + v*x^d),
    q^2 * N4 = sum_{u,v} W(u,v) W(-u,-cv) W(u,cv) W(-u,-v).  Substituting
    x -> -x gives W(-u, a) = W(u, (-1)^d a), and x -> x/u for u != 0 gives
    W(u, a) = W(1, a*u^-d), so with eps = (-1)^(d+1), S0 = W(0, .) and
    S1 = W(1, .):

        q^2 * N4 = sum_v S0(v) S0(-v) S0(cv) S0(-cv)
                   + (q-1) * sum_w S1(w) S1(eps*w) S1(cw) S1(eps*cw).

    S1(w) = sum_y g(y) psi(w*y) with g(y) = sum_{x^d = y} psi(x), and S0
    likewise with h(y) = #{x : x^d = y}.  Tr(w*y) = <digits(y), L(w)> with
    L(w)_i = Tr(w*X^i), the Hankel matrix Tr(X^(i+j)) applied to the digits
    of w, so S1(w) is the Fourier transform of g over GF(p)^n read at L(w).

    All of it is computed in GF(l) for primes l = 1 (mod p), where zeta is
    an element of order p, and N4 <= q^3 is recovered by the CRT.  Only the
    gathers at c*w depend on c; the rest is case.power.n4_pairs.  The caller
    decides whether to count: the CLI's one gate is --budget-n4, in _measure.
    """
    ctx = case.ctx
    q = ctx.q
    cw = ctx.vec_scale(np.arange(q, dtype=np.int64), case.c)
    n4, mod = 0, 1
    for ell, pair1, pair0 in case.power.n4_pairs:
        t1 = int((pair1 * pair1[cw] % ell).sum())
        t0 = int((pair0 * pair0[cw] % ell).sum())
        r = (t0 + (q - 1) * t1) * pow(q * q, -1, ell) % ell
        n4 += mod * ((r - n4) * pow(mod, -1, ell) % ell)
        mod *= ell
    return n4


@dataclass
class IdentityReport:
    """Outcome of the spectrum counting identities."""

    eq1_ok: bool
    eq2_ok: Optional[bool]  # None when the quadruple count was not checked, or c = 1


def check_identities(spectrum: CDiffSpectrum, n4: Optional[int] = None) -> IdentityReport:
    """Verify sum(omega) = sum(i*omega) = q, and when a quadruple count is
    supplied and c != 1, sum(i^2*omega) = (N4 - 1)/(q - 1) - gcd(d, q - 1)."""
    q = spectrum.q
    eq2_ok: Optional[bool] = None
    if n4 is not None and spectrum.c != 1:
        e = math.gcd(spectrum.d, q - 1)
        lhs = sum(i * i * w for i, w in spectrum.omega.items())
        eq2_ok = (n4 - 1) % (q - 1) == 0 and lhs == (n4 - 1) // (q - 1) - e
    return IdentityReport(eq1_ok=counting_identity_holds(spectrum.omega, q), eq2_ok=eq2_ok)
