"""Closed-form spectrum predictors and the applicability dispatcher.

Each predictor is a pure integer function of pre-evaluated conditions
(traces, character values, parities); dispatch() returns every prediction
whose hypotheses hold, and reads c only through dispatch_key(), so every c
with one key has one dispatch.
All arithmetic is exact: a non-exact division or a negative entry marks the
prediction inconsistent instead of rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import Inapplicable
from .field import FieldContext
from .spectrum import PowerMap, counting_identity_holds, normalize_exponent, omega_doc


class TheoremId(Enum):
    INV_CHAR2 = "INV_CHAR2"
    INV_ODD = "INV_ODD"
    P3_PLUS3_HALF = "P3_PLUS3_HALF"
    P3_MINUS3 = "P3_MINUS3"
    PK1_HALF_1MOD4 = "PK1_HALF_1MOD4"
    PK1_HALF_3MOD4 = "PK1_HALF_3MOD4"
    P5_MINUS3_HALF = "P5_MINUS3_HALF"


@dataclass
class SpectrumPrediction:
    theorem: TheoremId
    conditions: list[tuple[str, object]]
    omega: dict[int, int]
    consistent: bool
    notes: str = ""

    def positive(self) -> dict[int, int]:
        return {i: w for i, w in self.omega.items() if w > 0}

    def as_dict(self) -> dict:
        return {
            "theorem": self.theorem.value,
            "conditions": [[k, v] for k, v in self.conditions],
            "omega": omega_doc(self.omega),
            "consistent": self.consistent,
            "notes": self.notes,
        }


def _assemble(
    theorem: TheoremId,
    q: int,
    conditions: list[tuple[str, object]],
    entries: dict[int, tuple[int, int]],
    notes: str = "",
) -> SpectrumPrediction:
    """Build a prediction from {index: (numerator, denominator)} entries."""
    omega: dict[int, int] = {}
    bad = []
    for i, (num, den) in sorted(entries.items()):
        if num % den == 0 and num // den >= 0:
            omega[i] = num // den
        else:
            bad.append(f"omega_{i} = {num}/{den} is not a nonnegative integer")
    consistent = not bad and counting_identity_holds(omega, q)
    if bad:
        notes = "; ".join(([notes] if notes else []) + bad)
    return SpectrumPrediction(
        theorem=theorem, conditions=conditions, omega=omega, consistent=consistent, notes=notes
    )


# ---------------------------------------------------------------------------
# Inverse function
# ---------------------------------------------------------------------------

def predict_inverse_char2(n: int, tr_c: int, tr_c_inv: int) -> SpectrumPrediction:
    """Spectrum of x^(2^n - 2) keyed by the traces of c and 1/c; c outside {0, 1}."""
    if n < 2 or tr_c not in (0, 1) or tr_c_inv not in (0, 1):
        raise Inapplicable(f"needs n >= 2 and binary traces, got n={n}, ({tr_c},{tr_c_inv})")
    q = 1 << n
    half = 1 << (n - 1)
    if tr_c == 1 and tr_c_inv == 1:
        entries = {0: (half - 2, 1), 1: (4, 1), 2: (half - 2, 1)}
    elif tr_c == 0 and tr_c_inv == 0:
        entries = {0: (half, 1), 1: (2, 1), 2: (half - 4, 1), 3: (2, 1)}
    else:
        entries = {0: (half - 1, 1), 1: (3, 1), 2: (half - 3, 1), 3: (1, 1)}
    conds = [("n", n), ("tr_c", tr_c), ("tr_c_inv", tr_c_inv)]
    return _assemble(TheoremId.INV_CHAR2, q, conds, entries)


def predict_inverse_odd(q: int, chi_c2_4c: int, chi_1_4c: int, chi_c: int) -> SpectrumPrediction:
    """Spectrum of x^(q - 2), q odd, keyed by chi(c^2-4c), chi(1-4c), chi(c);
    c outside {0, 1, 4, 1/4}."""
    if q % 2 == 0 or q < 3:
        raise Inapplicable(f"needs odd q >= 3, got {q}")
    if not all(v in (-1, 1) for v in (chi_c2_4c, chi_1_4c, chi_c)):
        raise Inapplicable("character values must be +-1 (c in {0,1,4,1/4} is excluded)")
    if chi_c2_4c == -1 and chi_1_4c == -1:
        if chi_c == -1:
            entries = {0: (q - 3, 2), 1: (3, 1), 2: (q - 3, 2)}
        else:
            entries = {0: (q - 5, 2), 1: (5, 1), 2: (q - 5, 2)}
    elif chi_c2_4c * chi_1_4c == -1:
        if chi_c == -1:
            entries = {0: (q - 1, 2), 1: (2, 1), 2: (q - 5, 2), 3: (1, 1)}
        else:
            entries = {0: (q - 3, 2), 1: (4, 1), 2: (q - 7, 2), 3: (1, 1)}
    else:  # both characters +1
        if chi_c == -1:
            entries = {0: (q + 1, 2), 1: (1, 1), 2: (q - 7, 2), 3: (2, 1)}
        else:
            entries = {0: (q - 1, 2), 1: (3, 1), 2: (q - 9, 2), 3: (2, 1)}
    conds = [("q", q), ("chi_c2_4c", chi_c2_4c), ("chi_1_4c", chi_1_4c), ("chi_c", chi_c)]
    return _assemble(TheoremId.INV_ODD, q, conds, entries)


# ---------------------------------------------------------------------------
# Characteristic-3 families, c = -1
# ---------------------------------------------------------------------------

def predict_3n_plus3_half(n: int) -> SpectrumPrediction:
    """Spectrum of x^((3^n + 3)/2) with c = -1; requires n even."""
    if n < 2 or n % 2 != 0:
        raise Inapplicable(f"needs even n >= 2, got {n}")
    q = 3 ** n
    entries = {0: (q - 1, 2), 1: (1, 1), 2: (q - 1, 2)}
    return _assemble(TheoremId.P3_PLUS3_HALF, q, [("n", n)], entries)


def predict_3n_minus3(n: int) -> SpectrumPrediction:
    """Spectrum of x^(3^n - 3) with c = -1, by n mod 4.

    The n = 0 (mod 4) branch prints omega_0 = (5*3^n - 3)/8, which is never
    an integer and breaks the counting identity; the prediction is flagged
    inconsistent and carries the identity-forced repair in its notes.
    """
    if n < 2:
        raise Inapplicable(f"needs n >= 2, got {n}")
    q = 3 ** n
    conds = [("n", n), ("n_mod_4", n % 4)]
    if n % 4 == 0:
        entries = {1: (1, 1), 2: (q + 3, 4), 4: (q - 17, 8), 6: (1, 1)}
        pred = _assemble(TheoremId.P3_MINUS3, q, conds, entries)
        forced = q - sum(pred.omega.values())
        pred.consistent = False
        pred.notes = (
            f"printed omega_0 = (5*3^n - 3)/8 = {5 * q - 3}/8 is not an integer; "
            f"the counting identity forces omega_0 = (5*3^n - 5)/8 = {forced}"
        )
        return pred
    if n % 4 == 2:
        entries = {0: (5 * q - 13, 8), 1: (1, 1), 2: (q + 7, 4), 4: (q - 9, 8)}
    else:
        entries = {0: (5 * q - 7, 8), 1: (1, 1), 2: (q + 1, 4), 4: (q - 3, 8)}
    return _assemble(TheoremId.P3_MINUS3, q, conds, entries)


# ---------------------------------------------------------------------------
# x^((p^k + 1)/2), c = -1
# ---------------------------------------------------------------------------

def predict_pk1_half(p: int, n: int, k: int) -> SpectrumPrediction:
    """Spectrum of x^((p^k + 1)/2) with c = -1.

    Hypotheses: gcd(n, k) = 1 and 2n/gcd(2n, k) even (equivalently k odd);
    one variant for p = 1 (mod 4), one for p = 3 (mod 4) with p > 7.
    """
    if p < 3 or p % 2 == 0:
        raise Inapplicable(f"needs odd p, got {p}")
    if math.gcd(n, k) != 1:
        raise Inapplicable(f"needs gcd(n, k) = 1, got gcd({n}, {k})")
    if (2 * n // math.gcd(2 * n, k)) % 2 != 0:
        raise Inapplicable(f"needs 2n/gcd(2n, k) even (k odd), got k = {k}")
    q = p ** n
    conds = [("p", p), ("n", n), ("k", k), ("n_parity", "even" if n % 2 == 0 else "odd")]
    if p % 4 == 1:
        i_mid, i_top = (p + 3) // 4, (p + 1) // 2
        if n % 2 == 1:
            entries = {
                0: ((q + 1) * (p - 1), 2 * (p + 1)),
                1: (q - 3, 2),
                i_mid: (2, 1),
                i_top: (q - p, p + 1),
            }
        else:
            entries = {
                0: ((q - 1) * (p - 1), 2 * (p + 1)),
                1: (q - 1, 2),
                i_mid: (2, 1),
                i_top: (q - p - 2, p + 1),
            }
        return _assemble(TheoremId.PK1_HALF_1MOD4, q, conds, entries)
    if p <= 7:
        raise Inapplicable(f"p = 3 (mod 4) variant needs p > 7, got {p}")
    i_a, i_b, i_top = (p + 1) // 4, (p + 5) // 4, (p + 1) // 2
    if n % 2 == 1:
        entries = {
            0: (q * (3 * p - 1) - (p + 5), 4 * (p + 1)),
            2: (q - 3, 4),
            i_a: (1, 1),
            i_b: (1, 1),
            i_top: (q - p, p + 1),
        }
    else:
        entries = {
            0: ((q - 1) * (3 * p - 1), 4 * (p + 1)),
            2: (q - 1, 4),
            i_a: (1, 1),
            i_b: (1, 1),
            i_top: (q - p - 2, p + 1),
        }
    return _assemble(TheoremId.PK1_HALF_3MOD4, q, conds, entries)


# ---------------------------------------------------------------------------
# x^((5^n - 3)/2), c = -1
# ---------------------------------------------------------------------------

def gamma_5n_closed(n: int) -> int:
    """Closed form of the cubic character sum over GF(5^n):
    (-1)^(n+1) * sum_k (-1)^k C(n, 2k) 2^(2k+1) = (-1)^(n+1) * 2 Re((1+2i)^n),
    with (1+2i)^n computed by squaring on Gaussian-integer pairs."""
    if n < 1:
        raise Inapplicable(f"needs n >= 1, got {n}")
    re, im = 1, 0
    base_re, base_im = 1, 2
    e = n
    while e:
        if e & 1:
            re, im = re * base_re - im * base_im, re * base_im + im * base_re
        base_re, base_im = base_re * base_re - base_im * base_im, 2 * base_re * base_im
        e >>= 1
    sign = 1 if n % 2 == 1 else -1
    return sign * 2 * re


def n4_closed_5n(n: int) -> int:
    """Closed-form quadruple count for x^((5^n - 3)/2) with c = -1."""
    q = 5 ** n
    gamma = gamma_5n_closed(n)
    num = -gamma + 7 * q - 17
    if num % 4 != 0:
        raise ArithmeticError(f"non-integral quadruple term {num}/4 at n = {n}")
    lead = 4 if n % 2 == 0 else 2
    return 1 + lead * (q - 1) + (q - 1) * (num // 4)


def predict_5n_minus3_half(n: int) -> SpectrumPrediction:
    """Spectrum of x^((5^n - 3)/2) with c = -1, via the cubic character sum."""
    if n < 1:
        raise Inapplicable(f"needs n >= 1, got {n}")
    q = 5 ** n
    gamma = gamma_5n_closed(n)
    if n % 2 == 0:
        entries = {0: (3 * q - 5 - gamma, 8), 1: (gamma + q + 5, 4), 2: (3 * q - 5 - gamma, 8)}
    else:
        entries = {0: (3 * q - 13 - gamma, 8), 1: (gamma + q + 13, 4), 2: (3 * q - 13 - gamma, 8)}
    conds = [("n", n), ("gamma_5n", gamma)]
    return _assemble(TheoremId.P5_MINUS3_HALF, q, conds, entries)


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------

def dispatch_key(ctx: FieldContext, c: int) -> tuple:
    """The values of c that dispatch reads: c when it is one of the
    prime-field constants 0, 1, 4, 1/4, -1 that dispatch tests, else None;
    then (Tr c, Tr 1/c) when p = 2, or chi(c^2 - 4c), chi(1 - 4c), chi(c)
    when p is odd; (c,) alone for c in {0, 1} when p = 2.

    In odd characteristic c^2 - 4c = c*(c - 4) and 1 - 4c = -4*(c - 1/4),
    and 4 is a square, so each character is a product of chi at c, c - 4,
    c - 1/4 and -1: one log lookup each, with no field product.  Subtracting
    a prime-field k from c changes its digit 0 alone.
    """
    p, chi = ctx.p, ctx.chi
    if p == 2:
        return (c,) if c < 2 else (None, ctx.trace(c), ctx.trace(ctx.inv(c)))
    four, quarter = 4 % p, pow(4, -1, p)
    base, chi_c = c - c % p, chi(c)
    return (c if c in (0, 1, four, quarter, p - 1) else None,
            chi_c * chi(base + (c - four) % p), chi(p - 1) * chi(base + (c - quarter) % p), chi_c)


def dispatch(power: PowerMap, c: int) -> list[SpectrumPrediction]:
    """Every closed-form prediction whose hypotheses hold at (p, n, d, c).

    d matches a family exponent in its cyclotomic class, since x^d and
    x^(pd) have the same spectrum at every c.  An empty list means the case
    is brute-force only.  c is read through dispatch_key(power.ctx, c)
    alone, once per call.
    """
    ctx, dn = power.ctx, power.d
    p, n, q = ctx.p, ctx.n, ctx.q
    const, *values = dispatch_key(ctx, c)

    def matches(e: int) -> bool:
        return normalize_exponent(e, q) in power.members

    preds: list[SpectrumPrediction] = []

    # inverse function rows: d = q - 2 (c outside {0, 1} implies q >= 3)
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
                # a k matching by residue is recorded before one matching by class
                k = min(ks, key=lambda k: normalize_exponent((p ** k + 1) // 2, q) != dn)
                preds.append(predict_pk1_half(p, n, k))
        if p == 5 and matches((q - 3) // 2):
            preds.append(predict_5n_minus3_half(n))

    return preds
