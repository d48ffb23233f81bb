"""Brute-force vs. closed-form verification, sweeps, scans, and identity fuzzing."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterator, Optional

import numpy as np

from .closed_forms import SpectrumPrediction, dispatch, dispatch_key
from .errors import BudgetExceeded
from .field import FieldContext, FieldSpec, build_context
from .spectrum import (
    DEFAULT_N4_BUDGET,
    CDiffSpectrum,
    DeltaSample,
    PowerMap,
    PowerMapCase,
    _fourier_moduli,
    assert_counting_identity,
    c_spectrum,
    check_identities,
    cyclotomic_classes,
    n4_fourier,
    omega_doc,
)

MATCH = "MATCH"
MISMATCH = "MISMATCH"
NO_PREDICTOR = "NO_PREDICTOR"
PREDICTOR_INCONSISTENT = "PREDICTOR_INCONSISTENT"


class SplitMix64:
    """splitmix64 stream; fixed so seeded runs reproduce across implementations."""

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        return self.next() % bound


@dataclass
class VerifyReport:
    p: int
    n: int
    modulus: tuple[int, ...]
    d: int
    c: int
    computed: CDiffSpectrum
    predictions: list[SpectrumPrediction]
    n4: Optional[int]
    eq1_ok: bool
    eq2_ok: Optional[bool]  # None = skipped (over budget or c = 1)
    verdict: str
    matched_theorem: Optional[str]

    def as_dict(self) -> dict:
        return {
            "case": {"p": self.p, "n": self.n, "modulus": list(self.modulus),
                     "d": self.d, "c": self.c},
            "computed": self.computed.as_dict(),
            "predictions": [pr.as_dict() for pr in self.predictions],
            "n4": self.n4,
            "eq1": self.eq1_ok,
            "eq2": self.eq2_ok,
            "verdict": self.verdict,
            "matched": self.matched_theorem,
        }


def verify_with_context(
    ctx: FieldContext, d: int, c: int, *, n4_budget: int = DEFAULT_N4_BUDGET
) -> VerifyReport:
    """Compute the spectrum, run the dispatcher, and compare multisets.

    Zero-count entries are ignored in the comparison.  The quadruple-count
    identity is checked when c != 1 and q fits the budget, else skipped.
    """
    power = PowerMap(ctx, d)
    return _report(power, c, _measure(power, c, n4_budget))


def _measure(power: PowerMap, c: int, n4_budget: int) -> tuple:
    """The spectrum of x^d at c and its quadruple count when c != 1 and q
    fits n4_budget (else None).  When N4 will run, its moduli are found
    first: a prime field with too few primes l raises before any table of
    x^d is built."""
    ctx = power.ctx
    count_n4 = c != 1 and ctx.q <= n4_budget
    if count_n4:
        _fourier_moduli(ctx.p, ctx.q ** 3)  # cached per (p, i)
    case = PowerMapCase(power, c)
    spec = c_spectrum(case)
    return spec, n4_fourier(case) if count_n4 else None


def _report(power: PowerMap, c: int, measured: tuple) -> VerifyReport:
    """The report at c, from _measure at c or at any c sharing its spectrum
    and N4, with their identity check, dispatch at c and its own copy of the
    spectrum: the report at every c with that spectrum, N4 and key, up to c."""
    spec, n4 = measured
    idrep = check_identities(spec, n4)
    preds = dispatch(power, c)
    target = spec.positive()
    matched = next(
        (pr for pr in preds if pr.consistent and pr.positive() == target), None
    )
    if not preds:
        verdict = NO_PREDICTOR
    elif matched is not None:
        verdict = MATCH
    elif all(not pr.consistent for pr in preds):
        verdict = PREDICTOR_INCONSISTENT
    else:
        verdict = MISMATCH
    ctx = power.ctx
    return VerifyReport(
        p=ctx.p, n=ctx.n, modulus=ctx.modulus, d=power.d, c=c,
        computed=replace(spec, c=c, omega=dict(spec.omega)),
        predictions=preds, n4=n4, eq1_ok=idrep.eq1_ok, eq2_ok=idrep.eq2_ok,
        verdict=verdict, matched_theorem=matched.theorem.value if matched else None,
    )


@dataclass
class SweepResult:
    """A sweep over every c except 1, stored as one report per distinct
    outcome (omega, N4, dispatch key), taken at the first c that has it, and
    a read-only int32 owner, where outcomes[owner[c]] holds c (owner[1] = -1).
    Per-c reports, documents and tallies are derived."""

    p: int
    n: int
    modulus: tuple[int, ...]
    d: int
    outcomes: list[VerifyReport]
    owner: np.ndarray
    _BLOCK = 1 << 16  # owner entries members() turns into Python ints at a time

    def members(self) -> Iterator[tuple[int, int]]:
        """(c, i) for every swept c in ascending c, where outcomes[i] holds c."""
        for lo in range(0, len(self.owner), self._BLOCK):
            for c, i in enumerate(self.owner[lo:lo + self._BLOCK].tolist(), lo):
                if i >= 0:
                    yield c, i

    @property
    def tallies(self) -> dict[str, int]:
        """How many swept c are PcN and APcN, and how many have each verdict."""
        held = np.bincount(self.owner + 1, minlength=len(self.outcomes) + 1)[1:].tolist()
        facts = [({1: "pcn", 2: "apcn"}.get(r.computed.uniformity), r.verdict)
                 for r in self.outcomes]
        return {key: sum(k for fs, k in zip(facts, held) if key in fs)
                for key in ("pcn", "apcn", MATCH, MISMATCH, NO_PREDICTOR, PREDICTOR_INCONSISTENT)}

    @property
    def reports(self) -> list[VerifyReport]:
        """One fresh report per swept c, in ascending c, copied down to each
        prediction's omega and conditions: editing one changes nothing else."""
        out = []
        for c, i in self.members():
            r = self.outcomes[i]
            preds = [replace(pr, omega=dict(pr.omega), conditions=list(pr.conditions))
                     for pr in r.predictions]
            out.append(replace(r, c=c, predictions=preds,
                               computed=replace(r.computed, c=c, omega=dict(r.computed.omega))))
        return out

    def as_dict(self) -> dict:
        """The sweep document.  The reports of one outcome share every
        sub-document except case and computed, which hold c: an edit to a
        shared one shows in the others."""
        docs = [r.as_dict() for r in self.outcomes]
        return {
            "case": {"p": self.p, "n": self.n, "modulus": list(self.modulus), "d": self.d},
            "tallies": self.tallies,
            "reports": [
                {**docs[i], "case": {**docs[i]["case"], "c": c},
                 "computed": {**docs[i]["computed"], "c": c}}
                for c, i in self.members()
            ],
        }


def sweep_c(ctx: FieldContext, d: int, *, n4_budget: int = DEFAULT_N4_BUDGET) -> SweepResult:
    """Verify every c in GF(q) except c = 1, one report per distinct outcome.

    The spectrum and the quadruple count are computed once per orbit of c
    under Frobenius c -> c^p and inversion c -> 1/c, and the identities, the
    predictions and the report once per distinct outcome (omega, N4,
    dispatch_key(ctx, c)): the dispatcher reads c only through its key, so
    orbits with one outcome share one report.  Its reports are the same as
    verifying each c.  Frobenius: x -> x^p maps Delta_c(x) = b to
    Delta_{c^p}(x^p) = b^p, and the quadruples of (d, c) to those of
    (d, c^p), so omega and N4 agree on the orbit, and so does the key: its
    traces, characters and prime-field constants are fixed by x -> x^p.
    Inversion: Delta_c(-1 - y) = -c*(-1)^d*Delta_{1/c}(y), a fixed nonzero
    multiple, so c and 1/c share omega; dividing the power equation of a
    quadruple of (d, c) by c and swapping (x1, x2, x3, x4) -> (x2, x1, x4, x3)
    gives one of (d, 1/c), so N4 agrees too.  Inversion swaps Tr(c) with
    Tr(1/c) and chi(c^2 - 4c) with chi(1 - 4c), so the orbit of 1/c takes
    its own key.  The outcomes live for this call alone.

    c = 0 is its own orbit.  The Frobenius orbit of c = g^m is the class M
    of m under m -> p*m mod (q-1), and that of 1/c is (q-1) - M: the two are
    handled in one step, at the one whose smallest member comes first.

    The quadruple count runs once per orbit, from transforms of x^d that all
    orbits share, when q fits n4_budget; n4_budget=0 skips it.
    """
    power = PowerMap(ctx, d)
    order = ctx.q - 1
    index: dict[tuple, int] = {}
    outcomes: list[VerifyReport] = []
    owner = np.full(ctx.q, -1, dtype=np.int32)

    def add(cs: np.ndarray, measured: tuple) -> None:
        spec, n4 = measured
        c = int(cs[0])
        outcome = (tuple(spec.omega.items()), n4, dispatch_key(ctx, c))
        if outcome not in index:
            index[outcome] = len(outcomes)
            outcomes.append(_report(power, c, measured))
        owner[cs] = index[outcome]

    add(np.array([0]), _measure(power, 0, n4_budget))
    for members in cyclotomic_classes(ctx.p, ctx.q):
        partner = order - members[-1]  # smallest member of (q-1) - M
        if members == [order] or partner < members[0]:
            continue  # c = 1, or a class handled with its partner
        cs = ctx.exp[members]
        measured = _measure(power, int(cs[0]), n4_budget)
        add(cs, measured)
        if partner > members[0]:
            add(ctx.exp[[order - m for m in reversed(members)]], measured)
    owner.flags.writeable = False
    return SweepResult(p=ctx.p, n=ctx.n, modulus=ctx.modulus, d=power.d, outcomes=outcomes,
                       owner=owner)


@dataclass
class ScanResult:
    p: int
    n: int
    modulus: tuple[int, ...]
    c: int
    max_uniformity: int
    rows: list[dict]  # {"d": ..., "uniformity": ..., "omega": {...}}

    def as_dict(self) -> dict:
        return {
            "case": {
                "p": self.p,
                "n": self.n,
                "modulus": list(self.modulus),
                "c": self.c,
                "max_uniformity": self.max_uniformity,
            },
            "rows": self.rows,
        }


# A scan's sample has m points, where a random map to q values would show
# m^(U+1) / ((U+1)! q^U) = _SAMPLE_COLLISIONS (U+1)-fold collisions, so a
# class that fails on the field passes its sample with probability about
# e^-5.  Over 11 scans from 5^5 to 3^9 (U = 1, 2), best of 3 with the
# block sample test, 5 took 244 ms in all, against 260 for 4, 273 for 6,
# 349 for 8 and 431 for 10: 3 left up to 7% of the failing classes to a full
# spectrum (557 ms), and the q/4 rule skips the sample of a U = 2 scan at
# 3^7 from 6 up, at 7^4 from 8 and at 5^5 from 10, where a scan then takes
# 7 to 10 times as long.  On the larger fields 5 to 10 were within noise.
_SAMPLE_COLLISIONS = 5

# A scan tests a block of classes at a time, of about this many sample
# points: the block's log rows hold twice as many uint32 entries.
_SAMPLE_BLOCK = 1 << 14


def _scan_sample(ctx: FieldContext, max_uniformity: int) -> Optional[DeltaSample]:
    """The first m elements outside {0, -1}, or None when m would exceed q/4
    and the sample would cost about as much as the spectra it saves.  Every
    uniformity is at least 1, so a bound below 0 is sized as 0: any sample
    then rules out every class."""
    q, u = ctx.q, max(max_uniformity, 0)
    if u >= q // 4:  # a (U+1)-fold collision needs m > U points
        return None
    m = math.ceil(math.exp(
        (math.log(_SAMPLE_COLLISIONS) + math.lgamma(u + 2) + u * math.log(q)) / (u + 1)))
    if m > q // 4:
        return None
    x = np.arange(1, m + 2, dtype=np.int64)
    return DeltaSample(ctx, x[x != ctx.neg_one][:m])


def _sampled_classes(ctx: FieldContext, c: int, max_uniformity: int) -> Iterator[list[int]]:
    """The cyclotomic classes whose representative passes the scan sample
    at c, in the order of cyclotomic_classes, read and tested a block at a
    time: the classes are never all listed."""
    classes = cyclotomic_classes(ctx.p, ctx.q)
    sample = _scan_sample(ctx, max_uniformity)
    if sample is None:
        yield from classes
        return
    size = max(1, _SAMPLE_BLOCK // len(sample.x))
    while block := list(itertools.islice(classes, size)):
        ruled_out = sample.exceeds([members[0] for members in block], c, max_uniformity)
        yield from itertools.compress(block, ~ruled_out)


def scan_exponents(ctx: FieldContext, c: int, max_uniformity: int) -> ScanResult:
    """All cyclotomic-class representatives d whose uniformity stays under
    the threshold, with their spectra.

    Each class is first tested on a sample of x (_scan_sample): a count over
    a subset of x never exceeds the count over the field, so a value hit
    more than max_uniformity times there rules the class out exactly, before
    any table of x^d is built.  The sample tests a block of representatives
    at once (_sampled_classes, DeltaSample.exceeds).  The classes that pass
    build their PowerMap and full spectrum, so a scan costs about one
    spectrum per surviving class plus one sample row per class."""
    rows, power = [], None
    for members in _sampled_classes(ctx, c, max_uniformity):
        last, power = power, PowerMap(ctx, members[0])
        # Build this class's tables before the last class's go: freed with the
        # kernel's temporaries, glibc trims its heap and each class faults its
        # arrays in again.  Where no class is sampled, this order matters:
        # without it scan --field 2^16 --c e:3 --max-uniformity 4 faults 1.7M
        # times against 850 and takes 6.7-7.2 s against 4.1-4.3 s.
        power.delta_pair
        del last
        spec = c_spectrum(PowerMapCase(power, c))
        assert_counting_identity(spec)
        if spec.uniformity <= max_uniformity:
            rows.append(
                {
                    "d": members[0],
                    "class": members,
                    "uniformity": spec.uniformity,
                    "omega": omega_doc(spec.omega),
                }
            )
    return ScanResult(
        p=ctx.p, n=ctx.n, modulus=ctx.modulus, c=c, max_uniformity=max_uniformity, rows=rows
    )


_FUZZ_PRIMES = (2, 3, 5, 7, 11, 13)


@dataclass
class FuzzReport:
    """A fuzz run's seed, budget and cases; the other fields are derived
    from the cases."""

    seed: int
    budget: int
    cases: list[dict]

    @property
    def count(self) -> int:
        return len(self.cases)

    @property
    def failures(self) -> list[dict]:
        return [case for case in self.cases if not (case["eq1"] and case["eq2"])]

    @property
    def passes(self) -> int:
        return self.count - len(self.failures)

    @property
    def has_char2_case(self) -> bool:
        return any(case["p"] == 2 for case in self.cases)

    @property
    def has_gcd_gt1_case(self) -> bool:
        return any(math.gcd(case["d"], case["p"] ** case["n"] - 1) > 1 for case in self.cases)

    @property
    def all_ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "count": self.count,
            "budget": self.budget,
            "passes": self.passes,
            "failures": self.failures,
            "has_char2_case": self.has_char2_case,
            "has_gcd_gt1_case": self.has_gcd_gt1_case,
            "cases": self.cases,
        }


def fuzz_identities(seed: int, count: int, budget: int = 343) -> FuzzReport:
    """Random (p, n, d, c != 1) cases with q <= budget, each run through
    verify_with_context; both spectrum identities are checked exactly, the
    second via the quadruple count.  Every draw runs that count at the
    default N4 budget, which would skip it above DEFAULT_N4_BUDGET, so
    budget may not exceed it."""
    if count < 0:
        raise ValueError(f"fuzz count must be >= 0, got {count}")
    if budget < 4:
        raise ValueError(f"fuzz budget must be at least 4, got {budget}")
    if budget > DEFAULT_N4_BUDGET:
        raise BudgetExceeded(
            f"fuzz budget {budget} exceeds {DEFAULT_N4_BUDGET}: every draw runs "
            "the quadruple count")
    # q = 2 leaves no exponent in [1, q-2], so p = 2 starts at n = 2; a
    # prime whose smallest field exceeds the budget is not drawn
    primes = [p for p in _FUZZ_PRIMES if p ** (2 if p == 2 else 1) <= budget]
    rng = SplitMix64(seed)
    ctx_cache: dict[tuple[int, int], FieldContext] = {}
    cases = []
    for _ in range(count):
        p = primes[rng.below(len(primes))]
        n_min = 2 if p == 2 else 1
        n_max = n_min
        while p ** (n_max + 1) <= budget:
            n_max += 1
        n = n_min + rng.below(n_max - n_min + 1)
        q = p ** n
        d = 1 + rng.below(q - 2)
        u = rng.below(q - 1)
        c = u if u == 0 else u + 1  # uniform over GF(q) \ {1}
        ctx = ctx_cache.get((p, n))
        if ctx is None:
            ctx = build_context(FieldSpec(p, n))
            ctx_cache[(p, n)] = ctx
        # q <= budget <= DEFAULT_N4_BUDGET and c != 1, so N4 always runs
        rep = verify_with_context(ctx, d, c)
        cases.append({"p": p, "n": n, "d": rep.d, "c": c, "n4": rep.n4,
                      "eq1": rep.eq1_ok, "eq2": rep.eq2_ok})
    return FuzzReport(seed=seed, budget=budget, cases=cases)
