import concurrent.futures
import gc
import math
import sys
import threading
import time
import weakref
from collections import Counter

import numpy as np
import pytest

from cdspec import (
    BudgetExceeded,
    FieldSpec,
    PowerMap,
    PowerMapCase,
    build_context,
    c_spectrum,
    check_identities,
    find_irreducible,
    n4_bruteforce,
    n4_fourier,
    normalize_exponent,
)
from cdspec import spectrum
from cdspec.field import _linear_mapper, is_prime
from cdspec.spectrum import CDiffSpectrum, DeltaSample, uniformity_label
from cdspec.verifier import SplitMix64, _scan_sample

from conftest import cyclotomic_classes, get_ctx, is_prime_trial, odd_fields, poly_mul, poly_pow


def _delta_count_scalar(ctx, d, c, b):
    """Independent per-b count of solutions of (x+1)^d - c*x^d = b."""
    return sum(
        1
        for x in range(ctx.q)
        if ctx.sub(ctx.pow(ctx.add(x, 1), d), ctx.mul(c, ctx.pow(x, d))) == b
    )


def _n4_triple_loop(ctx, d, c):
    """Literal enumeration of (x1, x2, x3) with x4 = x1 - x2 + x3."""
    q = ctx.q
    powd = [ctx.pow(x, d) for x in range(q)]
    total = 0
    for x1 in range(q):
        for x2 in range(q):
            head = ctx.sub(powd[x1], ctx.mul(c, powd[x2]))
            diff = ctx.sub(x1, x2)
            for x3 in range(q):
                x4 = ctx.add(diff, x3)
                if ctx.add(head, ctx.sub(ctx.mul(c, powd[x3]), powd[x4])) == 0:
                    total += 1
    return total


def _n4_per_alpha(ctx, d, c):
    """Per-alpha scalar count: sum over alpha of the squared value counts of
    x^d - c*(x - alpha)^d."""
    powd = [ctx.pow(x, d) for x in range(ctx.q)]
    total = 0
    for alpha in range(ctx.q):
        h = Counter(ctx.sub(powd[x], ctx.mul(c, powd[ctx.sub(x, alpha)])) for x in range(ctx.q))
        total += sum(k * k for k in h.values())
    return total


def _assert_delta_matches_scalar(ctx, d, cs):
    q = ctx.q
    u = [ctx.pow(ctx.add(x, 1), d) for x in range(q)]
    v = [ctx.pow(x, d) for x in range(q)]
    for c in cs:
        expected = [ctx.sub(u[x], ctx.mul(c, v[x])) for x in range(q)]
        assert PowerMapCase(PowerMap(ctx, d), c).delta_values().tolist() == expected, (ctx, d, c)


# ---------------------------------------------------------------------------
# Exponent normalisation
# ---------------------------------------------------------------------------

def test_normalize_exponent():
    assert normalize_exponent(3, 25) == 3
    assert normalize_exponent(24, 25) == 24
    assert normalize_exponent(25, 25) == 1
    assert normalize_exponent(48, 25) == 24
    with pytest.raises(ValueError):
        normalize_exponent(0, 25)


def test_case_rejects_bad_c():
    with pytest.raises(ValueError):
        PowerMapCase(PowerMap(get_ctx(5, 1), 3), 5)


# ---------------------------------------------------------------------------
# Row 1 of the c-DDT: delta_histogram
# ---------------------------------------------------------------------------

def test_c_delta_gf5_examples():
    hist = PowerMapCase(PowerMap(get_ctx(5, 1), 3), 4).delta_histogram()  # c = -1
    assert hist[1] == 2  # x in {0, 3}
    assert hist[2] == 0


def test_c_delta_c0_bijective():
    for p, n, d in [(5, 1, 3), (2, 3, 3), (7, 1, 5)]:
        ctx = get_ctx(p, n)
        assert math.gcd(d, ctx.q - 1) == 1
        hist = PowerMapCase(PowerMap(ctx, d), 0).delta_histogram()
        for b in range(ctx.q):
            assert hist[b] == 1


def test_c_delta_matches_scalar_count():
    rng = SplitMix64(11)
    for p, n in [(2, 3), (3, 2), (5, 1), (7, 1)]:
        ctx = get_ctx(p, n)
        for _ in range(10):
            d = 1 + rng.below(ctx.q - 2) if ctx.q > 3 else 1
            c = rng.below(ctx.q)
            hist = PowerMapCase(PowerMap(ctx, d), c).delta_histogram()
            for b in range(ctx.q):
                assert hist[b] == _delta_count_scalar(ctx, d, c, b)


def test_ddt_row_scaling_law():
    """Row a != 0 of the c-DDT is row 1 read at b*a^(-d), which is why
    c_spectrum reads row 1 alone."""
    rng = SplitMix64(17)
    for p, n in [(3, 2), (5, 1), (5, 2), (2, 4), (11, 1), (5, 3)]:
        ctx = get_ctx(p, n)
        for _ in range(8):
            d = 1 + rng.below(ctx.q - 2)
            c = rng.below(ctx.q)
            case = PowerMapCase(PowerMap(ctx, d), c)
            hist = case.delta_histogram()
            for _ in range(12):
                a = 1 + rng.below(ctx.q - 1)
                b = rng.below(ctx.q)
                direct = sum(
                    1
                    for x in range(ctx.q)
                    if ctx.sub(
                        ctx.pow(ctx.add(x, a), case.d),
                        ctx.mul(c, ctx.pow(x, case.d)),
                    )
                    == b
                )
                assert hist[ctx.mul(b, ctx.inv(ctx.pow(a, case.d)))] == direct


# ---------------------------------------------------------------------------
# Spectra
# ---------------------------------------------------------------------------

def test_spectrum_gf5_cube():
    spec = c_spectrum(PowerMapCase(PowerMap(get_ctx(5, 1), 3), 4))
    assert spec.omega == {0: 2, 1: 1, 2: 2}
    assert spec.uniformity == 2


def test_spectrum_gf5_identity():
    spec = c_spectrum(PowerMapCase(PowerMap(get_ctx(5, 1), 1), 4))
    assert spec.positive() == {1: 5}
    assert spec.omega[0] == 0  # omega_0 is always materialised


def test_spectrum_gf9_d6():
    spec = c_spectrum(PowerMapCase(PowerMap(get_ctx(3, 2), 6), 2))
    assert spec.positive() == {0: 4, 1: 1, 2: 4}


def test_spectrum_c1_classical_row():
    # x^3 over GF(8) is APN: the a = 1 row has only 0s and 2s
    spec = c_spectrum(PowerMapCase(PowerMap(get_ctx(2, 3), 3), 1))
    assert spec.positive() == {0: 4, 2: 4}


def test_uniformity_classification():
    def classify(p, d, c):
        u = c_spectrum(PowerMapCase(PowerMap(get_ctx(p, 1), d), c)).uniformity
        return u, uniformity_label(u)

    assert classify(5, 1, 4) == (1, "PcN")
    assert classify(5, 3, 4) == (2, "APcN")
    assert classify(7, 5, 3)[1] == "(c,3)-uniform"


def test_every_spectrum_satisfies_counting_identity():
    rng = SplitMix64(23)
    for p, n in [(2, 4), (3, 3), (5, 2), (7, 2), (13, 1)]:
        ctx = get_ctx(p, n)
        for _ in range(25):
            d = 1 + rng.below(ctx.q - 2)
            c = rng.below(ctx.q)
            spec = c_spectrum(PowerMapCase(PowerMap(ctx, d), c))
            assert sum(spec.omega.values()) == ctx.q
            assert sum(i * w for i, w in spec.omega.items()) == ctx.q


# ---------------------------------------------------------------------------
# Quadruple counts
# ---------------------------------------------------------------------------

def test_n4_gf5_linear():
    assert n4_bruteforce(PowerMapCase(PowerMap(get_ctx(5, 1), 1), 4)) == 25


def test_n4_gf5_cube():
    assert n4_bruteforce(PowerMapCase(PowerMap(get_ctx(5, 1), 3), 4)) == 41


def test_n4_gf25_d11():
    assert n4_bruteforce(PowerMapCase(PowerMap(get_ctx(5, 2), 11), 4)) == 1009


def test_n4_matches_triple_loop():
    rng = SplitMix64(31)
    for p, n in [(2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]:
        ctx = get_ctx(p, n)
        for _ in range(6):
            d = 1 + rng.below(ctx.q - 2) if ctx.q > 3 else 1
            c = rng.below(ctx.q)
            case = PowerMapCase(PowerMap(ctx, d), c)
            assert n4_bruteforce(case) == _n4_triple_loop(ctx, case.d, c), (p, n, d, c)


def test_log_domain_delta_values_every_c_and_x():
    # every odd q <= 243 and every q = 2^n <= 2^8, with one exponent per field
    # rotating through the inverse and exponents with gcd(d, q-1) > 1; every
    # c and x, so c = 0, c = 1 and the patched points x = 0 and x = -1 too
    for fields in (odd_fields(0, 243), [(2, n) for n in range(1, 9)]):
        for i, (p, n) in enumerate(fields):
            q = p ** n
            d = (q - 2, 2, 4, (q - 1) // 2, q - 1)[i % 5] or q - 1  # 0 at q = 2
            _assert_delta_matches_scalar(get_ctx(p, n), d, range(q))


@pytest.mark.parametrize("p,n", [(3, 5), (2, 8)], ids=["3^5", "2^8"])
def test_power_map_keeps_only_what_its_kernel_reads(p, n):
    """A spectrum at c != 0 caches the delta pair alone: no kernel reads x^d
    itself, so x^d is not kept.  The N4 transforms add their own tables."""
    ctx = get_ctx(p, n)
    power = PowerMap(ctx, ctx.q - 2)
    c_spectrum(PowerMapCase(power, 2))
    assert vars(power).keys() == {"ctx", "d", "delta_pair"}
    for arr in power.delta_pair:
        assert arr.dtype == np.int32 and not arr.flags.writeable
    n4_fourier(PowerMapCase(power, 2))
    assert "n4_pairs" in vars(power)


def test_log_domain_delta_values_sampled_c():
    rng = SplitMix64(41)
    for p, n in odd_fields(243, 729):
        ctx = get_ctx(p, n)
        q = ctx.q
        for d in (q - 2, 3, (q - 1) // 2):
            _assert_delta_matches_scalar(ctx, d, [1, ctx.neg_one, 2 + rng.below(q - 2)])


def test_delta_values_interleaved_exponents_match_fresh_context():
    """Two power maps of different d on one context, read in alternation,
    with the c = 0 path between them, give what a fresh context gives."""
    rng = SplitMix64(43)
    for p, n in ((3, 5), (5, 3), (7, 2)):
        ctx = build_context(FieldSpec(p, n))
        q = ctx.q
        d1, d2 = q - 2, (q - 1) // 2
        powers = {d: PowerMap(ctx, d) for d in (d1, d2)}
        for d in (d1, d2, d1, d1, d2, d2, d1, d2):
            for c in (ctx.neg_one, 0, 2 + rng.below(q - 2)):
                fresh = PowerMap(build_context(FieldSpec(p, n)), d)
                assert np.array_equal(PowerMapCase(powers[d], c).delta_values(),
                                      PowerMapCase(fresh, c).delta_values()), (p, n, d, c)


_SAMPLE_FIELDS = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3),
                  (5, 1), (5, 2), (7, 1), (7, 2), (11, 1), (13, 1)]


@pytest.mark.parametrize("p,n", _SAMPLE_FIELDS, ids=[f"{p}^{n}" for p, n in _SAMPLE_FIELDS])
def test_delta_sample_matches_scalar_on_whole_fields(p, n):
    """The sample is every x outside {0, -1}; every d and every c, 0 and 1
    included, each d a one-row call.  Its counts never exceed the field's,
    so exceeds() is True only where the uniformity is above the bound."""
    ctx = get_ctx(p, n)
    q = ctx.q
    x = [v for v in range(q) if v not in (0, ctx.neg_one)]
    sample = DeltaSample(ctx, np.array(x, dtype=np.int64))
    assert sample.x.tolist() == x
    for d in range(1, q):
        u = [ctx.pow(ctx.add(v, 1), d) for v in x]
        v = [ctx.pow(v, d) for v in x]
        for c in range(q):
            got = sample.delta([d], c)
            assert got.shape == (1, len(x)), (p, n, d, c)
            got = got[0]
            assert got.tolist() == [ctx.sub(a, ctx.mul(c, b)) for a, b in zip(u, v)], (p, n, d, c)
            hist = PowerMapCase(PowerMap(ctx, d), c).delta_histogram()
            assert (np.bincount(got, minlength=q) <= hist).all()
            for bound in range(4):
                assert not sample.exceeds([d], c, bound)[0] or hist.max() > bound, (p, n, d, c)


_REALISTIC_FIELDS = [(3, 10), (5, 7), (7, 5), (2, 16)]


@pytest.mark.parametrize("p,n", _REALISTIC_FIELDS, ids=[f"{p}^{n}" for p, n in _REALISTIC_FIELDS])
def test_zech_paths_agree_at_realistic_q(p, n):
    """The scan sample and the spectrum kernel give the same Delta_c on the
    sample at q in the tens of thousands, where logs and indexes reach
    +-(q-1); so do zech_sum at its index ends and vec_add/vec_sub against
    the scalar add/sub."""
    ctx = get_ctx(p, n)
    q = ctx.q
    sample = _scan_sample(ctx, 2)
    rng = SplitMix64(q)
    ds = {1, q - 2, (q - 1) // 2, q - 1} | {1 + rng.below(q - 1) for _ in range(3)}
    cs = {0, 1, ctx.neg_one, rng.below(q)}
    for c in sorted(cs):
        rows = sample.delta(sorted(ds), c)  # one block, as a scan reads it
        for d, row in zip(sorted(ds), rows):
            full = PowerMapCase(PowerMap(ctx, d), c).delta_values()
            assert np.array_equal(row, full[sample.x]), (p, n, d, c)
    if p == 2:
        return
    g = ctx.generator
    for la in (0, 1, q - 2):
        for t in (-(q - 1), -(q - 1) // 2, -1, 0, (q - 1) // 2, q - 2):
            want = ctx.mul(ctx.pow(g, la), ctx.add(1, ctx.pow(g, t)))
            got = ctx.zech_sum(np.array([la]), np.array([t], dtype=np.int64))
            assert got.tolist() == [want], (p, n, la, t)
    if (p, n) != (3, 10):
        return
    a = np.array([rng.below(q) for _ in range(2000)] + [0, 0, 5, 1, ctx.neg_one], dtype=np.int64)
    b = np.array([rng.below(q) for _ in range(2000)] + [0, 7, 0, ctx.neg_one, 1], dtype=np.int64)
    a = np.concatenate([a, a[:500]])
    b = np.concatenate([b, ctx.vec_scale(a[:500], ctx.neg_one)])  # a = -b
    assert ctx.vec_add(a, b).tolist() == [ctx.add(x, y) for x, y in zip(a.tolist(), b.tolist())]
    assert ctx.vec_sub(a, b).tolist() == [ctx.sub(x, y) for x, y in zip(a.tolist(), b.tolist())]
    assert ctx.vec_sub(a, a).tolist() == [0] * len(a)


_BLOCK_FIELDS = [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4),
                 (5, 2), (7, 2), (11, 1), (13, 1)]


@pytest.mark.parametrize("step", [3, spectrum._D_STEP])
@pytest.mark.parametrize("p,n", _BLOCK_FIELDS, ids=[f"{p}^{n}" for p, n in _BLOCK_FIELDS])
def test_sample_blocks_match_a_bincount_per_d(p, n, step, monkeypatch):
    """exceeds() on a block of exponents decides as a bincount of each d's
    Delta_c over the sample and a max() > bound check: every d and every c,
    0 and 1 included, bounds -1 to 3, on the whole field outside {0, -1}
    and on its first half.  The exponents come in blocks of 1 to 7 that
    straddle multiples of the step B of d = i*B + j, then as the class
    representatives, where d // B jumps, and again from the top, where it
    jumps back.  B = 3 makes i step at q = 11 and 13, where every class is
    a singleton."""
    monkeypatch.setattr(spectrum, "_D_STEP", step)
    ctx = get_ctx(p, n)
    q = ctx.q
    x = np.array([v for v in range(q) if v not in (0, ctx.neg_one)], dtype=np.int64)
    reps = [members[0] for members in cyclotomic_classes(p, q)]
    feeds = [list(range(1, q)), reps, reps[::-1]]
    for xs in (x, x[:max(1, len(x) // 2)]):
        sample = DeltaSample(ctx, xs)
        for c in range(q):
            hit = {d: int(np.bincount(PowerMapCase(PowerMap(ctx, d), c).delta_values()[xs]).max())
                   for d in range(1, q)}
            for bound in range(-1, 4):
                size = (1, 2, 5, 7)[(c + bound) % 4]
                for ds in feeds:
                    got = np.concatenate([sample.exceeds(ds[k:k + size], c, bound)
                                          for k in range(0, len(ds), size)])
                    assert got.dtype == bool and len(got) == len(ds)
                    want = [hit[d] > bound for d in ds]
                    assert got.tolist() == want, (p, n, step, len(xs), c, bound, size)


_ROW_FIELDS = [(3, 10), (2, 16), (5, 7), (65537, 1)]


@pytest.mark.parametrize("p,n", _ROW_FIELDS, ids=[f"{p}^{n}" for p, n in _ROW_FIELDS])
def test_sample_log_rows_match_the_division(p, n):
    """The rows d*logs mod q-1 that a sample builds by adding and wrapping
    in uint32 equal the int64 product and %, at d = 1, B-1, B, B+1, 2B,
    q-2 and q-1, as d // B steps by one up to 8, across jumps of d // B by
    more than one in both directions, fed one d at a time and as one block;
    at c = 0 only the log(x+1) rows."""
    ctx = get_ctx(p, n)
    q, b = ctx.q, spectrum._D_STEP
    sample = _scan_sample(ctx, 2)
    ds = [1, b - 1, b, b + 1, *range(2 * b, 9 * b, b + 1), 20 * b + 3, q - 2, q - 1]
    for feed in ([[d] for d in ds] + [[d] for d in reversed(ds)], [ds, ds[::-1]]):
        for block in feed:
            want = np.array(block, dtype=np.int64)[:, None, None] * sample.logs % (q - 1)
            got = sample.log_rows(block)
            assert got.dtype == np.uint32 and np.array_equal(got, want), (p, n, block)
            assert np.array_equal(sample.log_rows(block, 1), want[:, :1]), (p, n, block)


_ORACLE_FIELDS = [(2, 16), (3, 10)]


@pytest.mark.parametrize("p,n", _ORACLE_FIELDS, ids=[f"{p}^{n}" for p, n in _ORACLE_FIELDS])
def test_delta_values_match_table_free_oracles(p, n):
    """log x * d passes 2^31 at these q, so an int32 product in the kernel
    would show here, where test_zech_paths_agree_at_realistic_q compares two
    readers of the same tables: delta_values at seeded x against
    square-and-multiply and the polynomial product, which read no table.
    Every table of the context and of the power maps is int32 and read-only."""
    ctx = get_ctx(p, n)
    q, order = ctx.q, ctx.q - 1
    rng = SplitMix64(q + 1)
    xs = [0, ctx.neg_one] + [rng.below(q) for _ in range(198)]
    ds = [q - 2, order // 2, order, 1 + rng.below(order)]
    cs = [0, 1, ctx.neg_one, 2 + rng.below(q - 2)]
    tables = [ctx.exp, ctx.log, ctx.succ] + ([] if p == 2 else [ctx.zech])
    for d in ds:
        power = PowerMap(ctx, d)
        v = {x: poly_pow(ctx, x, d) for x in set(xs) | {ctx.add(x, 1) for x in xs}}
        for c in cs:
            got = PowerMapCase(power, c).delta_values()[xs]
            want = [ctx.sub(v[ctx.add(x, 1)], poly_mul(ctx, c, v[x])) for x in xs]
            assert got.tolist() == want, (p, n, d, c)
        tables += [power.powd, *power.delta_pair]
    for table in tables:
        assert table.dtype == np.int32 and not table.flags.writeable


@pytest.mark.parametrize("block", [spectrum._N4_BLOCK, 64])
def test_n4_blocks_match_per_alpha_count(monkeypatch, block):
    monkeypatch.setattr(spectrum, "_N4_BLOCK", block)  # 64: several blocks, a partial last one
    rng = SplitMix64(43)
    for p, n in [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3),
                 (5, 1), (5, 2), (7, 1), (7, 2)]:
        ctx = get_ctx(p, n)
        for d in {1, 3, max(ctx.q - 2, 1), 1 + rng.below(ctx.q - 1)}:
            for c in {0, 1, ctx.neg_one, rng.below(ctx.q)}:
                case = PowerMapCase(PowerMap(ctx, d), c)
                assert n4_bruteforce(case) == _n4_per_alpha(ctx, case.d, c), (p, n, d, c)


def test_n4_budget():
    with pytest.raises(BudgetExceeded):
        n4_bruteforce(PowerMapCase(PowerMap(get_ctx(3, 6), 4), 2))
    assert n4_bruteforce(PowerMapCase(PowerMap(get_ctx(3, 6), 4), 2), budget=729) > 0


def test_n4_minus_one_divisible_by_q_minus_1():
    rng = SplitMix64(37)
    for p, n in [(3, 2), (5, 1), (7, 1), (2, 4)]:
        ctx = get_ctx(p, n)
        for _ in range(10):
            d = 1 + rng.below(ctx.q - 2)
            u = rng.below(ctx.q - 1)
            c = u if u == 0 else u + 1  # c != 1
            n4 = n4_bruteforce(PowerMapCase(PowerMap(ctx, d), c))
            assert (n4 - 1) % (ctx.q - 1) == 0


# Every d and every c, 0 and 1 included, on every field here: q(q - 1)
# pairs, 5,360 in all.
_FOURIER_FIELDS = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3),
                   (5, 1), (5, 2), (7, 1), (7, 2), (11, 1), (13, 1)]


@pytest.mark.parametrize("p,n", _FOURIER_FIELDS, ids=[f"{p}^{n}" for p, n in _FOURIER_FIELDS])
def test_n4_fourier_matches_bruteforce_on_whole_fields(p, n):
    """One PowerMap per d serves every c, so its transforms are shared; the
    reference reads a fresh one each time."""
    ctx = get_ctx(p, n)
    for d in range(1, ctx.q):
        power = PowerMap(ctx, d)
        for c in range(ctx.q):
            fresh = PowerMapCase(PowerMap(ctx, d), c)
            assert n4_fourier(PowerMapCase(power, c)) == n4_bruteforce(fresh), (p, n, d, c)


def test_n4_fourier_large_p_and_several_primes():
    """p >= 128 takes a smaller l (a transform step sums p products), 617
    also several transform blocks and two primes; 3^6 and 2^10 pass 625
    and need two primes too."""
    for p, n in [(131, 1), (257, 1), (617, 1), (3, 6), (2, 10)]:
        ctx = get_ctx(p, n)
        q = ctx.q
        for d, c in [(3, 2), (q - 2, 5 % q), ((q - 1) // 2, ctx.neg_one), (5, 0),
                     (7, 1), (q - 1, 3 % q)]:
            case = PowerMapCase(PowerMap(ctx, d), c)
            assert n4_fourier(case) == n4_bruteforce(case, budget=q), (p, n, d, c)


def test_n4_fourier_other_modulus_and_small_blocks(monkeypatch):
    """The Hankel matrix follows the modulus; blocks of 8 transform-matrix
    entries split every p > 2 into several."""
    monkeypatch.setattr(spectrum, "_DFT_BLOCK", 8)
    for p, n in [(2, 4), (3, 3), (5, 2), (7, 2), (13, 1)]:
        ctx = build_context(FieldSpec(p, n, find_irreducible(p, n, 1 if n > 1 else 0)))
        for d in range(1, ctx.q, 3):
            for c in (0, 1, 2, ctx.neg_one, ctx.q - 2):
                case = PowerMapCase(PowerMap(ctx, d), c)
                assert n4_fourier(case) == n4_bruteforce(case), (p, n, d, c)


def test_dft_index_is_exact_up_to_the_context_cap():
    """j*k mod p by doubled row steps, for every row split of small primes,
    and for the last rows of 65537, where p^2 passes int32, and of the
    largest prime below 2^22."""
    for p in (2, 3, 5, 7, 13, 131, 617):
        want = np.multiply.outer(np.arange(p), np.arange(p)) % p
        for rows in (1, 2, 3, 5, 8, p):
            for lo in range(0, p, rows):
                got = spectrum._dft_index(p, lo, min(rows, p - lo))
                assert got.dtype == np.int64 and (got == want[lo:lo + rows]).all(), (p, rows, lo)
                assert not got.flags.writeable  # _dft_block shares it
    for p, rows in ((65537, 6), (4194301, 2)):
        assert is_prime_trial(p)
        got = spectrum._dft_index(p, p - rows, rows)
        for j, row in zip(range(p - rows, p), got):
            assert (row == j * np.arange(p, dtype=np.int64) % p).all(), (p, j)


def test_fourier_moduli_are_primes_with_a_root_of_order_p():
    assert [m for m in range(20000) if is_prime(m)] == \
        [m for m in range(20000) if is_prime_trial(m)]
    assert not is_prime(25326001)  # strong pseudoprime to 2, 3, 5
    for p, q in [(2, 2 ** 22), (3, 3 ** 13), (13, 13 ** 2), (131, 131), (617, 617), (2039, 2039 ** 2)]:
        moduli = spectrum._fourier_moduli(p, q ** 3)
        assert math.prod(ell for ell, _ in moduli) > q ** 3
        for ell, zeta in moduli:
            assert is_prime_trial(ell) and ell % p == 1, (p, ell)
            assert p * (ell - 1) ** 2 < 2 ** 63 and ell < spectrum._ELL_MAX, (p, ell)
            assert zeta != 1 and pow(zeta, p, ell) == 1, (p, ell)


def test_fourier_moduli_run_out_on_large_prime_fields():
    """A large prime p leaves too few primes l = 1 (mod p) under the int64
    limit for a product past p^3 (for some p from 72973 on, for every p past
    524171); the search raises once only l = 1 is left, where it used to
    step below it for ever.  4194301 is the largest prime under the context
    cap, and its search starts at l = 1."""
    for p in (262139, 1000003, 4194301):
        started = time.perf_counter()
        with pytest.raises(BudgetExceeded):
            spectrum._fourier_moduli(p, p ** 3)
        assert time.perf_counter() - started < 2.0, p
    assert [ell for ell, _ in spectrum._fourier_moduli(131071, 131071 ** 3)] == \
        [6815693, 4718557, 2883563]


def test_n4_field_asks_for_its_moduli_before_any_q_sized_array(monkeypatch):
    """GF(262139) has too few primes l for N4: _N4Field raises BudgetExceeded
    before it maps L(w) or builds any other q-sized array."""
    ctx = build_context(FieldSpec(262139, 1))

    def unreachable(*args):
        raise AssertionError("built a q-sized array before the moduli")

    monkeypatch.setattr(spectrum, "_linear_mapper", unreachable)
    with pytest.raises(BudgetExceeded):
        spectrum._N4Field(ctx)


@pytest.mark.parametrize("p,n", [(2, 12), (3, 8), (7, 4), (2, 16)])
def test_eq2_beyond_the_bruteforce_budget(p, n):
    ctx = get_ctx(p, n)
    q = ctx.q
    for d in (q - 2, 7):
        for c in (2, q - 1):
            case = PowerMapCase(PowerMap(ctx, d), c)
            n4 = n4_fourier(case)
            assert check_identities(c_spectrum(case), n4).eq2_ok, (p, n, d, c)


def test_n4_field_is_built_once_per_context_and_read_only(monkeypatch):
    """Every PowerMap of one context reads one _N4Field, built on first use
    and kept off the context; another context of the same field builds its
    own."""
    built = []
    real = spectrum._N4Field

    def counting(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(spectrum, "_N4Field", counting)
    ctx = build_context(FieldSpec(3, 5))
    before = dict(vars(ctx))
    for d in (ctx.q - 2, 2, 7, 11, 121):
        PowerMap(ctx, d).n4_pairs
    assert len(built) == 1 and spectrum._n4_field(ctx) is built[0]
    assert vars(ctx).keys() == before.keys()
    assert all(vars(ctx)[k] is v for k, v in before.items())  # no ndarray added or rebound
    fld = built[0]
    w = np.arange(ctx.q)
    assert (fld.neg == [ctx.neg(int(x)) for x in w]).all()
    traces = np.array([ctx.trace(int(x)) for x in w])
    for ell, zp, psi in fld.moduli:
        assert psi.dtype == np.float64 and (psi == zp[traces]).all(), ell
    for arr in (fld.lw, fld.neg, *(a for _, zp, psi in fld.moduli for a in (zp, psi))):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
    other = build_context(FieldSpec(3, 5))
    PowerMap(other, 5).n4_pairs
    assert len(built) == 2 and spectrum._n4_field(other) is built[1]


def test_antilog_build_and_n4_share_one_digit_mapper():
    """_linear_mapper is cached per (p, n): building 3^5 and counting N4 on
    it builds one mapper, which the map L(w) then reads from the cache."""
    assert _linear_mapper(3, 5) is _linear_mapper(3, 5)
    _linear_mapper.cache_clear()
    ctx = build_context(FieldSpec(3, 5))
    assert n4_fourier(PowerMapCase(PowerMap(ctx, 5), 2)) > 0
    info = _linear_mapper.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_n4_field_is_dropped_with_its_context():
    ctx = build_context(FieldSpec(3, 4))
    power = PowerMap(ctx, 5)
    n4_fourier(PowerMapCase(power, 2))
    ref = weakref.ref(spectrum._n4_field(ctx))
    assert ref() is not None
    del ctx, power
    gc.collect()
    assert ref() is None


def test_n4_field_follows_the_modulus():
    """Two contexts of 3^4 under different moduli, called in turn, each
    count what enumeration counts."""
    ctxs = [build_context(FieldSpec(3, 4, find_irreducible(3, 4, i))) for i in (0, 3)]
    assert ctxs[0].modulus != ctxs[1].modulus
    assert not (spectrum._n4_field(ctxs[0]).lw == spectrum._n4_field(ctxs[1]).lw).all()
    for d in (2, 5, 7, 10, 79):
        for c in (0, 2, 5, 80):
            for ctx in ctxs:
                case = PowerMapCase(PowerMap(ctx, d), c)
                assert n4_fourier(case) == n4_bruteforce(case), (ctx.modulus, d, c)


@pytest.mark.parametrize("p,n", [(3, 5), (2, 8), (7, 3)], ids=["3^5", "2^8", "7^3"])
def test_n4_fourier_first_read_from_threads(p, n):
    """Four threads, more than the cores, that first read n4_fourier on one
    fresh context at once, each for its own d, count what a serial run and
    enumeration count, with thread switches forced often.  Before Python
    3.12, cached_property serialises first reads, so each thread also asks
    for the field's _N4Field itself, which no lock guards."""
    q = p ** n
    cases = [(q - 2, 2), (6, q - 1), (5, 3), (q - 1, 0)]
    serial = build_context(FieldSpec(p, n))
    want = [n4_fourier(PowerMapCase(PowerMap(serial, d), c)) for d, c in cases]
    assert want == [n4_bruteforce(PowerMapCase(PowerMap(serial, d), c)) for d, c in cases]
    ref = spectrum._n4_field(serial)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            ctx = build_context(FieldSpec(p, n))
            start = threading.Barrier(len(cases), timeout=30)

            def first_read(d, c):
                start.wait()
                fld = spectrum._n4_field(ctx)
                return n4_fourier(PowerMapCase(PowerMap(ctx, d), c)), fld

            with concurrent.futures.ThreadPoolExecutor(max_workers=len(cases)) as pool:
                got, flds = zip(*pool.map(first_read, *zip(*cases), timeout=60))
            assert list(got) == want
            for fld in flds:
                assert (fld.lw == ref.lw).all() and (fld.neg == ref.neg).all()
                assert [(ell, zp.tolist(), psi.tolist()) for ell, zp, psi in fld.moduli] == \
                    [(ell, zp.tolist(), psi.tolist()) for ell, zp, psi in ref.moduli]
    finally:
        sys.setswitchinterval(interval)


def _n4_pairs_reference(power):
    """n4_pairs with every field-only array built per d and g summed by
    np.add.at, as before the field's part was shared."""
    ctx = power.ctx
    powd = power.powd.astype(np.intp)
    p, n, q = ctx.p, ctx.n, ctx.q
    w = np.arange(q, dtype=np.int64)
    x_pows = [1]
    for _ in range(2 * n - 2):
        x_pows.append(ctx.mul(x_pows[-1], p))
    traces = np.array([ctx.trace(v) for v in x_pows], dtype=np.int64)
    hankel = traces[np.add.outer(np.arange(n), np.arange(n))]
    lw = _linear_mapper(p, n)(hankel, w)
    trace = lw % p
    neg = ctx.vec_scale(w, ctx.neg_one)
    eps_w = neg if power.d % 2 == 0 else w
    h = np.bincount(powd, minlength=q)
    out = []
    for ell, zeta in spectrum._fourier_moduli(p, q ** 3):
        zp = np.array([pow(zeta, k, ell) for k in range(p)], dtype=np.int64)
        g = np.zeros(q, dtype=np.int64)
        np.add.at(g, powd, zp[trace])
        gh = np.stack([g % ell, h % ell])
        for _ in range(n):
            gh = spectrum._transform_leading_digit(gh, zp, ell)
        s1, s0 = gh[:, lw]
        out.append((ell, s1 * s1[eps_w] % ell, s0 * s0[neg] % ell))
    return out


@pytest.mark.parametrize("p,n", [(3, 10), (2, 16)], ids=["3^10", "2^16"])
def test_n4_pairs_match_the_per_d_reference_at_large_q(p, n):
    ctx = get_ctx(p, n)
    q = ctx.q
    rng = SplitMix64(53)
    for d, c in [(q - 2, 3), (2 * (1 + rng.below(q // 2 - 1)), 2 + rng.below(q - 2)),
                 (1 + rng.below(q - 2), 2 + rng.below(q - 2))]:
        power = PowerMap(ctx, d)
        want = _n4_pairs_reference(power)
        assert len(power.n4_pairs) == len(want) > 1
        for (ell, pair1, pair0), (ell_r, pair1_r, pair0_r) in zip(power.n4_pairs, want):
            assert ell == ell_r and (pair1 == pair1_r).all() and (pair0 == pair0_r).all(), (d, ell)
        case = PowerMapCase(power, c)
        assert check_identities(c_spectrum(case), n4_fourier(case)).eq2_ok, (d, c)


# ---------------------------------------------------------------------------
# Identities
# ---------------------------------------------------------------------------

def test_check_identities_examples():
    spec = CDiffSpectrum(q=5, d=3, c=4, uniformity=2, omega={0: 2, 1: 1, 2: 2})
    rep = check_identities(spec)
    assert rep.eq1_ok and rep.eq2_ok is None
    rep = check_identities(spec, n4=41)
    assert rep.eq1_ok and rep.eq2_ok  # 9 = 40/4 - 1
    rep = check_identities(spec, n4=45)
    assert rep.eq1_ok and rep.eq2_ok is False


def test_check_identities_tampered():
    bad = CDiffSpectrum(q=5, d=3, c=4, uniformity=2, omega={1: 5, 2: 1})
    rep = check_identities(bad)
    assert not rep.eq1_ok and rep.eq2_ok is None
    off_by_one = CDiffSpectrum(q=5, d=3, c=4, uniformity=2, omega={0: 1, 1: 1, 2: 2})
    assert not check_identities(off_by_one).eq1_ok  # sum(i*omega) = q, sum(omega) != q
    moved = CDiffSpectrum(q=5, d=3, c=4, uniformity=3, omega={0: 2, 1: 1, 2: 1, 3: 1})
    assert not check_identities(moved).eq1_ok  # sum(omega) = q, sum(i*omega) != q


def test_check_identities_c1_skips_eq2():
    spec = c_spectrum(PowerMapCase(PowerMap(get_ctx(2, 3), 3), 1))
    rep = check_identities(spec, n4=1)
    assert rep.eq2_ok is None


def test_eq2_inversion_matches_bruteforce():
    rng = SplitMix64(43)
    for p, n in [(2, 4), (3, 3), (5, 2), (7, 2), (5, 4), (13, 2)]:
        ctx = get_ctx(p, n)
        for _ in range(4):
            d = 1 + rng.below(ctx.q - 2)
            u = rng.below(ctx.q - 1)
            c = u if u == 0 else u + 1
            case = PowerMapCase(PowerMap(ctx, d), c)
            spec = c_spectrum(case)
            n4 = n4_bruteforce(case, budget=ctx.q)
            assert check_identities(spec, n4).eq2_ok, (p, n, d, c)


# ---------------------------------------------------------------------------
# Structural properties
# ---------------------------------------------------------------------------

def test_involution_parity_even_d_c_minus_one():
    # x -> -x-1 fixes Delta_{-1} when d is even, pairing solutions off the
    # fixed point -1/2; every count is even except at b = Delta(-1/2).
    for p, n in [(3, 2), (3, 3), (3, 6), (5, 2), (7, 2), (11, 1), (13, 1)]:
        ctx = get_ctx(p, n)
        for d in (2, 4, 6):
            case = PowerMapCase(PowerMap(ctx, d), ctx.neg_one)
            hist = case.delta_histogram()
            xf = ctx.neg(ctx.inv(2 % ctx.p))
            b_star = ctx.sub(
                ctx.pow(ctx.add(xf, 1), case.d),
                ctx.mul(ctx.neg_one, ctx.pow(xf, case.d)),
            )
            assert hist[b_star] % 2 == 1
            mask = np.ones(ctx.q, dtype=bool)
            mask[b_star] = False
            assert not np.any(hist[mask] % 2)


_INVERSION_FIELDS = [(2, n) for n in range(1, 7)] + odd_fields(0, 81)


@pytest.mark.parametrize("p,n", _INVERSION_FIELDS, ids=[f"{p}^{n}" for p, n in _INVERSION_FIELDS])
def test_inversion_symmetry_of_delta(p, n):
    """x = -1 - y gives Delta_c(-1-y) = -c*(-1)^d*Delta_{1/c}(y), so (d, c)
    and (d, 1/c) share omega and N4; sweep_c computes one of each pair."""
    ctx = get_ctx(p, n)
    q = ctx.q
    reflect = ctx.vec_sub(ctx.neg_one, np.arange(q))  # y -> -1 - y
    for members in cyclotomic_classes(p, q):
        d = members[0]
        sign = ctx.pow(ctx.neg_one, d)
        for c in range(1, q):
            case, partner = PowerMapCase(PowerMap(ctx, d), c), PowerMapCase(PowerMap(ctx, d), ctx.inv(c))
            scaled = ctx.vec_scale(partner.delta_values(), ctx.neg(ctx.mul(c, sign)))
            assert np.array_equal(case.delta_values()[reflect], scaled), (p, n, d, c)
            assert c_spectrum(case).omega == c_spectrum(partner).omega, (p, n, d, c)
            if partner.c >= c:  # N4 once per pair
                assert n4_bruteforce(case) == n4_bruteforce(partner), (p, n, d, c)


# Every field with 3 <= q <= 343, prime fields only up to 199: the primes
# from 211 to 337 would add 300,000 pairs, three times the rest.
_INVERSE_FIELDS = [(p, n) for p, n in [(2, n) for n in range(2, 9)] + odd_fields(2, 343)
                   if n > 1 or p < 200]


@pytest.mark.parametrize("p,n", _INVERSE_FIELDS, ids=[f"{p}^{n}" for p, n in _INVERSE_FIELDS])
def test_inverse_exponent_shares_omega_and_n4(p, n):
    """With e = 1/d mod (q - 1) and y = x^d, (x + 1)^d - c*x^d = b becomes
    (c*y + b)^e - y^e = 1, so row 1 of (d, c) at b != 0 is row 1 of
    (e, c^-e) at b^-e, and both have one solution at b = 0: the two share
    omega and N4 (derived here, checked by enumeration; N4 for q <= 81).

    Every permutation class, every c outside {0, 1}.  The relation is an
    involution, so each pair of classes is checked from its smaller
    representative only."""
    ctx = get_ctx(p, n)
    q = ctx.q
    for members in cyclotomic_classes(p, q):
        d = members[0]
        if math.gcd(d, q - 1) != 1:
            continue
        e = pow(d, -1, q - 1)
        power, partner = PowerMap(ctx, d), PowerMap(ctx, e)
        if min(partner.members) < d:
            continue
        for c in range(2, q):
            case, other = PowerMapCase(power, c), PowerMapCase(partner, ctx.pow(c, q - 1 - e))
            assert c_spectrum(case).omega == c_spectrum(other).omega, (p, n, d, c)
            if q <= 81:
                assert n4_fourier(case) == n4_fourier(other), (p, n, d, c)


@pytest.mark.parametrize("p,n,seed", [(3, 10, 310), (2, 16, 216)], ids=["3^10", "2^16"])
def test_inverse_exponent_seeded_pairs(p, n, seed):
    ctx = get_ctx(p, n)
    q = ctx.q
    rng = SplitMix64(seed)
    checked = 0
    while checked < 20:
        d = 1 + rng.below(q - 1)
        if math.gcd(d, q - 1) != 1:
            continue
        c = 2 + rng.below(q - 2)
        e = pow(d, -1, q - 1)
        case = PowerMapCase(PowerMap(ctx, d), c)
        other = PowerMapCase(PowerMap(ctx, e), ctx.pow(c, q - 1 - e))
        assert c_spectrum(case).omega == c_spectrum(other).omega, (d, c)
        assert n4_fourier(case) == n4_fourier(other), (d, c)
        checked += 1


def _gold_omega(p, n, k):
    """omega of x^(p^k + 1) at every c != 1 of F_Q, Q = p^gcd(n, k).

    With u = 1 - c, (x + 1)^d - c*x^d = u*(x + 1/u)^d + 1 - 1/u, since
    u^(p^k) = u on F_Q: it takes 1 - 1/u once, and (q - 1)/e values e times,
    e = gcd(d, q - 1) = Q + 1 when n/g is even, else 1 (p = 2) or 2."""
    g = math.gcd(n, k)
    Q, q = p ** g, p ** n
    if (n // g) % 2 == 0:
        m = (q - 1) // (Q + 1)
        return {0: q - 1 - m, 1: 1, Q + 1: m}
    if p == 2:
        return {1: q}
    return {0: (q - 1) // 2, 1: 1, 2: (q - 1) // 2}


_GOLD_FIELDS = ([(2, n) for n in range(2, 11)] + [(3, n) for n in range(2, 7)]
                + [(5, 2), (5, 3), (5, 4), (7, 2), (7, 3)])


@pytest.mark.parametrize("p,n", _GOLD_FIELDS, ids=[f"{p}^{n}" for p, n in _GOLD_FIELDS])
def test_gold_exponents_on_their_subfield(p, n):
    ctx = get_ctx(p, n)
    q = ctx.q
    for k in range(1, n):
        Q = p ** math.gcd(n, k)
        subfield = [0] + ctx.exp[: q - 1: (q - 1) // (Q - 1)].tolist()
        power = PowerMap(ctx, p ** k + 1)
        for c in subfield:
            if c != 1:
                assert c_spectrum(PowerMapCase(power, c)).positive() == _gold_omega(p, n, k), (k, c)


_GOLD_GRID = [(3, 7), (5, 5), (2, 16), (3, 10), (2, 20), (3, 13), (5, 9), (2, 22)]


@pytest.mark.parametrize("p,n", _GOLD_GRID, ids=[f"{p}^{n}" for p, n in _GOLD_GRID])
def test_gold_exponents_on_the_grid(p, n):
    """The closed form at c = -1 (c = 0 when p = 2), for k = 1 and, when n
    is composite, for k = its least prime factor (g = k > 1)."""
    ctx = build_context(FieldSpec(p, n))  # not cached: 2^22 is large
    c = 0 if p == 2 else ctx.neg_one
    ks = [1] + [f for f in range(2, n) if n % f == 0][:1]
    for k in ks:
        spec = c_spectrum(PowerMapCase(PowerMap(ctx, p ** k + 1), c))
        assert spec.positive() == _gold_omega(p, n, k), k


def _field_sqrt(ctx, s):
    if s == 0:
        return 0
    l = int(ctx.log[s])
    assert l % 2 == 0
    return int(ctx.exp[l // 2])


def _quadratic_roots(ctx, a, b):
    """Roots of z^2 + a*z + b via the discriminant, odd characteristic."""
    four = 4 % ctx.p
    disc = ctx.sub(ctx.mul(a, a), ctx.mul(four, b))
    if ctx.chi(disc) == -1:
        return []
    r = _field_sqrt(ctx, disc)
    half = ctx.inv(2 % ctx.p)
    z1 = ctx.mul(half, ctx.sub(r, a))
    z2 = ctx.mul(half, ctx.sub(ctx.neg(r), a))
    return [z1] if z1 == z2 else [z1, z2]


def test_nonsquare_shift_character_property():
    # Over GF(5^n): for nonsquare b outside {1, -1}, if x^2+x-1/b and
    # y^2+y+1/b are both solvable, every root z of z^2+(1-2/b)z-1/b has
    # chi(z(z+1)) = -1.
    for n in (1, 2, 3, 4):
        ctx = get_ctx(5, n)
        hits = 0
        for b in range(2, ctx.q):
            if b == ctx.neg_one or ctx.chi(b) != -1:
                continue
            binv = ctx.inv(b)
            if not _quadratic_roots(ctx, 1, ctx.neg(binv)):
                continue
            if not _quadratic_roots(ctx, 1, binv):
                continue
            a = ctx.sub(1, ctx.mul(2, binv))
            for z in _quadratic_roots(ctx, a, ctx.neg(binv)):
                hits += 1
                assert ctx.chi(ctx.mul(z, ctx.add(z, 1))) == -1
        if n >= 2:
            assert hits > 0  # the hypothesis set is nonempty


def test_basis_independence_of_spectra():
    from cdspec import FieldSpec, build_context, find_irreducible

    for p, n, d, c_const in [(3, 2, 6, "neg1"), (2, 4, 14, 0), (5, 2, 11, "neg1"), (3, 3, 24, 2)]:
        ctx_a = get_ctx(p, n)
        alt = find_irreducible(p, n, 1)
        assert alt != ctx_a.modulus
        ctx_b = build_context(FieldSpec(p, n, alt))
        c_a = ctx_a.neg_one if c_const == "neg1" else c_const
        c_b = ctx_b.neg_one if c_const == "neg1" else c_const
        spec_a = c_spectrum(PowerMapCase(PowerMap(ctx_a, d), c_a))
        spec_b = c_spectrum(PowerMapCase(PowerMap(ctx_b, d), c_b))
        assert spec_a.omega == spec_b.omega
