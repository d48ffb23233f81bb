import csv
import io
import json
import time

import pytest

from cdspec import (
    ParseError,
    PowerMapCase,
    fuzz_identities,
    gamma_5n_closed,
    normalize_exponent,
    sweep_c,
)
from cdspec.cli import (
    EXIT_BUDGET,
    EXIT_INCONSISTENT,
    EXIT_OK,
    EXIT_USAGE,
    GAMMA_MAX_N,
    main,
    parse_d,
    to_json,
)

from conftest import get_ctx, is_prime_trial


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_spectrum_json(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--field", "5^1", "--d", "3", "--c", "-1", "--format", "json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["omega"] == {"0": 2, "1": 1, "2": 2}
    assert payload["uniformity"] == 2
    assert payload["class"] == "APcN"


def test_spectrum_c0_pcn(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--field", "5^1", "--d", "3", "--c", "0", "--format", "json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["class"] == "PcN"
    assert payload["omega"]["1"] == 5


def test_spectrum_rejects_nonprime(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--field", "4^1", "--d", "3", "--c", "0")
    assert code == EXIT_USAGE
    assert "prime" in err


_REJECTED_FIELDS = [
    ("1000000000000000003^1", (), EXIT_BUDGET),  # p alone exceeds the cap
    ("3^300000000", (), EXIT_BUDGET),
    ("2^", (), EXIT_USAGE),
    ("3^2/", (), EXIT_USAGE),  # a slash with no modulus after it
    # q - 1 = 2 * prime here, so factoring it by trial division would take
    # far longer than the bound
    ("1000000000000007243^1", (), EXIT_BUDGET),
]


@pytest.mark.parametrize("field, extra, code", _REJECTED_FIELDS,
                         ids=[f"{field}-{code}" for field, _, code in _REJECTED_FIELDS])
def test_spectrum_rejects_field_at_once(capsys, field, extra, code):
    started = time.perf_counter()
    argv = ("spectrum", "--field", field, "--d", "3", "--c", "-1", *extra)
    assert run_cli(capsys, *argv)[0] == code
    assert time.perf_counter() - started < 2.0


def test_spectrum_named_inverse_d(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--field", "2^4", "--d", "inv", "--c", "0", "--format", "json"
    )
    assert code == EXIT_OK
    assert json.loads(out)["d"] == 14


def test_spectrum_pk1half_requires_k(capsys):
    code, _, err = run_cli(
        capsys, "spectrum", "--field", "5^2", "--d", "pk1half", "--c", "-1"
    )
    assert code == EXIT_USAGE
    for k in ("0", "-1"):
        code, out, err = run_cli(
            capsys, "spectrum", "--field", "5^2", "--d", "pk1half", "--k", k, "--c", "-1"
        )
        assert code == EXIT_USAGE and out == "" and "--k" in err
    code, out, _ = run_cli(
        capsys, "spectrum", "--field", "5^2", "--d", "pk1half", "--k", "1",
        "--c", "-1", "--format", "json",
    )
    assert code == EXIT_OK
    assert json.loads(out)["d"] == 3


# --k is read by --d pk1half alone; with any other exponent it is unread.
_K_WITHOUT_PK1HALF = [
    (command, d, k)
    for command in ("spectrum", "verify", "sweep")
    for d, k in (("inv", "3"), ("7", "2"))
]


@pytest.mark.parametrize("command, d, k", _K_WITHOUT_PK1HALF,
                         ids=[f"{cmd}-{d}" for cmd, d, _ in _K_WITHOUT_PK1HALF])
def test_k_without_pk1half_is_a_usage_error(capsys, command, d, k):
    c = ("--c", "2") if command != "sweep" else ()
    assert run_cli(capsys, command, "--field", "5^2", "--d", d, *c)[0] == EXIT_OK
    code, out, err = run_cli(capsys, command, "--field", "5^2", "--d", d, *c, "--k", k)
    assert code == EXIT_USAGE and out == "" and "--k" in err
    with pytest.raises(ParseError):
        parse_d(get_ctx(5, 2), d, int(k))
    code, _, _ = run_cli(capsys, command, "--field", "5^2", "--d", "pk1half", "--k", "1", *c)
    assert code == EXIT_OK


def test_pk1half_reports_the_reduced_exponent(capsys):
    """--d pk1half is reduced mod q - 1 without forming p^k; the reported d
    is that of (p^k + 1)/2 on every field with q <= 729 and every k <= 3n."""
    fields = [(p, n) for p in range(2, 730) if is_prime_trial(p)
              for n in range(1, 10) if p ** n <= 729]
    for p, n in fields:
        ctx = get_ctx(p, n)
        for k in range(1, 3 * n + 1):
            case = PowerMapCase(ctx, parse_d(ctx, "pk1half", k), 0)
            assert case.d == normalize_exponent((p ** k + 1) // 2, ctx.q), (p, n, k)
    code, out, _ = run_cli(capsys, "spectrum", "--field", "7^2", "--d", "pk1half",
                           "--k", "5", "--c", "-1", "--format", "json")
    assert code == EXIT_OK and json.loads(out)["d"] == normalize_exponent((7 ** 5 + 1) // 2, 49)


def test_pk1half_huge_k_at_once(capsys):
    started = time.perf_counter()
    code, _, _ = run_cli(capsys, "verify", "--field", "3^2", "--d", "pk1half",
                         "--k", "300000000", "--c", "-1")
    assert code == EXIT_OK
    assert time.perf_counter() - started < 2.0


def test_c_parsing_forms(capsys):
    # raw encoding and digit vector name the same element of GF(9)
    for cspec in ("e:5", "2,1"):
        code, out, _ = run_cli(
            capsys, "spectrum", "--field", "3^2", "--d", "2", "--c", cspec,
            "--format", "json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["c"] == 5


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_match_exit0(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--field", "3^2", "--d", "6", "--c", "-1", "--format", "json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["verdict"] == "MATCH"
    assert payload["eq1"] is True


def test_verify_inconsistent_exit3(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--field", "3^4", "--d", "78", "--c", "-1", "--format", "json"
    )
    assert code == EXIT_INCONSISTENT
    payload = json.loads(out)
    assert payload["verdict"] == "PREDICTOR_INCONSISTENT"
    assert payload["computed"]["omega"]["0"] == 50


def test_verify_matches_class_members_of_named_exponents(capsys):
    # 77 is in the inverse map's class over GF(81) (79 * 3 = 77 mod 80), and
    # 26 in the class of 78 = 81 - 3 (26 * 3 = 78)
    code, out, _ = run_cli(
        capsys, "verify", "--field", "3^4", "--d", "77", "--c", "e:5", "--format", "json"
    )
    assert code == EXIT_OK
    assert json.loads(out)["matched"] == "INV_ODD"
    code, out, _ = run_cli(
        capsys, "verify", "--field", "3^4", "--d", "26", "--c", "-1", "--format", "json"
    )
    assert code == EXIT_INCONSISTENT
    assert json.loads(out)["verdict"] == "PREDICTOR_INCONSISTENT"


def test_verify_char2_witness(capsys):
    ctx = get_ctx(2, 4)
    c = next(x for x in range(2, 16) if ctx.trace(x) == 1 and ctx.trace(ctx.inv(x)) == 1)
    code, out, _ = run_cli(
        capsys, "verify", "--field", "2^4", "--d", "14", "--c", f"e:{c}",
        "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["verdict"] == "MATCH"
    assert payload["computed"]["omega"] == {"0": 6, "1": 4, "2": 6}


def test_verify_csv_schema(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--field", "5^2", "--d", "11", "--c", "-1", "--format", "csv"
    )
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["p", "n", "modulus", "d", "c", "verdict", "uniformity",
                       "omega_json", "eq1", "eq2"]
    assert rows[1][:6] == ["5", "2", "2,0,1", "11", "4", "MATCH"]
    assert json.loads(rows[1][7]) == {"0": 8, "1": 9, "2": 8}


def test_json_roundtrip_byte_identical(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--field", "5^2", "--d", "11", "--c", "-1", "--format", "json"
    )
    payload = json.loads(out)
    assert json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n" == out


def test_text_format_carries_same_numbers(capsys):
    code, out, _ = run_cli(capsys, "verify", "--field", "5^2", "--d", "11", "--c", "-1")
    assert code == EXIT_OK
    assert "MATCH" in out and "0:8" in out and "1:9" in out


# ---------------------------------------------------------------------------
# sweep / scan / gamma / fuzz
# ---------------------------------------------------------------------------

def test_sweep_inverse_char2(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--field", "2^4", "--d", "14", "--format", "json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["tallies"]["MATCH"] == 14
    assert payload["tallies"]["NO_PREDICTOR"] == 1  # c = 0


def test_sweep_n4_default_is_the_library_default(capsys):
    # q <= 625: the quadruple count runs for every c unless --budget-n4 0
    code, out, _ = run_cli(capsys, "sweep", "--field", "5^2", "--d", "inv", "--format", "json")
    assert code == EXIT_OK
    assert out == to_json(sweep_c(get_ctx(5, 2), 23).as_dict())
    assert all(r["n4"] is not None and r["eq2"] for r in json.loads(out)["reports"])
    code, out, _ = run_cli(capsys, "sweep", "--field", "5^2", "--d", "inv",
                           "--budget-n4", "0", "--format", "json")
    assert code == EXIT_OK
    assert out == to_json(sweep_c(get_ctx(5, 2), 23, n4_budget=0).as_dict())
    assert all(r["n4"] is None and r["eq2"] is None for r in json.loads(out)["reports"])


def test_scan_gf25(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--field", "5^2", "--c", "-1", "--max-uniformity", "2",
        "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert any(row["class"] == [7, 11] for row in payload["rows"])


def test_gamma_n2(capsys):
    code, out, _ = run_cli(capsys, "gamma", "--n", "2", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload == {"closed": 6, "direct": 6, "equal": True, "n": 2}


def test_gamma_n3(capsys):
    code, out, _ = run_cli(capsys, "gamma", "--n", "3", "--format", "json")
    payload = json.loads(out)
    assert payload["closed"] == -22 and payload["equal"] is True


def test_gamma_budget_above_table_ceiling_skips_direct(capsys):
    # 5^10 is above the 2^22 table ceiling: closed form only.  5^9 is below.
    code, out, _ = run_cli(capsys, "gamma", "--n", "10", "--format", "json")
    assert code == EXIT_OK
    assert '"direct":null' in out
    assert json.loads(out)["closed"] == gamma_5n_closed(10)
    code, out, _ = run_cli(capsys, "gamma", "--n", "9", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["equal"] is True


@pytest.mark.parametrize("n", [13000, 20000])
def test_gamma_rejects_n_past_digit_bound_at_once(capsys, n):
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "gamma", "--n", str(n), "--format", "json")
    assert time.perf_counter() - started < 2.0
    assert code == EXIT_BUDGET and out == "" and str(GAMMA_MAX_N) in err


def test_gamma_max_n_is_the_digit_bound():
    # |gamma| <= 2 * 5^(n/2) < 10^4300 exactly while n <= GAMMA_MAX_N
    assert 4 * 5 ** GAMMA_MAX_N < 10 ** 8600 <= 4 * 5 ** (GAMMA_MAX_N + 1)


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_gamma_at_max_n_prints_in_every_format(capsys, fmt):
    code, out, _ = run_cli(capsys, "gamma", "--n", str(GAMMA_MAX_N), "--format", fmt)
    assert code == EXIT_OK
    if fmt == "json":
        closed = json.loads(out)["closed"]
        assert json.loads(out)["direct"] is None
        assert 4000 < len(str(abs(closed))) <= 4300


def test_fuzz_cli(capsys):
    code, out, _ = run_cli(
        capsys, "fuzz", "--seed", "1", "--count", "10", "--budget-q", "49",
        "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["passes"] == 10
    assert payload["failures"] == []


def test_fuzz_budget_above_n4_default_exits_at_once(capsys):
    """Every draw runs the quadruple count, so --budget-q is capped at the
    N4 default (625); above it fuzz exits 65 before drawing anything."""
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "fuzz", "--count", "3", "--budget-q", "100000",
                             "--seed", "1")
    assert time.perf_counter() - started < 2.0
    assert code == EXIT_BUDGET and out == "" and "625" in err
    code, out, _ = run_cli(capsys, "fuzz", "--count", "3", "--budget-q", "625",
                           "--seed", "1", "--format", "json")
    assert code == EXIT_OK and json.loads(out)["passes"] == 3


def test_fuzz_budget_below_4_is_a_usage_error(capsys):
    """A --budget-q below 4 is malformed input, like a negative --count:
    exit 64, not the budget-exceeded 65."""
    for budget in ("3", "0", "-1"):
        code, out, _ = run_cli(capsys, "fuzz", "--count", "1", "--budget-q", budget)
        assert code == EXIT_USAGE and out == "", budget
    code, out, _ = run_cli(capsys, "fuzz", "--count", "1", "--budget-q", "4",
                           "--format", "json")
    assert code == EXIT_OK and json.loads(out)["passes"] == 1


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "spectrum", "--field", "5^1", "--d", "3", "--c", "-1",
        "--format", "json", "--out", str(target),
    )
    assert code == EXIT_OK
    assert out == ""
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert payload["omega"] == {"0": 2, "1": 1, "2": 2}


def test_out_unwritable_is_a_usage_error(tmp_path, capsys):
    for target in (tmp_path / "missing" / "x.json", tmp_path):  # no directory; a directory
        code, out, err = run_cli(
            capsys, "spectrum", "--field", "3^2", "--d", "inv", "--c", "2",
            "--format", "json", "--out", str(target),
        )
        assert code == EXIT_USAGE
        assert out == "" and str(target) in err
    assert not (tmp_path / "missing").exists()


def test_fuzz_rejects_negative_count(capsys):
    with pytest.raises(ValueError):
        fuzz_identities(seed=1, count=-3)
    code, out, _ = run_cli(capsys, "fuzz", "--count", "-3", "--format", "json")
    assert code == EXIT_USAGE
    assert out == ""
    code, out, _ = run_cli(capsys, "fuzz", "--count", "0", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["passes"] == 0


def test_usage_error_on_unknown_command(capsys):
    assert main(["bogus"]) == EXIT_USAGE


# Each subcommand accepts only the flags it reads.
_UNREAD_FLAGS = [
    (("spectrum", "--field", "5^1", "--d", "3", "--c", "-1"), ("--budget-q", "125")),
    (("verify", "--field", "5^1", "--d", "3", "--c", "-1"), ("--budget-q", "125")),
    (("sweep", "--field", "5^1", "--d", "3"), ("--budget-q", "125")),
    (("scan", "--field", "5^1", "--c", "-1", "--max-uniformity", "2"), ("--budget-q", "125")),
    (("gamma", "--n", "2"), ("--budget-q", "125")),
    (("spectrum", "--field", "5^1", "--d", "3", "--c", "-1"), ("--budget-n4", "125")),
    (("spectrum", "--field", "5^1", "--d", "3", "--c", "-1"), ("--seed", "1")),
    (("verify", "--field", "5^1", "--d", "3", "--c", "-1"), ("--seed", "1")),
    (("sweep", "--field", "5^1", "--d", "3"), ("--seed", "1")),
    (("scan", "--field", "5^1", "--c", "-1", "--max-uniformity", "2"), ("--k", "1")),
    (("scan", "--field", "5^1", "--c", "-1", "--max-uniformity", "2"), ("--budget-n4", "125")),
    (("scan", "--field", "5^1", "--c", "-1", "--max-uniformity", "2"), ("--seed", "1")),
    (("gamma", "--n", "2"), ("--k", "1")),
    (("gamma", "--n", "2"), ("--budget-n4", "125")),
    (("gamma", "--n", "2"), ("--seed", "1")),
    (("fuzz", "--count", "1"), ("--k", "1")),
    (("fuzz", "--count", "1"), ("--budget-n4", "125")),
]


@pytest.mark.parametrize("argv, flag", _UNREAD_FLAGS,
                         ids=[f"{argv[0]}{flag[0]}" for argv, flag in _UNREAD_FLAGS])
def test_unread_flag_is_a_usage_error(capsys, argv, flag):
    assert run_cli(capsys, *argv)[0] == EXIT_OK
    assert run_cli(capsys, *argv, *flag)[0] == EXIT_USAGE
