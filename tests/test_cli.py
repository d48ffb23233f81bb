import csv
import dataclasses
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import cdspec
from cdspec import cli, verifier
from cdspec import (
    ParseError,
    PowerMap,
    PowerMapCase,
    fuzz_identities,
    gamma_5n_closed,
    normalize_exponent,
    sweep_c,
)
from cdspec.cli import (
    EXIT_BUDGET,
    EXIT_INCONSISTENT,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    GAMMA_MAX_N,
    main,
    parse_d,
    to_json,
)

from cdspec.closed_forms import SpectrumPrediction, TheoremId

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
            case = PowerMapCase(PowerMap(ctx, parse_d(ctx, "pk1half", k)), 0)
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


def test_verify_where_log_times_exponent_passes_int32(capsys):
    """At q = 2^18 the predictors' scalar powers multiply logs by exponents
    near q, past 2^31: an int32 product there wraps and gives MISMATCH."""
    code, out, _ = run_cli(
        capsys, "verify", "--field", "2^18", "--d", "inv", "--c", "e:12345", "--format", "json"
    )
    assert code == EXIT_OK
    assert json.loads(out)["verdict"] == "MATCH"


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


@pytest.mark.parametrize("argv", [
    ["--field", "617", "--d", "5", "--c", "2"],
    ["--field", "2^16", "--d", "inv", "--c", "e:3", "--budget-n4", "65536"],
])
def test_verify_eq2_on_large_fields(capsys, argv):
    """A prime field at the N4 default, and a raised budget far past what
    enumeration of the quadruples could reach."""
    code, out, _ = run_cli(capsys, "verify", *argv, "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["eq2"] is True and payload["n4"] > 0


def test_verify_n4_on_a_prime_field_past_the_moduli_exits_65(capsys):
    """At p = 262139 too few primes l = 1 (mod p) lie under the int64
    limit for N4's CRT, so a raised --budget-n4 exits 65 and does not hang."""
    code, out, err = run_cli(capsys, "verify", "--field", "262139", "--d", "3", "--c", "2",
                             "--budget-n4", "262139")
    assert code == EXIT_BUDGET and out == "" and err.startswith("error:")


def test_verify_past_the_moduli_builds_no_table_of_d(capsys, monkeypatch):
    """The N4 moduli are found before the spectrum, so a prime field with
    too few primes l exits 65 before any table of x^d is built."""
    def refuse(self):
        raise AssertionError("a table of x^d was built")

    monkeypatch.setattr(PowerMap, "delta_pair", property(refuse))
    monkeypatch.setattr(PowerMap, "powd", property(refuse))
    code, out, err = run_cli(capsys, "verify", "--field", "1500007", "--d", "3", "--c", "2",
                             "--budget-n4", "4000000")
    assert code == EXIT_BUDGET and out == ""
    assert err == "error: N4 needs more primes l = 1 (mod 1500007) under the int64 limit\n"


@pytest.mark.parametrize("field,d,value", [
    ("2", "inv", 0), ("3", "minus3", 0), ("3", "minus3half", 0),
    ("2", "minus3", -1), ("2", "minus3half", -1), ("2^2", "minus3half", 0),
])
@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_named_d_that_is_not_positive_names_the_form(capsys, command, field, d, value):
    """A named exponent that is not positive on a tiny field is a usage
    error that names the form and the field, not an exponent never typed."""
    c = ["--c", "0"] if command == "verify" else []
    code, out, err = run_cli(capsys, command, "--field", field, "--d", d, *c)
    p, _, n = field.partition("^")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: --d {d} is {value} on GF({p}^{n or 1})\n"
    assert run_cli(capsys, command, "--field", field, "--d", str(value), *c)[2] == \
        f"error: exponent must be positive, got {value}\n"


def test_parser_is_shared_but_namespaces_are_not(capsys, tmp_path):
    """main builds its parser once; an option of one call does not carry
    into the next."""
    path = tmp_path / "out.txt"
    argv = ["spectrum", "--field", "5^1", "--d", "3", "--c", "-1"]
    assert run_cli(capsys, *argv, "--out", str(path))[:2] == (EXIT_OK, "")
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK and out == path.read_text()
    assert cli._parser() is cli._parser()


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


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_sweep_exits_3_when_only_predictors_are_inconsistent(capsys, fmt):
    code, out, _ = run_cli(capsys, "sweep", "--field", "3^4", "--d", "78",
                           "--budget-n4", "0", "--format", fmt)
    assert code == EXIT_INCONSISTENT
    if fmt == "json":
        tallies = json.loads(out)["tallies"]
        assert tallies["MISMATCH"] == 0 and tallies["PREDICTOR_INCONSISTENT"] > 0


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_sweep_exit_puts_mismatch_before_inconsistent(monkeypatch, capsys, fmt):
    """One orbit MISMATCH (a consistent prediction that misses) and another
    PREDICTOR_INCONSISTENT: the sweep exits 2, not 3."""
    real = verifier.dispatch

    def rigged(power, c):
        ctx = power.ctx
        if c == 0:
            return [SpectrumPrediction(TheoremId.INV_ODD, [], {0: ctx.q}, True)]
        if c == ctx.neg_one:
            return [SpectrumPrediction(TheoremId.INV_ODD, [], {0: ctx.q}, False)]
        return real(power, c)

    monkeypatch.setattr(verifier, "dispatch", rigged)
    argv = ("sweep", "--field", "3^2", "--d", "inv", "--budget-n4", "0", "--format")
    code, out, _ = run_cli(capsys, *argv, fmt)
    assert code == EXIT_MISMATCH
    _, out, _ = run_cli(capsys, *argv, "json")
    tallies = json.loads(out)["tallies"]
    assert tallies["MISMATCH"] == 1 and tallies["PREDICTOR_INCONSISTENT"] == 1


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


# A sweep writes _CHUNK_ROWS pieces per _emit call: the head (JSON) or
# header lines (CSV, text), each row, and JSON's tail.  16 and q - 1 divide
# the row count of 3^4 and 7^2; q - 1 that of 2^5.
_CHUNKED_SWEEPS = [("2^5", "inv"), ("3^4", "inv"), ("7^2", "5")]


def _recorded_emits(monkeypatch) -> list[str]:
    real, emits = cli._emit, []

    def recorded(sink, text):
        emits.append(text)
        real(sink, text)

    monkeypatch.setattr(cli, "_emit", recorded)
    return emits


@pytest.mark.parametrize("field, d", _CHUNKED_SWEEPS)
@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("chunk", [1, 2, 7, 16, "rows"])
def test_sweep_output_split_over_chunks(tmp_path, monkeypatch, capsys, field, d, fmt, chunk):
    argv = ("sweep", "--field", field, "--d", d, "--format", fmt)
    code, whole, _ = run_cli(capsys, *argv)
    emits = _recorded_emits(monkeypatch)
    p, n = map(int, field.split("^"))
    rows = p ** n - 1
    chunk = rows if chunk == "rows" else chunk
    monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk)
    assert run_cli(capsys, *argv) == (code, whole, "")
    pieces = rows + (1 if fmt == "csv" else 2)
    assert "".join(emits) == whole and len(emits) == -(-pieces // chunk)
    if fmt == "json":
        result = sweep_c(get_ctx(p, n), rows - 1 if d == "inv" else int(d))
        assert whole == to_json(result.as_dict())
    per_emit = [t.count('{"case":{"c":') if fmt == "json" else t.count("\n") for t in emits]
    assert max(per_emit) <= chunk and sum(per_emit) == pieces - (2 if fmt == "json" else 0)
    target = tmp_path / "sweep.out"
    assert run_cli(capsys, *argv, "--out", str(target)) == (code, "", "")
    assert target.read_text(encoding="utf-8") == whole


def test_out_write_failing_mid_stream_is_a_usage_error(tmp_path, monkeypatch, capsys):
    """The --out file is open and its first chunk written when the second
    write fails: exit 64 with the --out message, as when the file cannot be
    opened."""
    real, calls = cli._emit, []

    def failing(sink, text):
        calls.append(text)
        if len(calls) == 2:
            raise OSError(28, "No space left on device")
        real(sink, text)

    monkeypatch.setattr(cli, "_emit", failing)
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 2)
    target = tmp_path / "sweep.json"
    code, out, err = run_cli(capsys, "sweep", "--field", "3^3", "--d", "inv",
                             "--format", "json", "--out", str(target))
    assert code == EXIT_USAGE and out == "" and len(calls) == 2
    assert err == f"error: cannot write --out {str(target)!r}: No space left on device\n"
    assert "Traceback" not in err
    assert target.read_text(encoding="utf-8") == calls[0]


def test_sweep_to_a_closed_pipe_exits_quietly():
    """A reader that stops early (`cdspec sweep ... | head`) closes stdout
    while the sweep is still writing: the sweep exits with its own code and
    prints no traceback.  The first chunk (512 rows, about 220 KB) is more
    than a pipe holds, so the reader closes before the last write."""
    src = pathlib.Path(cdspec.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys; from cdspec.cli import main; sys.exit(main())",
         "sweep", "--field", "2^14", "--d", "inv", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(10) == b'{"case":{"'
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == EXIT_OK and err == b""


def test_spectrum_command_checks_the_counting_identity(monkeypatch, capsys):
    real = cli.c_spectrum

    def broken(case):
        spec = real(case)
        return dataclasses.replace(spec, omega={**spec.omega, 0: spec.omega[0] + 1})

    monkeypatch.setattr(cli, "c_spectrum", broken)
    with pytest.raises(AssertionError, match="counting identity"):
        main(["spectrum", "--field", "5^1", "--d", "3", "--c", "-1"])


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


# ---------------------------------------------------------------------------
# Output bytes
# ---------------------------------------------------------------------------

# Every subcommand in every format on small fields: explicit moduli, the
# quadruple count on and off, one exit-3 verify.  Each digest is the sha256
# of stdout, so a change to any output byte fails here.
_PINNED_ARGV = dict([
    ("spectrum-5^2-pk1half",
     ("spectrum", "--field", "5^2", "--d", "pk1half", "--k", "1", "--c", "-1")),
    ("spectrum-2^4-inv", ("spectrum", "--field", "2^4", "--d", "inv", "--c", "e:3")),
    ("spectrum-3^2-modulus", ("spectrum", "--field", "3^2/2,1,1", "--d", "7", "--c", "2")),
    ("verify-5^2-pk1half",
     ("verify", "--field", "5^2", "--d", "pk1half", "--k", "1", "--c", "-1")),
    ("verify-2^4-modulus",
     ("verify", "--field", "2^4/1,1,0,0,1", "--d", "inv", "--c", "e:3")),
    ("verify-7^2-no-n4",
     ("verify", "--field", "7^2", "--d", "inv", "--c", "3", "--budget-n4", "0")),
    ("verify-3^4-inconsistent", ("verify", "--field", "3^4", "--d", "78", "--c", "-1")),
    ("sweep-3^2-inv", ("sweep", "--field", "3^2", "--d", "inv")),
    ("sweep-2^4-no-n4", ("sweep", "--field", "2^4", "--d", "inv", "--budget-n4", "0")),
    ("sweep-5^2-pk1half", ("sweep", "--field", "5^2", "--d", "pk1half", "--k", "1")),
    ("scan-3^3", ("scan", "--field", "3^3", "--c", "2", "--max-uniformity", "2")),
    ("scan-2^5-modulus",
     ("scan", "--field", "2^5/1,0,1,0,0,1", "--c", "e:3", "--max-uniformity", "3")),
    ("gamma-2", ("gamma", "--n", "2")),
    ("gamma-3", ("gamma", "--n", "3")),
    ("fuzz-49", ("fuzz", "--seed", "1", "--count", "6", "--budget-q", "49")),
    ("fuzz-25", ("fuzz", "--seed", "5", "--count", "6", "--budget-q", "25")),
    ("fuzz-13", ("fuzz", "--seed", "2", "--count", "8", "--budget-q", "13")),
])

_PINNED_OUTPUT = [
    ("spectrum-5^2-pk1half", "json", 0,
     "2cc83a81b554a10ecd9881ed8ac91c73a7b9b8ddc4b61afb312c3321810a7ae7"),
    ("spectrum-5^2-pk1half", "csv", 0,
     "49d5afbad5a52544091e8f70042c46802b8920ddf2cd50c341bc13722d785a43"),
    ("spectrum-5^2-pk1half", "text", 0,
     "c6d00d9de79b0a50120d138d254ddf4e91ae17d5475133e004e00545860482cc"),
    ("spectrum-2^4-inv", "json", 0,
     "4aa24673bdc3e2c0bca22fa15c471b5919dbe2c1a62710c590e16a3aee836d1d"),
    ("spectrum-2^4-inv", "csv", 0,
     "948e705152a5699d5882458f85dab56d267252f3c49390c4d9f4e2c0574f653c"),
    ("spectrum-2^4-inv", "text", 0,
     "7106876b41a3d3951156d2fc47a1846c29406dc553f71146c4d4f5c8933e4de0"),
    ("spectrum-3^2-modulus", "json", 0,
     "7f877040bb699ecd4fd9cfebccae5db573d5c645a3d954fd574fe8b37133e270"),
    ("spectrum-3^2-modulus", "csv", 0,
     "39ef6a2d711d0d8c087d864b158f477bb8cbc3f2b89b7a08135d5ebdfef40852"),
    ("spectrum-3^2-modulus", "text", 0,
     "d5e32b72234428518c3c08bcab8608fc623d03d10d977cad18d88f456300dd82"),
    ("verify-5^2-pk1half", "json", 0,
     "3d451bb7d8e481f24e48fd44466afdc214f057a5e7b984370135d9a8237abdf0"),
    ("verify-5^2-pk1half", "csv", 0,
     "b522634ec4d91e13a9fe2938e38a34b2da640f944af34983439e9cfede9daebd"),
    ("verify-5^2-pk1half", "text", 0,
     "d7e791531171cdc085cabaccbafe70f59a21393f9c9da5ac6b3ceb4313a24252"),
    ("verify-2^4-modulus", "json", 0,
     "7e38c0ffa0ccfccf9e5c40a1f302a2affc146107e0a9ace6ec032278825fe5d4"),
    ("verify-2^4-modulus", "csv", 0,
     "1abbd065fcaa692c74951dbe1fb623d720a16eb13af292531830ff847fa95ab7"),
    ("verify-2^4-modulus", "text", 0,
     "52c756897f7776522fa6dd593edb447d616559f87920801ddcde6c420ca9e6d5"),
    ("verify-7^2-no-n4", "json", 0,
     "b5d7f9baa1c2fec2becbe585dbddcc8dcf50ad1f774635555accdc153db7a3a9"),
    ("verify-7^2-no-n4", "csv", 0,
     "f7d7b476fa021a71245c76039b1365509f15d03178dd0a2927dab32a8cd01e75"),
    ("verify-7^2-no-n4", "text", 0,
     "d53f5d8dc4a10d7d7304b8b80a2aae96d6c5021b1bd3af1f930b4b5f20250e3c"),
    ("verify-3^4-inconsistent", "json", 3,
     "6acbcb55fe61d8d63a5d7a2ea89e80d3cf33995e34a59977a21a4e68261ed709"),
    ("verify-3^4-inconsistent", "csv", 3,
     "8accd59f922203a10d8e06b43ff2fbf3aa946edf3f8dd8772e10c9682520c330"),
    ("verify-3^4-inconsistent", "text", 3,
     "0630f1ee21feeccf912f11a85932b49e0c1a7d9406a06dc0e9b9b622b34cd6b7"),
    ("sweep-3^2-inv", "json", 0,
     "c803390743a9f7aed07e0daad4431c6b429211f3becaddd68fccab73d9d335c8"),
    ("sweep-3^2-inv", "csv", 0,
     "a08e51070b9b04fd45eed12dc1a562611e09c96a44d150447cd4c98d8a62bbab"),
    ("sweep-3^2-inv", "text", 0,
     "af59d47d8482dfa9fc112a137e231ff499beeebf57de8983e8bd7d0880a053c0"),
    ("sweep-2^4-no-n4", "json", 0,
     "6ba5dff2dd28cc606481a94e284f8d634e542b01a8cc7b74b603423ca6be6866"),
    ("sweep-2^4-no-n4", "csv", 0,
     "d900d686b2ba955d2c980a1d5018411bfbb55ae844717a5ff32ce84bd3fee68b"),
    ("sweep-2^4-no-n4", "text", 0,
     "f8680fb59addb4a06650392c38e27c51a33805834a2f510de0c2535323dd8c8c"),
    ("sweep-5^2-pk1half", "json", 0,
     "3d7f237f6b4a5313ddc4d7191ca975762e24ba8cbecfc76ea8e17d8985e1a651"),
    ("sweep-5^2-pk1half", "csv", 0,
     "e1cd38c4d637d69390c0c14b631449385fccfb3238feb5c5a0a2ee511aa46945"),
    ("sweep-5^2-pk1half", "text", 0,
     "4262526d44c68dc0c53a9fb3e508ec446f74f1521f9cf4a9a0dd73038b869565"),
    ("scan-3^3", "json", 0,
     "3a48949e59f6673dcefa8831c690a0c08ff84c5ec1fa5ab71bcb207141b62cdc"),
    ("scan-3^3", "csv", 0,
     "5c481c4fee138f206302fc373171aacd1d7137912be7beb175194fab9ed322e3"),
    ("scan-3^3", "text", 0,
     "c13c6f6ec97fb6d1c61a0ea5d8baee8e65072ae8e99e26f457ed06a84e5ce024"),
    ("scan-2^5-modulus", "json", 0,
     "511d4a0a32d2682e5f0bed1361986eaaca8ab8dd67458ca0aa487037295642bc"),
    ("scan-2^5-modulus", "csv", 0,
     "9499f1d3e85c37a87724bc1eb4df04dd7e41ae0b9b1b01c35cc7c20d04a48ba6"),
    ("scan-2^5-modulus", "text", 0,
     "5f4fedad784ca52b1404d4fb5cbc380dddfb5e4f923fc4668f705fd3c9146dd1"),
    ("gamma-2", "json", 0,
     "5794d96533888495663fb0bdcfd7c2a5c24e9f3adc628734bc7cdd66870faf81"),
    ("gamma-2", "csv", 0,
     "654f23998d1e7303b869fc3d88f51f6765d33f9498cb4c2b59252f3e327b858b"),
    ("gamma-2", "text", 0,
     "c493c8abd8fee521022d3eaf71e02c773e8b4a5939ac43f6369343308cabc161"),
    ("gamma-3", "json", 0,
     "60777c67aa5dfd353161e366c9ed669b8f4a8871e71f97685e61b8e8c5221caf"),
    ("gamma-3", "csv", 0,
     "eedf1f1e1d1622393d0467041fd68aabb8c3e4f405590e895bdeacee45bb0157"),
    ("gamma-3", "text", 0,
     "a082440248770a994b77913ad66c7da8b93baf2d263c84ee37ea100cf8b90c21"),
    ("fuzz-49", "json", 0,
     "ac9e3c12cef121f0af70f44732c5102a94b3d0eec4a0ba81b0ddf847c9838747"),
    ("fuzz-49", "csv", 0,
     "b9a316db5347f13d7c791025258a79e053b18b1aced432a9c2896f30df773514"),
    ("fuzz-49", "text", 0,
     "2f40ddd5907f77119c3a0cb133be3bca26d2db2eb308ad884c31154a08cadec6"),
    ("fuzz-25", "json", 0,
     "aad3a1fe17e00892300d4dc31e35785f0ce0f2c3e157cd5ab4ef6c97284bfc27"),
    ("fuzz-25", "csv", 0,
     "0e91e98b7a99f0cc5f086e3050e308dc1fdc18bc9858d0a6e5617bfe9796f36c"),
    ("fuzz-25", "text", 0,
     "11a4f62b8d095383e786d170b8ec6ba82fd072f39da9840f49c8e9acf6211c6f"),
    ("fuzz-13", "json", 0,
     "b931002626262a8f021f21bf6bca965feaa1961fba6e9603764e6a46e1d02315"),
    ("fuzz-13", "csv", 0,
     "b03587aa2b082b4d7c5539e5d4f2005ac7edd53587f7e6c89a7daba6e6645396"),
    ("fuzz-13", "text", 0,
     "c4046008684ffe7520abaa8741586eb91129c402213d693111dbdf5ab135b804"),
]


@pytest.mark.parametrize("case, fmt, code, digest", _PINNED_OUTPUT,
                         ids=[f"{case}-{fmt}" for case, fmt, _, _ in _PINNED_OUTPUT])
def test_output_bytes_are_pinned(capsys, case, fmt, code, digest):
    got_code, out, _ = run_cli(capsys, *_PINNED_ARGV[case], "--format", fmt)
    assert got_code == code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("case, fmt, code, digest", _PINNED_OUTPUT,
                         ids=[f"{case}-{fmt}" for case, fmt, _, _ in _PINNED_OUTPUT])
def test_out_writes_the_stdout_bytes(tmp_path, capsys, case, fmt, code, digest):
    target = tmp_path / f"out.{fmt}"
    got_code, out, _ = run_cli(capsys, *_PINNED_ARGV[case], "--format", fmt,
                               "--out", str(target))
    assert got_code == code and out == ""
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest
