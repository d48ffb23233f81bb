"""Self-tests of the benchmark.

    python3 -m pytest perfbench

A tiny-size smoke of every workload, untraced and traced, plus unit tests of
the output gate, the span self-time arithmetic, the tracer's rebinding and
the exact-count checks.  Scratch files go under perfbench/results/selftest.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import run
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


@pytest.fixture
def workdir(request):
    path = BENCH / "results" / "selftest" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_smoke(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seconds", "0", "--scale", "tiny",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    want = tracing.LAYER_METRICS if trace == "1" else run.END_TO_END
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(want)
    if trace == "1":
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["cli.main.calls"] == len(workloads.WORKLOADS[workload](1, "tiny", 0))
        assert m["trace.spans"] > m["cli.main.calls"] and m["trace.overhead_ratio"] > 0


def test_benchmark_json_matches_code():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_bare_directory_fails_without_result(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(BENCH, workdir / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _bench(workdir, "--workload", "sweep_c", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_seeds_make_inputs():
    for name, wl in workloads.WORKLOADS.items():
        assert wl(7, "bench", 0) == wl(7, "bench", 0), name
    assert workloads.scan_d(7, "bench", 0) != workloads.scan_d(8, "bench", 0)
    assert workloads.fuzz_n4(7, "bench", 0) != workloads.fuzz_n4(7, "bench", 1)
    assert workloads.cyclotomic_class_count(3, 27) == 10  # {0}, {13} and 8 orbits of size 3


# -- gate ---------------------------------------------------------------------

VERIFY_CALL = {"argv": ["verify", "--field", "3^2"], "kind": "verify_json", "rc": 0, "q": 9}
VERIFY_DOC = {"computed": {"omega": {"0": 4, "1": 1, "2": 4}, "uniformity": 2},
              "eq1": True, "eq2": True, "verdict": "MATCH"}


def _verify_text(**changes):
    return gate.canonical(dict(VERIFY_DOC, **changes))


def test_gate_accepts_good_output():
    text = _verify_text()
    pinned = {" ".join(VERIFY_CALL["argv"]): gate.sha256(text)}
    assert gate.check_call(VERIFY_CALL, 0, None, text, pinned) == (1, [])


@pytest.mark.parametrize("rc, error, text, pinned, fragment", [
    (2, None, _verify_text(), None, "exit code"),
    (None, "ValueError()", "", None, "raised"),
    (0, None, _verify_text(eq1=False), None, "eq1"),
    (0, None, _verify_text(verdict="MISMATCH"), None, "verdict"),
    (0, None, json.dumps(VERIFY_DOC) + "\n", None, "byte-identically"),
    (0, None, "not json", None, "not JSON"),
    (0, None, _verify_text(), {}, "no pinned digest"),
    (0, None, _verify_text(), {"verify --field 3^2": "0" * 64}, "pinned"),
    (0, None, _verify_text(computed={"omega": {"0": 5, "1": 1, "2": 4}, "uniformity": 2}),
     None, "sum(omega)"),
])
def test_gate_rejects(rc, error, text, pinned, fragment):
    _, problems = gate.check_call(VERIFY_CALL, rc, error, text, pinned)
    assert any(fragment in p for p in problems), problems


def test_gate_sweep_csv():
    call = {"argv": ["sweep"], "kind": "sweep_csv", "rc": 0, "q": 3}
    header = ",".join(gate.SWEEP_CSV_HEADER)
    good = f'{header}\n3,1,"0,1",1,0,NO_PREDICTOR,1,"{{""1"":3}}",true,skipped\n' \
           f'3,1,"0,1",1,2,MATCH,1,"{{""1"":3}}",true,skipped\n'
    assert gate.check_call(call, 0, None, good, None) == (2, [])
    bad = good.replace("true,skipped\n", "false,skipped\n", 1)
    assert any("eq1" in p for p in gate.check_call(call, 0, None, bad, None)[1])


# -- tracing --------------------------------------------------------------------

SPANS = [
    [0, -1, 0, "cli.main", 0, 100],
    [1, 0, 0, "field.build_context", 10, 30],
    [2, 0, 0, "spectrum.c_spectrum", 20, 40],  # overlaps its sibling: union counts once
    [3, 0, 0, "cli.to_json", 50, 60],
    [4, 1, 0, "field.vec_mul_poly", 12, 14],
]


def test_self_times_subtract_union_of_children():
    assert tracing.self_times(SPANS) == [60, 18, 20, 10, 2]


def test_layer_metrics_from_spans():
    tr = tracing.Tracer()
    tr.spans.extend(SPANS)
    tr.counts["spectrum.c_spectrum.elements"] = 40
    m = tracing.layer_metrics(tr)
    assert m["cli.main.s"] == 100e-9 and m["cli.main.self_s"] == 60e-9
    assert m["field.build_context.self_s"] == 18e-9 and m["field.build_context.calls"] == 1
    assert m["cli.serialize.s"] == 10e-9 and m["trace.spans"] == 5
    assert m["spectrum.elements_per_s"] == pytest.approx(40 / 20e-9)
    assert m["verifier.sweep_c.self_s"] == 0 and "trace.overhead_ratio" not in m


def test_tracer_rebinds_every_import_and_restores():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import cdspec
        from cdspec import cli, field, verifier
    finally:
        sys.path.remove(str(ROOT / "src"))
    originals = (cdspec.build_context, cli.build_context, verifier.c_spectrum,
                 field.FieldContext.__dict__["vec_sub"])
    with tracing.Tracer() as tr:
        assert cdspec.build_context is cli.build_context is verifier.build_context
        assert cli.build_context is not originals[0]
        tr.call = 0
        assert cli.main(["verify", "--field", "3^2", "--d", "6", "--c", "-1",
                         "--format", "json", "--out", str(BENCH / "results" / "selftest.out")]) == 0
    assert (cdspec.build_context, cli.build_context, verifier.c_spectrum,
            field.FieldContext.__dict__["vec_sub"]) == originals
    (BENCH / "results" / "selftest.out").unlink()
    names = {}
    for s in tr.spans:
        names.setdefault(s[3], s)
    parent = {s[0]: s[3] for s in tr.spans}
    assert parent[names["field.build_context"][1]] == "cli.main"
    assert parent[names["spectrum.c_spectrum"][1]] == "verifier.verify_with_context"
    assert parent[names["field.pow_table"][1]] == "spectrum.delta_values"
    assert all(s[2] == 0 and s[5] >= s[4] for s in tr.spans)


# -- exact counts ---------------------------------------------------------------

def test_exact_count_checks(workdir):
    counts = {"field.vec_sub.calls": 3, "cli.output_bytes": 10}
    assert run.count_mismatches(counts, dict(counts)) == []
    assert run.count_mismatches(counts, dict(counts, **{"cli.output_bytes": 11})) == [
        "cli.output_bytes: 10 != 11"]
    assert tracing.is_exact("field.pow_table.distinct_d") and tracing.is_exact("field.table_bytes")
    assert not tracing.is_exact("field.vec_sub.s")

    path = workdir / "earlier.json"
    path.write_text(json.dumps({"code_id": "x", "exact_counts": counts}))
    assert run.compare_with_earlier({"code_id": "x", "exact_counts": counts}, path) == []
    changed = dict(counts, **{"field.vec_sub.calls": 4})
    assert run.compare_with_earlier({"code_id": "x", "exact_counts": changed}, path)
    assert run.compare_with_earlier({"code_id": "y", "exact_counts": changed}, path) == []
