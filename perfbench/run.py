"""cdspec benchmark: drives ``cdspec.cli.main`` on one workload and prints metrics.

    python3 perfbench/run.py --workload sweep_c --seed 1 --seconds 25 --trace 0

Each pass of the workload runs in a fresh single-threaded child process
(child.py), one at a time, until ``--seconds`` is used up.  Every output is
gated (gate.py).  With ``--trace 0`` the end-to-end metrics are printed; with
``--trace 1`` untraced and traced passes alternate and the per-layer metrics
of the traced passes are printed, after checking that traced outputs are
byte-identical to untraced ones and that exact counts repeat.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.  The full
record, with provenance, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
MIN_PASSES = 3
MAX_PASSES = 30
CHILD_TIMEOUT_S = 170

END_TO_END = (
    ("results_per_s", "1/s"),
    ("max_call_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed operation)."""


def run_pass(root: Path, calls: list[dict], *, trace: bool, pinned, spans_path=None) -> dict:
    """Run one pass in a fresh child; return the child's report."""
    env = dict(os.environ, **{v: "1" for v in _THREAD_VARS})
    job = {"root": str(root), "calls": calls, "trace": trace, "pinned": pinned,
           "spans_path": str(spans_path) if spans_path else None}
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py")], input=json.dumps(job),
            capture_output=True, text=True, env=env, cwd=root, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass did not finish within {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _keep_going(done: int, started: float, seconds: float, least: int, most: int) -> bool:
    """Start another pass (or pair) only if it is expected to end within the budget."""
    if done < least:
        return True
    if done >= most:
        return False
    elapsed = time.monotonic() - started
    return elapsed + elapsed / done <= seconds


def _flag(report: dict, problem: str) -> None:
    """Record a problem found across calls against the pass's first call."""
    report["calls"][0]["problems"].append(problem)


def timed_run(workload, seed: int, seconds: float, scale: str, pinned) -> dict:
    passes = []
    started = time.monotonic()
    while _keep_going(len(passes), started, seconds, MIN_PASSES, MAX_PASSES):
        calls = workload(seed, scale, len(passes))
        passes.append(run_pass(ROOT, calls, trace=False, pinned=pinned) | {"specs": calls})

    # Medians across passes: a slow spell of the machine that covers fewer
    # than half the passes of a run does not move them.
    per_position = zip(*[[c["wall_s"] for c in p["calls"]] for p in passes])
    metrics = {
        "results_per_s": statistics.median(
            sum(c["results"] for c in p["calls"])
            / (p["import_s"] + sum(c["wall_s"] for c in p["calls"]))
            for p in passes
        ),
        "max_call_s": max(statistics.median(w) for w in per_position),
        "setup_s": statistics.median(p["import_s"] + p["build_context_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return {"metrics": metrics, "units": dict(END_TO_END), "passes": passes}


def _code_id(root: Path) -> str:
    """sha256 over the cdspec sources: runs with equal ids ran the same code."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "cdspec").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def exact_counts(layers: dict) -> dict:
    return {k: v for k, v in layers.items() if tracing.is_exact(k)}


def count_mismatches(reference: dict, other: dict) -> list[str]:
    return [f"{k}: {reference.get(k)} != {other.get(k)}"
            for k in sorted(set(reference) | set(other))
            if reference.get(k) != other.get(k)]


def traced_run(workload, seed: int, seconds: float, scale: str, pinned, tag: str) -> dict:
    """Alternate untraced and traced passes over the same inputs (pass 0)."""
    calls = workload(seed, scale, 0)
    untraced, traced = [], []
    started = time.monotonic()
    while _keep_going(len(traced), started, seconds, 2, MAX_PASSES // 2):
        spans = RESULTS_DIR / f"{tag}.spans.json" if not traced else None
        untraced.append(run_pass(ROOT, calls, trace=False, pinned=pinned) | {"specs": calls})
        traced.append(run_pass(ROOT, calls, trace=True, pinned=pinned, spans_path=spans)
                      | {"specs": calls})

    reference = [c["sha256"] for c in untraced[0]["calls"]]
    for report in untraced + traced:
        for got, want in zip(report["calls"], reference):
            if got["sha256"] != want:
                got["problems"].append("output differs between traced and untraced passes")
    counts = exact_counts(traced[0]["layers"])
    for report in traced[1:]:
        bad = count_mismatches(counts, exact_counts(report["layers"]))
        if bad:
            _flag(report, "exact counts differ between traced passes: " + "; ".join(bad[:5]))

    def call_wall(p):
        return sum(c["wall_s"] for c in p["calls"])

    # Exact counts are equal across traced passes; times take the median.
    metrics = {
        name: counts.get(name, statistics.median(p["layers"][name] for p in traced))
        for name, _unit in tracing.LAYER_METRICS if name != "trace.overhead_ratio"
    }
    metrics["trace.overhead_ratio"] = (
        statistics.median(map(call_wall, traced)) / statistics.median(map(call_wall, untraced))
    )
    return {"metrics": metrics, "units": dict(tracing.LAYER_METRICS),
            "passes": untraced + traced, "exact_counts": counts}


def compare_with_earlier(record: dict, path: Path) -> list[str]:
    """Exact counts must repeat across runs of the same code, inputs and scale."""
    if not path.is_file():
        return []
    with open(path, encoding="utf-8") as fh:
        earlier = json.load(fh)
    if earlier.get("code_id") != record["code_id"] or "exact_counts" not in earlier:
        return []
    return count_mismatches(earlier["exact_counts"], record["exact_counts"])


def _git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=workloads.SCALES, default="bench",
                        help="input size: bench (measured) or tiny (self-tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cdspec" / "__init__.py").is_file():
        print(f"error: no cdspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Only the default seed has pinned digests; other seeds get the invariants.
    pinned = None
    if args.seed == workloads.DEFAULT_SEED:
        pinned = json.loads(gate.PINNED_PATH.read_text(encoding="utf-8"))[args.scale]
    workload = workloads.WORKLOADS[args.workload]
    tag = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
    RESULTS_DIR.mkdir(exist_ok=True)
    try:
        if args.trace:
            run = traced_run(workload, args.seed, args.seconds, args.scale, pinned, tag)
        else:
            run = timed_run(workload, args.seed, args.seconds, args.scale, pinned)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    first = run["passes"][0]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "code_id": _code_id(ROOT),
        "provenance": {
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": first["numpy"], "cdspec": first["cdspec"],
            "git_commit": _git_commit(ROOT), "platform": platform.platform(),
        },
        "metrics": run["metrics"], "units": run["units"], "passes": run["passes"],
    }
    out_path = RESULTS_DIR / f"{tag}.json"
    if args.trace:
        record["exact_counts"] = run["exact_counts"]
        bad = compare_with_earlier(record, out_path)
        if bad:
            _flag(run["passes"][-1], "exact counts differ from the earlier run: "
                  + "; ".join(bad[:5]))
    calls = [(" ".join(spec["argv"]), got)
             for p in run["passes"] for spec, got in zip(p["specs"], p["calls"])]
    failures = [(argv, c["problems"]) for argv, c in calls if c["problems"]]
    record["attempted"], record["failed"] = len(calls), len(failures)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    prov = record["provenance"]
    print(f"# {args.workload} seed={args.seed} scale={args.scale} trace={args.trace} "
          f"passes={len(run['passes'])} nproc={prov['nproc']} python={prov['python']} "
          f"numpy={prov['numpy']} cdspec={prov['cdspec']} commit={prov['git_commit']}")
    for name, value in run["metrics"].items():
        print(f"{name:40s} {value:16.6g} {run['units'][name]}")
    print(f"{'fail_ratio':40s} {len(failures) / len(calls):16.6g} ratio")
    for argv, problems in failures[:10]:
        print(f"FAILED {argv}: {'; '.join(problems)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(calls),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": run["units"][name]}
                    for name, value in run["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
