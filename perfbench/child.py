"""One pass of a workload in a fresh interpreter; run.py starts it.

Reads a JSON job from stdin: the checkout root, the calls, whether to trace,
the seed's pinned digests (or null) and an optional path for the spans.  It
imports cdspec from ``<root>/src``, runs every argv through
``cdspec.cli.main`` in this process with stdout captured, then gates each
output and prints one JSON line: import and call times, time inside
``build_context``, peak RSS, per-call gate results and, when traced, the
per-layer metrics.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    job = json.load(sys.stdin)
    src = Path(job["root"]) / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import cdspec
    from cdspec import cli
    import_s = time.perf_counter() - t0
    if not Path(cdspec.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"cdspec imported from {cdspec.__file__}, not from {src}")

    import contextlib
    import io
    import resource

    import numpy
    import gate
    import tracing

    tracer = tracing.Tracer() if job["trace"] else tracing.Tracer(
        tracing.SETUP_FUNCTIONS, ()
    )
    outputs = []
    with tracer:
        for i, call in enumerate(job["calls"]):
            tracer.call = i
            out, err = io.StringIO(), io.StringIO()
            rc, error = None, None
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    rc = cli.main(list(call["argv"]))
                except Exception as exc:  # an operation that raises is a failed operation
                    error = repr(exc)
                wall = time.perf_counter() - start
            outputs.append((rc, error, wall, out.getvalue(), err.getvalue()))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    calls = []
    for call, (rc, error, wall, text, stderr) in zip(job["calls"], outputs):
        results, problems = gate.check_call(call, rc, error, text, job["pinned"])
        calls.append({
            "wall_s": wall, "rc": rc, "results": results, "problems": problems[:5],
            "sha256": gate.sha256(text), "bytes": len(text.encode("utf-8")),
            "stderr": stderr[-500:],
        })
    report = {
        "import_s": import_s,
        "build_context_s": tracer.total_s("field.build_context"),
        "peak_rss_mb": peak_rss_mb,
        "calls": calls,
        "numpy": numpy.__version__,
        "cdspec": cdspec.__version__,
    }
    if job["trace"]:
        report["layers"] = tracing.layer_metrics(tracer)
        if job["spans_path"]:
            names = sorted({s[3] for s in tracer.spans})
            index = {n: k for k, n in enumerate(names)}
            with open(job["spans_path"], "w", encoding="utf-8") as fh:
                json.dump({"fields": ["id", "parent", "call", "name", "start_ns", "end_ns"],
                           "names": names,
                           "spans": [[s[0], s[1], s[2], index[s[3]], s[4], s[5]]
                                     for s in tracer.spans]}, fh, separators=(",", ":"))
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
