"""Span tracer that wraps cdspec's public functions from outside the package.

Each wrapped call appends one span ``[id, parent, call, name, start_ns,
end_ns]`` to an in-memory list; ``call`` is the index of the CLI call the
span belongs to.  Counters ride on the same wrappers.  Nothing under
``src/`` changes: the tracer rebinds each function in every cdspec module
that holds it (``cli.build_context``, ``verifier.c_spectrum``, the package
namespace, ...), replaces the listed methods on their classes, and restores
every binding on exit.  No wrapped function calls itself, so a name's total
time is the plain sum of its spans.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute): span name is "<module>.<attribute>".
FUNCTIONS = (
    ("field", "build_context"),
    ("field", "find_irreducible"),
    ("spectrum", "c_spectrum"),
    ("spectrum", "n4_bruteforce"),
    ("spectrum", "check_identities"),
    ("closed_forms", "dispatch"),
    ("verifier", "verify_with_context"),
    ("verifier", "sweep_c"),
    ("verifier", "scan_exponents"),
    ("verifier", "fuzz_identities"),
    ("cli", "main"),
    ("cli", "to_json"),
    ("cli", "_csv_text"),
    ("cli", "_emit"),
)
# (module, class, methods): span name is "<module>.<method>".
METHODS = (
    ("field", "FieldContext", ("vec_add", "vec_sub", "vec_scale", "vec_mul_poly", "pow_table")),
    ("spectrum", "PowerMapCase", ("delta_values", "delta_histogram")),
)
# The untraced run times only context construction, for setup_s.
SETUP_FUNCTIONS = (("field", "build_context"),)


def _count_build_context(tr, args, result):
    tr.counts["field.table_bytes"] += sum(
        v.nbytes for v in vars(result).values() if isinstance(v, np.ndarray)
    )


def _count_vec_sub(tr, args, result):
    tr.counts["field.vec_sub.elements"] += np.broadcast(args[1], args[2]).size


def _count_pow_table(tr, args, result):
    ctx = args[0]
    tr.pow_keys.add((ctx.p, ctx.n, ctx.modulus, args[1]))


def _count_c_spectrum(tr, args, result):
    tr.counts["spectrum.c_spectrum.elements"] += args[0].ctx.q


def _count_n4(tr, args, result):
    tr.counts["spectrum.n4_bruteforce.pairs"] += args[0].ctx.q ** 2


def _count_dispatch(tr, args, result):
    tr.counts["closed_forms.dispatch.predictions"] += len(result)


def _count_emit(tr, args, result):
    tr.counts["cli.output_bytes"] += len(args[1].encode("utf-8"))


COUNTERS = {
    "field.build_context": _count_build_context,
    "field.vec_sub": _count_vec_sub,
    "field.pow_table": _count_pow_table,
    "spectrum.c_spectrum": _count_c_spectrum,
    "spectrum.n4_bruteforce": _count_n4,
    "closed_forms.dispatch": _count_dispatch,
    "cli._emit": _count_emit,
}


class Tracer:
    """Context manager: wraps the given cdspec functions/methods while active."""

    def __init__(self, functions=FUNCTIONS, methods=METHODS):
        self.functions = functions
        self.methods = methods
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.pow_keys: set = set()
        self.call = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, count = self.spans, self._stack, COUNTERS.get(name)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, self.call, name, 0, 0]
            spans.append(rec)
            stack.append(rec[0])
            rec[4] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = clock()
                stack.pop()
            if count is not None:
                count(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "cdspec" or k.startswith("cdspec."))]
        for mod, attr in self.functions:
            orig = getattr(sys.modules[f"cdspec.{mod}"], attr)
            wrapper = self._wrap(f"{mod}.{attr}", orig)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._undo.append((m, key, orig))
                        setattr(m, key, wrapper)
        for mod, cls_name, names in self.methods:
            cls = getattr(sys.modules[f"cdspec.{mod}"], cls_name)
            for meth in names:
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(f"{mod}.{meth}", orig))
        return self

    def __exit__(self, *exc):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()
        return False

    def total_s(self, name: str) -> float:
        return sum(s[5] - s[4] for s in self.spans if s[3] == name) / 1e9


def self_times(spans) -> list[int]:
    """Self time of each span in ns: its duration minus the part of its
    interval that the union of its children's intervals covers."""
    children = defaultdict(list)
    for s in spans:
        if s[1] >= 0:
            children[s[1]].append((s[4], s[5]))
    out = []
    for s in spans:
        start, end = s[4], s[5]
        covered, cur_lo, cur_hi = 0, None, None
        for lo, hi in sorted(children.get(s[0], ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out


# Per-layer metrics of one traced pass, in BENCHMARK.json order, with units.
# "trace.overhead_ratio" is filled in by run.py from paired passes.
LAYER_METRICS = (
    ("field.build_context.s", "s"),
    ("field.build_context.self_s", "s"),
    ("field.build_context.calls", "count"),
    ("field.find_irreducible.s", "s"),
    ("field.vec_mul_poly.s", "s"),
    ("field.vec_add.s", "s"),
    ("field.table_bytes", "B"),
    ("field.vec_sub.s", "s"),
    ("field.vec_sub.calls", "count"),
    ("field.vec_sub.elements", "count"),
    ("field.vec_scale.s", "s"),
    ("field.pow_table.s", "s"),
    ("field.pow_table.calls", "count"),
    ("field.pow_table.distinct_d", "count"),
    ("field.pow_table.distinct_ratio", "ratio"),
    ("spectrum.delta_values.s", "s"),
    ("spectrum.delta_values.self_s", "s"),
    ("spectrum.delta_histogram.s", "s"),
    ("spectrum.delta_histogram.self_s", "s"),
    ("spectrum.c_spectrum.s", "s"),
    ("spectrum.c_spectrum.self_s", "s"),
    ("spectrum.c_spectrum.calls", "count"),
    ("spectrum.c_spectrum.elements", "count"),
    ("spectrum.elements_per_s", "1/s"),
    ("spectrum.n4_bruteforce.s", "s"),
    ("spectrum.n4_bruteforce.self_s", "s"),
    ("spectrum.n4_bruteforce.calls", "count"),
    ("spectrum.n4_bruteforce.pairs", "count"),
    ("spectrum.check_identities.s", "s"),
    ("closed_forms.dispatch.s", "s"),
    ("closed_forms.dispatch.calls", "count"),
    ("closed_forms.dispatch.predictions", "count"),
    ("verifier.verify_with_context.s", "s"),
    ("verifier.verify_with_context.self_s", "s"),
    ("verifier.verify_with_context.calls", "count"),
    ("verifier.sweep_c.self_s", "s"),
    ("verifier.scan_exponents.self_s", "s"),
    ("verifier.fuzz_identities.self_s", "s"),
    ("cli.main.s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.to_json.s", "s"),
    ("cli.serialize.s", "s"),
    ("cli.output_bytes", "B"),
    ("trace.spans", "count"),
    ("trace.overhead_ratio", "ratio"),
)

# Counts that must repeat exactly between runs of the same code and inputs.
EXACT_SUFFIXES = (".calls", ".elements", ".pairs", ".distinct_d", ".predictions")
EXACT_NAMES = ("field.table_bytes", "cli.output_bytes", "trace.spans")


def is_exact(name: str) -> bool:
    return name in EXACT_NAMES or name.endswith(EXACT_SUFFIXES)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of everything the tracer recorded."""
    total = defaultdict(int)
    self_ns = defaultdict(int)
    calls = defaultdict(int)
    for s, own in zip(tracer.spans, self_times(tracer.spans)):
        total[s[3]] += s[5] - s[4]
        self_ns[s[3]] += own
        calls[s[3]] += 1
    out: dict[str, float] = {}
    for metric, _unit in LAYER_METRICS:
        if metric.endswith(".self_s"):
            out[metric] = self_ns[metric[:-7]] / 1e9
        elif metric.endswith(".calls"):
            out[metric] = calls[metric[:-6]]
        elif metric.endswith(".s"):
            out[metric] = total[metric[:-2]] / 1e9
        else:
            out[metric] = tracer.counts[metric]
    out["field.pow_table.distinct_d"] = len(tracer.pow_keys)
    pow_calls = calls["field.pow_table"]
    out["field.pow_table.distinct_ratio"] = len(tracer.pow_keys) / pow_calls if pow_calls else 0
    spec_s = total["spectrum.c_spectrum"] / 1e9
    out["spectrum.elements_per_s"] = (
        tracer.counts["spectrum.c_spectrum.elements"] / spec_s if spec_s else 0
    )
    out["cli.serialize.s"] = (total["cli.to_json"] + total["cli._csv_text"]) / 1e9
    out["trace.spans"] = len(tracer.spans)
    out.pop("trace.overhead_ratio", None)
    return out
