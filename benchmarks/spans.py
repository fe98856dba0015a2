"""In-memory span recorder for the traced benchmark run.

The recorder wraps public gevreykit functions from outside the package:
``install`` replaces each target under every name a gevreykit module
binds it to (``jet_of`` is imported by name into ``faadibruno``,
``parametrix`` and ``cli``, so patching ``jets`` alone would count
nothing), and ``uninstall`` puts the originals back.  Spans record name,
start, end and parent; a layer's self time is its span's duration minus
the time its child spans cover.  Generator targets get one span per
generator whose busy time is the sum of its resumptions, so the
consumer's work between two yields is not charged to the generator.
A recursive call gets no span of its own; it is counted on the outer
span, so ``calls`` still counts every call.

The recorder keeps one span stack and assumes one thread, which the
benchmark pins (GEVREY_THREADS=1).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
from time import perf_counter

# span record fields
NAME, START, END, PARENT, BUSY, ATTRS = range(6)


def _wf_scan_attrs(args, kwargs, result):
    return {
        "points": len(args[1]),
        "verdicts": sum(1 for v in result if v.error is None),
    }


def _neumann_attrs(args, kwargs, result):
    return {
        "words_w": len(result.w_words),
        "words_e": len(result.e_words),
        "word_state_terms": sum(len(s) for s in result.word_states.values()),
    }


# (module, qualified name, attribute hook); wrap only what runs at most
# ~1e5 times per job: GridEvaluator.deriv, jet_mul and mi_add run millions
TARGETS = [
    ("cli", "main", None),
    ("funcspec", "parse_spec", None),
    ("jets", "jet_of", None),
    ("jets", "jet_compose", None),
    ("multiindex", "enumerate_decompositions", None),
    ("multiindex", "decomposition_census", None),
    ("faadibruno", "fdb_derivative", None),
    ("faadibruno", "lemma23_constant_search", None),
    ("numerics", "log_factorial", None),
    ("sequences", "audit_sequence", None),
    ("regularity", "measure_derivative_growth", None),
    ("regularity", "fit_regularity", None),
    ("wavefront", "read_gridfield", None),
    ("wavefront", "make_cutoff", None),
    ("wavefront", "directional_decay_profile", None),
    ("wavefront", "wf_point_test", None),
    ("wavefront", "wf_scan", _wf_scan_attrs),
    ("parametrix", "build_reduction_operators", None),
    ("parametrix", "neumann_sums", _neumann_attrs),
    ("parametrix", "residual_identity_check", None),
    ("parametrix", "bound_audit", None),
    ("parametrix", "SymbolAlgebra.partial", None),
    ("parametrix", "SymbolAlgebra.product", None),
    ("parametrix", "SymbolAlgebra.d_op", None),
    ("parametrix", "GridEvaluator.eval_sum", lambda a, k, r: {"terms": len(a[1])}),
]

# per-layer metrics: (name, unit, how to read it from the aggregate)
LAYER_METRICS = []
for _mod, _qual in (
    ("parametrix", "GridEvaluator.eval_sum"),
    ("parametrix", "SymbolAlgebra.partial"),
    ("parametrix", "SymbolAlgebra.product"),
    ("parametrix", "SymbolAlgebra.d_op"),
    ("jets", "jet_of"),
    ("jets", "jet_compose"),
    ("faadibruno", "fdb_derivative"),
    ("funcspec", "parse_spec"),
    ("wavefront", "read_gridfield"),
    ("wavefront", "make_cutoff"),
    ("wavefront", "directional_decay_profile"),
    ("wavefront", "wf_point_test"),
    ("wavefront", "wf_scan"),
    ("sequences", "audit_sequence"),
):
    LAYER_METRICS.append((f"{_mod}.{_qual}.calls", "count", ("calls", f"{_mod}.{_qual}")))
    LAYER_METRICS.append((f"{_mod}.{_qual}.self_s", "s", ("self_s", f"{_mod}.{_qual}")))
for _name in (
    "parametrix.bound_audit",
    "parametrix.residual_identity_check",
    "parametrix.neumann_sums",
    "parametrix.build_reduction_operators",
    "multiindex.enumerate_decompositions",
    "multiindex.decomposition_census",
    "faadibruno.lemma23_constant_search",
    "regularity.measure_derivative_growth",
    "regularity.fit_regularity",
    "cli.main",
):
    LAYER_METRICS.append((f"{_name}.self_s", "s", ("self_s", _name)))
LAYER_METRICS += [
    ("parametrix.GridEvaluator.eval_sum.terms", "count",
     ("attr", "parametrix.GridEvaluator.eval_sum", "terms")),
    ("parametrix.word_state_terms", "count", ("attr", "parametrix.neumann_sums", "word_state_terms")),
    ("parametrix.words_w", "count", ("attr", "parametrix.neumann_sums", "words_w")),
    ("parametrix.words_e", "count", ("attr", "parametrix.neumann_sums", "words_e")),
    ("multiindex.enumerate_decompositions.yielded", "count",
     ("attr", "multiindex.enumerate_decompositions", "yielded")),
    ("numerics.log_factorial.calls", "count", ("calls", "numerics.log_factorial")),
    ("wavefront.profiles_per_verdict", "ratio",
     ("ratio", ("calls", "wavefront.directional_decay_profile"), ("attr", "wavefront.wf_scan", "verdicts"))),
    ("wavefront.cutoffs_per_point", "ratio",
     ("ratio", ("calls", "wavefront.make_cutoff"), ("attr", "wavefront.wf_scan", "points"))),
]


class SpanRecorder:
    def __init__(self, clock=perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str, push: bool = True) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, None, None])
        if push:
            self._stack.append(idx)
        return idx

    def end(self, idx: int, attrs: dict | None = None, pop: bool = True) -> None:
        span = self.spans[idx]
        span[END] = self.clock()
        if attrs:
            span[ATTRS] = {**(span[ATTRS] or {}), **attrs}
        if pop:
            self._stack.pop()

    def wrap(self, name: str, fn, hook=None):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec._stack
            if stack and rec.spans[stack[-1]][NAME] == name:
                # a recursive call (parse_spec recurses millions of times on
                # deep specs): counted on the outer span, not given its own
                outer = rec.spans[stack[-1]]
                outer[ATTRS] = outer[ATTRS] or {}
                outer[ATTRS]["reentrant"] = outer[ATTRS].get("reentrant", 0) + 1
                return fn(*args, **kwargs)
            idx = rec.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rec.end(idx, hook(args, kwargs, result) if hook and result is not None else None)

        return traced

    def _wrap_generator(self, name: str, fn):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = rec.begin(name, push=False)
            busy, count = 0.0, 0
            it = fn(*args, **kwargs)
            try:
                while True:
                    t0 = rec.clock()
                    rec._stack.append(idx)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        rec._stack.pop()
                        busy += rec.clock() - t0
                    count += 1
                    yield item
            finally:
                rec.end(idx, {"yielded": count}, pop=False)
                rec.spans[idx][BUSY] = busy

        return traced

    def aggregate(self, first: int = 0) -> dict[str, dict]:
        """Per-name calls, self time and summed attributes of spans[first:]."""
        spans = self.spans
        covered = [0.0] * len(spans)
        own = [0.0] * len(spans)
        for i in range(first, len(spans)):
            s = spans[i]
            own[i] = s[BUSY] if s[BUSY] is not None else s[END] - s[START]
            if s[PARENT] is not None:
                covered[s[PARENT]] += own[i]
        out: dict[str, dict] = {}
        for i in range(first, len(spans)):
            s = spans[i]
            agg = out.setdefault(s[NAME], {"calls": 0, "self_s": 0.0, "attrs": {}})
            agg["calls"] += 1
            agg["self_s"] += own[i] - covered[i]
            for k, v in (s[ATTRS] or {}).items():
                agg["attrs"][k] = agg["attrs"].get(k, 0) + v
        return out

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                rec = {"id": i, "name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT]}
                if s[BUSY] is not None:
                    rec["busy"] = s[BUSY]
                if s[ATTRS]:
                    rec.update(s[ATTRS])
                fh.write(json.dumps(rec) + "\n")


def install(rec: SpanRecorder) -> list[tuple[object, str, object]]:
    """Wrap every target; returns the undo list for ``uninstall``."""
    modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "gevreykit"]
    undo = []
    for modname, qual, hook in TARGETS:
        owner = importlib.import_module(f"gevreykit.{modname}")
        *path, attr = qual.split(".")
        for part in path:
            owner = getattr(owner, part)
        orig = owner.__dict__[attr]
        traced = rec.wrap(f"{modname}.{qual}", orig, hook)
        if path:  # a method: one binding, on its class
            owners = [(owner, attr)]
        else:
            owners = [(m, k) for m in modules for k, v in vars(m).items() if v is orig]
        for m, k in owners:
            setattr(m, k, traced)
            undo.append((m, k, orig))
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for owner, attr, orig in reversed(undo):
        setattr(owner, attr, orig)


def layer_values(aggs: list[dict[str, dict]]) -> tuple[dict[str, float], bool]:
    """Per-layer metric values over the traced jobs' aggregates.

    Counts come from the first traced job and must repeat exactly in the
    others (the returned flag); self times are medians over the jobs.
    """
    def read(agg, how):
        kind, name = how[0], how[1]
        entry = agg.get(name)
        if kind == "calls":
            return entry["calls"] + entry["attrs"].get("reentrant", 0) if entry else 0
        if kind == "self_s":
            return entry["self_s"] if entry else 0.0
        if kind == "attr":
            return entry["attrs"].get(how[2], 0) if entry else 0
        num, den = read(agg, how[1]), read(agg, how[2])
        return num / den if den else 0.0

    values, counts_repeat = {}, True
    for name, unit, how in LAYER_METRICS:
        per_job = [read(agg, how) for agg in aggs]
        if how[0] == "self_s":
            values[name] = statistics.median(per_job)
        else:
            values[name] = per_job[0]
            counts_repeat &= all(v == per_job[0] for v in per_job)
    return values, counts_repeat
