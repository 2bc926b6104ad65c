"""In-process spans around calls into popgames' public functions.

Nothing inside the package changes: each traced function is replaced by a
wrapper at every module attribute that binds it, since several modules import
names directly (``verify.successors`` next to ``core.successors``,
``cli.monte_carlo`` next to ``sim.monte_carlo``).  A binding left unpatched
shows up as a call-count mismatch against the known work of the workload.

Coarse boundaries record one span per call: name, start, end and parent.
Hot leaves (``core.successors``, ``_kernels.run_multiset``) are summed per
parent span instead, so the trace stays small.  Self time is a span's
duration minus the time its child spans and leaves cover.  Spans stay in
memory and are written out once, after the command has finished.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

clock = time.perf_counter


class Tracer:
    def __init__(self):
        # span record: [name, start, end, parent index, child time, leaf sums]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.leaves: dict[str, list] = {}  # name -> [calls, seconds]
        self.bindings: dict[str, list[str]] = {}

    # -- recording ---------------------------------------------------------
    # The wrappers below inline this bookkeeping: they run per call.

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, clock(), 0.0, parent, 0.0, None])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        rec = self.spans[index]
        rec[2] = clock()
        self.stack.pop()
        if rec[3] >= 0:
            self.spans[rec[3]][4] += rec[2] - rec[1]

    def parent_name(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    # -- wrappers ------------------------------------------------------------

    def span_wrapper(self, name, func, on_result=None):
        """One span per call; `on_result` runs after the span has closed."""
        spans, stack, counts = self.spans, self.stack, self.counts
        calls_key = name + ".calls"

        def traced(*args, **kwargs):
            counts[calls_key] += 1
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = rec[2] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += end - rec[1]
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def leaf_wrapper(self, name, func, on_result=None):
        """No span: calls and time are summed overall and per parent span."""
        spans, stack = self.spans, self.stack
        totals = self.leaves.setdefault(name, [0, 0.0])

        def traced(*args, **kwargs):
            t0 = clock()
            result = func(*args, **kwargs)
            elapsed = clock() - t0
            totals[0] += 1
            totals[1] += elapsed
            if stack:
                rec = spans[stack[-1]]
                rec[4] += elapsed
                if rec[5] is None:
                    rec[5] = {}
                per_parent = rec[5].get(name)
                if per_parent is None:
                    rec[5][name] = [1, elapsed]
                else:
                    per_parent[0] += 1
                    per_parent[1] += elapsed
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def generator_wrapper(self, name, func, on_item=None):
        """One span per resumption, so the consumer's time is not counted."""

        def traced(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            inner = func(*args, **kwargs)
            while True:
                index = self.open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self.close(index)
                if on_item is not None:
                    on_item(self, item)
                yield item

        return traced

    def patch(self, name: str, module, attr: str, make_wrapper) -> None:
        """Replace `module.attr` at every popgames binding of the same object."""
        original = getattr(module, attr)
        wrapper = make_wrapper(name, original)
        patched = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "popgames" or mod_name.startswith("popgames.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    patched.append(f"{mod_name}.{key}")
        if not patched:
            raise RuntimeError(f"no binding of {name} found to trace")
        self.bindings[name] = sorted(patched)

    # -- results -------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Calls, self time and counters per traced name."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _parent, child, _leaves in self.spans:
            out[name + ".self_s"] += (end - start) - child
        for name, (calls, elapsed) in self.leaves.items():
            out[name + ".calls"] += calls
            out[name + ".self_s"] += elapsed
        for key, value in self.counts.items():
            out[key] += value
        return dict(out)

    def write_spans(self, path: str) -> None:
        payload = {
            "fields": ["name", "start", "end", "parent", "child_s", "leaves"],
            "bindings": self.bindings,
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload))  # one C-encoded string, not chunks


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries the benchmark reports, at every binding."""
    from popgames import _kernels, cli, core, formats, games, pavcheck, sim, verify

    def span(on_result=None):
        return lambda name, func: tracer.span_wrapper(name, func, on_result)

    def leaf(on_result):
        return lambda name, func: tracer.leaf_wrapper(name, func, on_result)

    def add(key, value_of):
        def on_result(tr, result):
            tr.counts[key] += value_of(result)

        return on_result

    def pavlovian_outcome(tr, result):
        witness = isinstance(result, pavcheck.Witness)
        tr.counts["pavcheck.check_pavlovian." + ("witnesses" if witness else "refusals")] += 1
        if tr.parent_name() == "verify.iter_search_pavlovian":
            tr.counts["search.candidates"] += 1
            tr.counts["search.pavlovian"] += witness

    def found(tr, _item):
        tr.counts["search.found"] += 1

    tracer.patch("cli.main", cli, "main", span())
    tracer.patch("formats.parse_protocol", formats, "parse_protocol", span())
    tracer.patch("sim.monte_carlo", sim, "monte_carlo", span())
    tracer.patch("sim.run", sim, "run", span())
    tracer.patch(
        "kernels.run_multiset", _kernels, "run_multiset",
        leaf(add("kernels.run_multiset.steps", lambda r: int(r[0]))),
    )
    tracer.patch(
        "core.successors", core, "successors", leaf(add("core.successors.out", len))
    )
    tracer.patch(
        "verify.reachable", verify, "reachable",
        span(add("verify.reachable.configs", lambda g: len(g.nodes))),
    )
    tracer.patch("verify.bottom_sccs", verify, "bottom_sccs", span())
    tracer.patch(
        "verify.stably_computes", verify, "stably_computes",
        span(add("verify.stably_computes.inputs", lambda v: len(v.per_input))),
    )
    tracer.patch(
        "verify.iter_search_pavlovian", verify, "iter_search_pavlovian",
        lambda name, func: tracer.generator_wrapper(name, func, found),
    )
    tracer.patch(
        "pavcheck.check_pavlovian", pavcheck, "check_pavlovian", span(pavlovian_outcome)
    )
    tracer.patch("pavcheck.build_constraints", pavcheck, "build_constraints", span())
    tracer.patch(
        "pavcheck.solve_order_constraints", pavcheck, "solve_order_constraints", span()
    )
    tracer.patch("pavcheck.witness_reproduces", pavcheck, "witness_reproduces", span())
    tracer.patch("games.derive_protocol", games, "derive_protocol", span())
