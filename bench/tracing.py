"""Traced run: spans around the public functions of every amber module.

The spans are recorded from the benchmark's own code. Each wrapped function
records its name, start, end and the span that called it; counters record
work done at the same boundaries (rows, bytes, constructions). Spans stay
in memory and are aggregated when the run ends. A span's self time is its
duration minus the durations of the spans it called directly.

One traced run of a workload does, in-process:
  1. a reference session at --jobs 1 with spans on cross_validate and
     train_one only (the reference for tracing overhead and the cell times
     for the pool overhead),
  2. an `amber train` at --jobs 2 with a span on cross_validate only
     (for the pool overhead),
  3. the traced session at --jobs 1, so every cell runs where it is seen,
  4. the per-op microbenchmarks of bench/ops.py at both training shapes.
All three `amber train` runs must write identical outputs.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import statistics
import sys
import time
import traceback

import harness
import ops

# Pool size used for trainer.pool_overhead_s on every workload.
POOL_JOBS = 2

# (module, attribute, metric prefix, quantities, extra counter)
# An extra counter maps (args, result) to the work one call did.
SPANNED = (
    ("cli", "main", "cli.main", ("s", "self_s"), None),
    ("trainer", "cross_validate", "trainer.cross_validate", ("s",), None),
    ("trainer", "train_one", "trainer.train_one", ("s_p50", "s_max", "calls", "self_s"), None),
    ("trainer", "opt_step", "trainer.opt_step", ("s", "calls"), None),
    ("model", "forward_all", "model.forward_all", ("s", "calls", "rows"),
     lambda args, result: args[1].data.shape[0]),
    ("model", "predict", "model.predict", ("s",), None),
    ("model", "load_checkpoint", "model.load_checkpoint", ("s",), None),
    ("model", "save_checkpoint", "model.save_checkpoint", ("s", "bytes", "calls"),
     lambda args, result: os.path.getsize(args[0])),
    ("autodiff", "backward", "autodiff.backward", ("s", "calls"), None),
    ("losses", "amber_loss", "losses.amber_loss", ("calls",), None),
    ("losses", "cbce_loss", "losses.cbce_loss", ("calls",), None),
    ("evalreport", "dist_metrics", "evalreport.dist_metrics", ("s", "calls", "rows"),
     lambda args, result: len(args[0])),
    ("evalreport", "all_metrics", "evalreport.all_metrics", ("s",), None),
    ("evalreport", "ambiguity_bins", "evalreport.ambiguity_bins", ("s",), None),
    ("evalreport", "emit_report", "evalreport.emit_report", ("s",), None),
    ("dataio", "load_jsonl", "dataio.load_jsonl", ("s", "records"),
     lambda args, result: len(result)),
    ("dataio", "generate_synthetic", "dataio.generate_synthetic", ("s",), None),
    ("dataio", "save_jsonl", "dataio.save_jsonl", ("s", "bytes"),
     lambda args, result: os.path.getsize(args[1])),
    ("dataio", "fold_split", "dataio.fold_split", ("s", "calls"), None),
    ("dataio", "Dataset.matrices", "dataio.matrices", ("s",), None),
)
# (module, attribute, metric name): calls counted without a span.
COUNTED = (
    ("distlib", "SoftLabel.__init__", "distlib.SoftLabel.constructions"),
    ("distlib", "js_divergence_rows", "distlib.js_divergence_rows.calls"),
)
# Spans called from these spans are work their caller's total already holds
# (all_metrics -> dist_metrics, ambiguity_bins -> all_metrics per bin,
# predict -> forward_all). They are tabled as "<name> in <caller>" and kept
# out of the metrics of <name>, so that those count only the direct calls:
# validation for dist_metrics, training and validation for forward_all.
INNER_OF = ("evalreport.all_metrics", "evalreport.ambiguity_bins", "model.predict")
# Light spans of the reference session (step 1 above).
CELL_SPANS = [s for s in SPANNED if s[2] in ("trainer.cross_validate", "trainer.train_one")]
# Only one of the two objectives runs per workload; their time is reported
# together so that the metric is measured on every workload.
OBJECTIVE_SPANS = ("losses.amber_loss", "losses.cbce_loss")
UNITS = {"s": "s", "s_p50": "s", "s_max": "s", "self_s": "s", "calls": "count",
         "rows": "count", "records": "count", "bytes": "B"}


class Tracer:
    """Spans and counters for patched amber functions, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, time in child spans, extra]
        self.stack = []
        self.counts = {}

    def span(self, name, fn, extra):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, 0.0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += rec[2] - rec[1]
            if extra is not None:
                rec[5] = extra(args, result)
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self, spanned=SPANNED, counted=COUNTED):
        """Patch the functions while the block runs, restore them after."""
        undo = []
        try:
            for module, attr, prefix, _, extra in spanned:
                _patch(module, attr, lambda fn, p=prefix, e=extra: self.span(p, fn, e), undo)
            for module, attr, name in counted:
                _patch(module, attr, lambda fn, n=name: self.counter(n, fn), undo)
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def aggregate(self):
        """name -> {"s", "self_s", "calls", "extra", "durations"}.

        A span called from an INNER_OF span is keyed "<name> in <caller>".
        """
        out = {}
        for name, start, end, parent, child, extra in self.spans:
            caller = self.spans[parent][0] if parent >= 0 else None
            if caller in INNER_OF:
                name = f"{name} in {caller}"
            cell = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0, "extra": 0, "durations": []})
            cell["s"] += end - start
            cell["self_s"] += end - start - child
            cell["calls"] += 1
            cell["extra"] += extra
            cell["durations"].append(end - start)
        return out

    def children_of(self, name):
        """Total time per child span name directly under spans called `name`."""
        parents = {i for i, rec in enumerate(self.spans) if rec[0] == name}
        out = {}
        for child, start, end, parent, _, _ in self.spans:
            if parent in parents:
                out[child] = out.get(child, 0.0) + end - start
        return out


def _patch(module, attr, make_wrapper, undo):
    """Replace `module.attr` (or a class attribute) everywhere amber refers to it."""
    mod = sys.modules[f"amber.{module}"]
    if "." in attr:
        cls_name, method = attr.split(".")
        cls = getattr(mod, cls_name)
        original = cls.__dict__[method]
        undo.append((cls, method, original))
        setattr(cls, method, make_wrapper(original))
        return
    original = getattr(mod, attr)
    wrapper = make_wrapper(original)
    for name, loaded in list(sys.modules.items()):
        if name != "amber" and not name.startswith("amber."):
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                undo.append((loaded, key, original))
                setattr(loaded, key, wrapper)


def inprocess_executor(argv, log):
    """Run `amber <argv>` in this process: (exit code, wall seconds, None)."""
    from amber import cli

    with open(log, "w") as fh, contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed command, reported with its traceback
            fh.write(traceback.format_exc())
            code = 1
        wall = time.perf_counter() - t0
    return code, wall, None


def _walls(session, start):
    return sum(rec[2] for rec in session.records[start:])


def pool_finish(durations, workers):
    """Finish time of cells handed out in order to the first free worker."""
    free = [0.0] * workers
    for d in durations:
        free[free.index(min(free))] += d
    return max(free)


def run_traced(wl, seed, work):
    """One traced run; returns (session, per-layer metrics)."""
    import amber.cli  # noqa: F401  (import cost stays out of the reference timing)

    session = harness.Session(wl, seed, work)
    session.setup(harness.subprocess_executor)

    reference = Tracer()
    start = len(session.records)
    with reference.installed(spanned=CELL_SPANS, counted=()):
        session.cycle(inprocess_executor)
    untraced_s = _walls(session, start)
    cells = reference.aggregate().get("trainer.train_one", {"durations": []})["durations"]

    pool = Tracer()
    with pool.installed(spanned=[s for s in CELL_SPANS if s[1] == "cross_validate"], counted=()):
        session.train(inprocess_executor, jobs=POOL_JOBS)
    pool_cv = pool.aggregate().get("trainer.cross_validate", {"s": 0.0})["s"]

    tracer = Tracer()
    start = len(session.records)
    with tracer.installed():
        session.cycle(inprocess_executor)
    traced_s = _walls(session, start)

    metrics = layer_metrics(tracer)
    metrics["trainer.pool_overhead_s"] = (pool_cv - pool_finish(cells, POOL_JOBS), "s")
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.slowdown"] = (traced_s / untraced_s, "x")
    metrics.update(ops.op_metrics())

    session.summary = span_report(tracer, session)
    write_report(session, wl, seed)
    return session, metrics


def layer_metrics(tracer):
    agg = tracer.aggregate()
    empty = {"s": 0.0, "self_s": 0.0, "calls": 0, "extra": 0, "durations": [0.0]}
    out = {}
    for _, _, prefix, quantities, _ in SPANNED:
        cell = agg.get(prefix, empty)
        values = {
            "s": cell["s"],
            "self_s": cell["self_s"],
            "calls": cell["calls"],
            "s_p50": statistics.median(cell["durations"]),
            "s_max": max(cell["durations"]),
        }
        for q in quantities:
            # rows, records and bytes come from the span's extra counter
            out[f"{prefix}.{q}"] = (values.get(q, cell["extra"]), UNITS[q])
    out["losses.objective.s"] = (sum(agg.get(p, empty)["s"] for p in OBJECTIVE_SPANS), "s")
    for name, count in tracer.counts.items():
        out[name] = (count, "count")
    return out


def span_report(tracer, session):
    """Per-span totals, and train_one split into its child spans and self time.

    A child span plus train_one's self time must account for train_one's
    total; a gap means a span was lost, so the run is marked failed.
    """
    agg = tracer.aggregate()
    spans = {name: {"s": cell["s"], "self_s": cell["self_s"], "calls": cell["calls"]}
             for name, cell in sorted(agg.items(), key=lambda kv: -kv[1]["s"])}
    split = tracer.children_of("trainer.train_one")
    total = agg.get("trainer.train_one", {"s": 0.0, "self_s": 0.0})
    split["self"] = total["self_s"]
    gap = total["s"] - sum(split.values())
    if abs(gap) > 1e-6 * max(total["s"], 1.0):
        session.fail(f"train_one spans leave {gap!r} s unaccounted")
    return {"spans": spans, "train_one": {"s": total["s"], "split": split, "gap_s": gap},
            "counts": dict(tracer.counts)}


def write_report(session, wl, seed):
    """Keep the span table in .bench_work/reports and print it."""
    reports = harness.WORK / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    (reports / f"trace-{wl.name}-s{seed}.json").write_text(json.dumps(session.summary, indent=2) + "\n")
    print(f"{'span':52} {'total_s':>10} {'self_s':>10} {'calls':>8}")
    for name, cell in session.summary["spans"].items():
        print(f"{name:52} {cell['s']:10.4f} {cell['self_s']:10.4f} {cell['calls']:8d}")
    split = session.summary["train_one"]
    print(f"train_one {split['s']:.4f} s = " + " + ".join(
        f"{name} {value:.4f}" for name, value in sorted(split["split"].items(), key=lambda kv: -kv[1])))
