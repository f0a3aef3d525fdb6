"""Smoke test of the benchmark itself, at a tiny size (about half a minute).

    python3 bench/smoke.py

Checks that:
  - the workloads in BENCHMARK.json are the ones the harness defines;
  - every declared metric is emitted, with its declared unit, on every
    workload, untraced (end-to-end) and traced (per-layer);
  - deliberately corrupted outputs are caught by the correctness gate;
  - without the amber sources the benchmark exits non-zero without a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import harness

harness.pin_threads()

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys

import run

SEED = 3
TIME_UNITS = ("s", "us")


def check_result(name, trace, result, declared, problems):
    where = f"{name} trace={int(trace)}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
        return
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    emitted = result["metrics"]
    for metric in sorted(set(declared) ^ set(emitted)):
        problems.append(f"{where}: {metric} is {'missing' if metric in declared else 'undeclared'}")
    for metric, unit in declared.items():
        cell = emitted.get(metric)
        if cell is None:
            continue
        value = cell["value"]
        if cell["unit"] != unit:
            problems.append(f"{where}: {metric} unit {cell['unit']!r}, declared {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {metric} = {value!r}")
        elif (not trace or unit in TIME_UNITS) and value <= 0:
            problems.append(f"{where}: {metric} = {value!r} must be > 0")


def emitted_metrics(bench, problems):
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for name in bench_workloads(bench):
        wl = harness.tiny(harness.WORKLOADS[name])
        for trace, declared in ((False, end_to_end), (True, per_layer)):
            work = harness.WORK / f"smoke-{name}-{int(trace)}"
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    session, result = run.run(wl, SEED, 0, trace, work)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            problems.extend(f"{name}: {e}" for e in session.errors)
            check_result(name, trace, result, declared, problems)


def bench_workloads(bench):
    return [w["name"] for w in bench["workloads"]]


def _rewrite(path, edit):
    path.write_text(edit(path.read_text()))


def corruption_cases():
    """name -> tamper(session, kind, call number of that kind)."""

    def eval_js(session, kind, n):
        if kind == "eval" and n == 1:
            report = session.eval_dir / "eval-report.json"
            blob = json.loads(report.read_text())
            blob["reports"][0]["metrics"]["JS"] += 1e-9
            report.write_text(json.dumps(blob, indent=2) + "\n")

    def train_report(session, kind, n):
        if kind == "train" and n == 2:
            _rewrite(session.train_dir / "report.json", lambda t: t.replace('"JS": 0.', '"JS": 1.', 1))

    def checkpoint(session, kind, n):
        if kind == "train" and n == 2:
            _rewrite(session.train_dir / "checkpoints" / "ckpt-f1-s0.json", lambda t: t.replace("0", "1", 1))

    def dataset(session, kind, n):
        if kind == "gen" and n == 2:
            _rewrite(session.gen_out, lambda t: t[: len(t) // 2])

    return {"eval-js": eval_js, "train-report": train_report, "checkpoint": checkpoint, "dataset": dataset}


def corruption_is_caught(problems):
    wl = harness.tiny(harness.WORKLOADS["cv-amber-b128"])
    for case, tamper in corruption_cases().items():
        calls = {}

        def hook(session, kind, tamper=tamper):
            calls[kind] = calls.get(kind, 0) + 1
            tamper(session, kind, calls[kind])

        work = harness.WORK / f"smoke-corrupt-{case}"
        session = harness.Session(wl, SEED, work, tamper=hook)
        try:
            session.setup(harness.subprocess_executor)
            calls.clear()
            for _ in range(2):
                session.cycle(harness.subprocess_executor)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        attempted, failed = session.counts()
        if failed == 0 or not session.errors:
            problems.append(f"corruption {case!r} was not caught ({attempted} commands passed)")


def fails_without_sources(problems):
    """Copy only BENCHMARK.json and bench/ elsewhere: the run must fail cleanly."""
    bare = harness.WORK / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(harness.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(harness.ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "cv-amber-b128", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170, env=env,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append(f"bare checkout: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")


def main():
    sys.path.insert(0, str(harness.SRC))
    bench = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if sorted(bench_workloads(bench)) != sorted(harness.WORKLOADS):
        problems.append(f"workloads: declared {bench_workloads(bench)}, defined {sorted(harness.WORKLOADS)}")
    emitted_metrics(bench, problems)
    corruption_is_caught(problems)
    fails_without_sources(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
