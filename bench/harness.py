"""Workloads, sessions and output checks shared by the benchmark's entry points.

A session is what an amber user does: `amber gen` writes a dataset, `amber
train` cross-validates on it and `amber eval` scores a checkpoint. Every
command's outputs are checked, so a run that is fast but wrong is reported
as failed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

# BLAS/OpenMP are pinned to one thread in this process (before numpy loads)
# and in every child: at most two workers run at once on a 2-CPU host.
THREAD_VARS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def pin_threads():
    """Pin thread pools of this process; call before anything imports numpy."""
    os.environ.update(THREAD_VARS)


ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# A single command may not run longer than this; a whole run must end in 180 s.
COMMAND_TIMEOUT_S = 150.0
# Set-up probes (interpreter start, import, dataset load) before the first
# session; one more runs before every phase of every session.
SETUP_PROBES_AHEAD = 2
# `amber gen` runs per untraced session: the short commands repeat so that a
# run holds several of each; eval's count is per workload (`eval_runs`).
GEN_RUNS = 3
# Tolerance between the reported eval JS and the benchmark's own recomputation.
JS_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    samples: int
    classes: int
    dim: int  # dim_a = dim_t
    objective: str
    batch: int
    epochs: int
    folds: int
    eval_split: str  # "test": trained ckpt-f0-s0; "all": random-init checkpoint
    eval_runs: int  # `amber eval` runs per untraced session (see GEN_RUNS)
    hidden: int = 256
    lr: float | None = None

    def gen_argv(self, seed, out):
        return ["gen", "--samples", str(self.samples), "--classes", str(self.classes),
                "--dim-a", str(self.dim), "--dim-t", str(self.dim),
                "--seed", str(seed), "--out", str(out)]

    def train_argv(self, data, out_dir, jobs):
        argv = ["train", "--data", str(data), "--out-dir", str(out_dir),
                "--objective", self.objective, "--batch", str(self.batch),
                "--epochs", str(self.epochs), "--seeds", "1", "--folds", str(self.folds),
                "--hidden", str(self.hidden), "--fusion-dim", str(self.hidden),
                "--jobs", str(jobs)]
        if self.lr is not None:
            argv += ["--lr", repr(self.lr)]
        return argv

    def fold_sizes(self):
        base, extra = divmod(self.samples, self.folds)
        return [base + (1 if f < extra else 0) for f in range(self.folds)]

    def train_sample_epochs(self):
        """Training rows seen by one `amber train`: every fold, one seed."""
        sizes = self.fold_sizes()
        per_fold = [self.samples - sizes[k] - sizes[(k + 1) % self.folds] for k in range(self.folds)]
        return self.epochs * sum(per_fold)

    def eval_rows(self):
        return self.samples if self.eval_split == "all" else self.fold_sizes()[0]


# Why each workload: bench/README.md ("Workloads") and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        # Paper config, one worker: per-node Python overhead in autodiff,
        # losses and the per-sample validation loop dominates.
        Workload(
            name="cv-amber-b128",
            samples=2000, classes=4, dim=16, objective="amber", batch=128,
            epochs=2, folds=5, eval_split="test", eval_runs=3,
        ),
        # Read/write path: JSONL generate, parse and validate, forward-only
        # eval and per-sample metric loops; training is one light epoch.
        Workload(
            name="gen-eval-5k",
            samples=5000, classes=4, dim=16, objective="cbce", batch=1024,
            epochs=1, folds=3, eval_split="all", eval_runs=2, lr=3e-3,
        ),
    )
}


def tiny(wl: Workload) -> Workload:
    """The same session at a size that runs in about a second (smoke test)."""
    return replace(wl, samples=150, classes=3, dim=4, hidden=8, epochs=1)


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def child_env():
    env = dict(os.environ)
    env.update(THREAD_VARS)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_subprocess(argv, log_path):
    """Run one command to completion: (exit code, wall seconds, peak RSS in KiB).

    `os.wait4` returns the rusage of this child including the workers it
    reaped, so the peak covers the whole command. On timeout the command's
    whole process group is killed, pool workers included.
    """
    with open(log_path, "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=log, env=child_env(),
                                start_new_session=True)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


class Session:
    """State of one benchmark run: paths, reference digests, command records.

    Every command's outputs are checked; the first digest of each output is
    the reference and every later run of the same command must reproduce it.
    `tamper(session, kind)`, if given, runs between a command and its check;
    the smoke test corrupts outputs through it.
    """

    def __init__(self, wl: Workload, seed: int, work: Path, tamper=None):
        self.wl = wl
        self.seed = seed
        self.work = work
        self.tamper = tamper
        self.data = work / "data.jsonl"
        self.gen_out = work / "gen.jsonl"
        self.train_dir = work / "train"
        self.eval_dir = work / "eval"
        self.random_ckpt = work / "random-init.json"
        self.refs = {}
        self.records = []  # (kind, ok, wall_s, units, rss_kib)
        self.errors = []
        self.report_metrics = None
        self.js_checked = False
        self.summary = {}
        self.setup_walls = []

    # -- command bookkeeping -------------------------------------------------

    def fail(self, message):
        self.errors.append(message)
        return False

    def expect(self, key, digest):
        ref = self.refs.setdefault(key, digest)
        return ref == digest or self.fail(f"{key}: output differs from the first run")

    def command(self, kind, argv, execute, units, check):
        """Run one CLI command through `execute`, then `check` its outputs."""
        log = self.work / f"{kind}.log"
        code, wall, rss = execute(argv, log)
        ok = code == 0 or self.fail(f"{kind} exited with {code}: {log.read_text()[-400:]!r}")
        if ok and self.tamper is not None:
            self.tamper(self, kind)
        if ok:
            try:
                ok = check()
            except (OSError, ValueError, KeyError, TypeError) as exc:
                ok = self.fail(f"{kind}: unreadable output ({exc!r})")
        self.records.append((kind, ok, wall, units, rss))
        return ok

    def gen(self, execute, out=None):
        out = out or self.gen_out
        argv = self.wl.gen_argv(self.seed, out)
        return self.command("gen", argv, execute, self.wl.samples, lambda: self.check_gen(out))

    def train(self, execute, jobs=1):
        shutil.rmtree(self.train_dir, ignore_errors=True)
        argv = self.wl.train_argv(self.data, self.train_dir, jobs)
        return self.command("train", argv, execute, self.wl.train_sample_epochs(), self.check_train)

    def eval(self, execute):
        shutil.rmtree(self.eval_dir, ignore_errors=True)
        argv = ["eval", "--checkpoint", str(self.eval_checkpoint()), "--data", str(self.data),
                "--split", self.wl.eval_split, "--out-dir", str(self.eval_dir)]
        return self.command("eval", argv, execute, self.wl.eval_rows(), self.check_eval)

    def eval_checkpoint(self):
        if self.wl.eval_split == "all":
            return self.random_ckpt
        return self.train_dir / "checkpoints" / "ckpt-f0-s0.json"

    def cycle(self, execute):
        self.gen(execute)
        self.train(execute)
        self.eval(execute)

    # -- output checks -------------------------------------------------------

    def check_gen(self, out):
        if "dataset" not in self.refs:
            lines = out.read_text().count("\n")
            if lines != self.wl.samples + 1:
                return self.fail(f"gen wrote {lines} lines, expected {self.wl.samples + 1}")
        return self.expect("dataset", sha256(out))

    def check_train(self):
        ok = True
        for name in ("report.json", "train-log.jsonl"):
            ok &= self.expect(f"train:{name}", sha256(self.train_dir / name))
        ckpts = sorted((self.train_dir / "checkpoints").glob("*.json"))
        if len(ckpts) != self.wl.folds:
            return self.fail(f"train wrote {len(ckpts)} checkpoints, expected {self.wl.folds}")
        ok &= self.expect("train:checkpoints", "".join(sha256(p) for p in ckpts))
        if self.report_metrics is None:
            blob = json.loads((self.train_dir / "report.json").read_text())
            metrics = blob["aggregate"]["metrics"]
            if len(blob["reports"]) != self.wl.folds:
                return self.fail(f"report holds {len(blob['reports'])} runs, expected {self.wl.folds}")
            if not (0.0 < metrics["JS"]["mean"] < 1.0 and 0.0 < metrics["F1_macro"]["mean"] <= 1.0):
                return self.fail(f"report aggregate out of range: {metrics}")
            log_lines = (self.train_dir / "train-log.jsonl").read_text().count("\n")
            if log_lines != 2 * self.wl.folds * self.wl.epochs:
                return self.fail(f"train log has {log_lines} lines")
            self.report_metrics = metrics
        return ok

    def check_eval(self):
        report = self.eval_dir / "eval-report.json"
        ok = self.expect("eval:eval-report.json", sha256(report))
        if not self.js_checked:
            self.js_checked = True
            ok &= self.recompute_eval_js(json.loads(report.read_text()))
        return ok

    def recompute_eval_js(self, blob):
        """Recompute the eval JS from predictions with vectorised row divergences."""
        from amber import dataio, distlib, model

        cfg, params, provenance = model.load_checkpoint(self.eval_checkpoint())
        ds = dataio.load_jsonl(self.data)
        if self.wl.eval_split != "all":
            ds = dataio.fold_split(ds, int(provenance["fold"]))[2]
        h_a, h_t, y = ds.matrices()
        preds = model.predict(params, cfg, h_a, h_t)[cfg.student]
        expected = float(distlib.js_divergence_rows(preds, y).mean())
        reported = blob["reports"][0]["metrics"]["JS"]
        if abs(expected - reported) > JS_TOLERANCE:
            return self.fail(f"eval JS {reported!r} != recomputed {expected!r}")
        return True

    # -- setup ---------------------------------------------------------------

    def setup(self, execute):
        """Write the inputs every session reads."""
        self.work.mkdir(parents=True, exist_ok=True)
        if not self.gen(execute, out=self.data):
            raise RuntimeError("; ".join(self.errors))
        self.records.clear()
        if self.wl.eval_split == "all":
            self.write_random_checkpoint()

    def probe_setup(self):
        """Time interpreter start, `import amber` and loading the dataset."""
        probe = [sys.executable, "-c", "import sys, amber; amber.load_jsonl(sys.argv[1])", str(self.data)]
        code, wall, _ = run_subprocess(probe, self.work / "setup.log")
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}: {(self.work / 'setup.log').read_text()[-400:]!r}")
        self.setup_walls.append(wall)

    def write_random_checkpoint(self):
        import numpy as np
        from amber import model

        cfg = model.ModelConfig(self.wl.dim, self.wl.dim, self.wl.classes,
                                hidden=self.wl.hidden, fusion_dim=self.wl.hidden)
        params = model.init_params(cfg, np.random.default_rng(self.seed))
        model.save_checkpoint(self.random_ckpt, cfg, params, provenance={"system": "random-init"})

    # -- results -------------------------------------------------------------

    def throughput(self, kind):
        """Units of work per second over all passing commands of this kind."""
        done = [(units, wall) for k, ok, wall, units, _ in self.records if k == kind and ok]
        return sum(u for u, _ in done) / sum(w for _, w in done) if done else 0.0

    def counts(self):
        attempted = len(self.records)
        failed = sum(1 for rec in self.records if not rec[1])
        return attempted, failed


def subprocess_executor(argv, log):
    return run_subprocess([sys.executable, "-m", "amber.cli", *argv], log)


def run_untraced(wl, seed, seconds, work):
    """Closed loop of sessions for `seconds`; returns (session, metrics).

    The machine's speed drifts over seconds, so a set-up probe runs before
    every phase: the set-up samples spread over the whole window like the
    commands do. A host speed probe follows every timed step, and the
    timing metrics are taken at reference speed (bench/hostspeed.py); the
    summary line keeps the wall-clock figures.
    """
    import hostspeed  # loads numpy, so only after pin_threads()

    session = Session(wl, seed, work)
    session.setup(subprocess_executor)
    probes = [hostspeed.probe()]

    def then_probe(step):
        step()
        probes.append(hostspeed.probe())

    for _ in range(SETUP_PROBES_AHEAD):
        then_probe(session.probe_setup)
    phases = [[session.gen] * GEN_RUNS, [session.train], [session.eval] * wl.eval_runs]
    phase_walls = [[] for _ in phases]
    t0 = time.perf_counter()
    # Phases run in session order; the next one starts only if it is
    # expected to end inside the window, and one whole session always runs.
    for n in itertools.count():
        walls = phase_walls[n % len(phases)]
        if n >= len(phases) and time.perf_counter() - t0 + statistics.median(walls) > seconds:
            break
        p0 = time.perf_counter()
        then_probe(session.probe_setup)
        for command in phases[n % len(phases)]:
            then_probe(lambda: command(subprocess_executor))
        walls.append(time.perf_counter() - p0)
    speed = hostspeed.speed(probes)
    attempted, failed = session.counts()
    report = session.report_metrics or {"JS": {"mean": 0.0}, "F1_macro": {"mean": 0.0}}
    metrics = {
        "setup_s": (statistics.median(session.setup_walls) * speed, "s"),
        "train_samples_per_s": (session.throughput("train") / speed, "1/s"),
        "gen_samples_per_s": (session.throughput("gen") / speed, "1/s"),
        "eval_samples_per_s": (session.throughput("eval") / speed, "1/s"),
        "peak_rss_mb": (max(rec[4] for rec in session.records) / 1024.0, "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "test_js": (report["JS"]["mean"], "bits"),
        "test_f1_macro": (report["F1_macro"]["mean"], "ratio"),
    }
    session.summary = command_summary(session.records, len(phase_walls[1]))
    session.summary["wall_clock"] = {
        "setup_s": statistics.median(session.setup_walls),
        **{f"{kind}_samples_per_s": session.throughput(kind) for kind in ("train", "gen", "eval")},
    }
    session.summary["host_probe_s"] = {"n": len(probes), "mean": statistics.mean(probes),
                                       "min": min(probes), "max": max(probes), "speed": speed}
    return session, metrics


def command_summary(records, cycles):
    out = {"sessions": cycles}
    for kind in ("gen", "train", "eval"):
        walls = sorted(wall for k, ok, wall, _, _ in records if k == kind and ok)
        if walls:
            out[kind] = {"n": len(walls), "median_s": statistics.median(walls),
                         "min_s": walls[0], "max_s": walls[-1]}
    return out


def environment(wl, seed, seconds, trace):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": THREAD_VARS,
        "jobs": [1, 2] if trace else [1],
    }


def result_line(session, metrics):
    attempted, failed = session.counts()
    return {
        "correct": failed == 0 and not session.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


