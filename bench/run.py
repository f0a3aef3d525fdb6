"""End-to-end benchmark of the amber CLI.

Each workload is a closed loop of user sessions (gen -> train -> eval), one
command at a time from this single client process. The workloads differ in
shape and in which layer dominates; bench/README.md gives the reasons.

    python3 bench/run.py --workload cv-amber-b128 --seed 1 --seconds 30 --trace 0

`--trace 0` runs the commands as subprocesses and reports the end-to-end
metrics. `--trace 1` runs sessions in-process with spans around the public
functions of every module and reports the per-layer metrics (bench/tracing.py).
The last line of stdout is the JSON result; the lines before it hold a
summary and the environment record.
"""

from __future__ import annotations

import harness

harness.pin_threads()

import argparse
import json
import os
import shutil
import sys


def run(wl, seed, seconds, trace, work):
    """One benchmark run with its files in `work`: (session, result object)."""
    if trace:
        import tracing

        session, metrics = tracing.run_traced(wl, seed, work)
    else:
        session, metrics = harness.run_untraced(wl, seed, seconds, work)
    return session, harness.result_line(session, metrics)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)

    if not (harness.SRC / "amber" / "cli.py").is_file():
        sys.stderr.write(f"bench: no amber sources under {harness.SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(harness.SRC))

    wl = harness.WORKLOADS[ns.workload]
    work = harness.WORK / f"{wl.name}-s{ns.seed}-p{os.getpid()}"
    try:
        session, result = run(wl, ns.seed, ns.seconds, bool(ns.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for message in session.errors:
        sys.stderr.write(f"bench: check failed: {message}\n")
    print(json.dumps({"summary": session.summary}))
    print(json.dumps({"env": harness.environment(wl, ns.seed, ns.seconds, bool(ns.trace))}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
