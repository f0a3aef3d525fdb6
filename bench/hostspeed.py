"""Host speed probe: a fixed piece of work that uses no amber code.

The reference host is a shared virtual machine whose CPU speed drifts by
about 25% over tens of seconds, for pure Python and for numpy alike. A
run's timings follow the host's mean speed over that run, so they move from
run to run with it. `probe()` times a fixed mix of the kinds of work amber
does (interpreted loops and small objects, JSON text of floats, small and
medium numpy operations); the benchmark runs it after every timed step and
scales the run's wall times by how fast the host ran over the whole run
(`speed`). The probe calls nothing in `src/`, so a change to amber cannot
move it.
"""

from __future__ import annotations

import json
import time

import numpy as np

# Typical probe time on the reference host (bench/README.md). Scaled times are
# seconds at reference speed; the constant only sets their scale.
REFERENCE_S = 0.130

_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal((128, 16))
_W1 = _RNG.standard_normal((16, 256))
_W2 = _RNG.standard_normal((256, 256))
_FLOATS = _RNG.random(2000).tolist()


def _interpreted():
    acc = 0.0
    rows = []
    for i in range(60000):
        rows.append({"i": i, "v": (i * 0.5, i % 7)})
        acc += rows[-1]["v"][0] * 1e-6
    return acc


def _json_text():
    total = 0
    for _ in range(9):
        text = json.dumps({"floats": _FLOATS})
        total += len(json.loads(text)["floats"])
    return total


def _numpy_ops():
    acc = 0.0
    for _ in range(75):
        h = np.maximum(_X @ _W1, 0.0)
        z = h @ _W2
        e = np.exp(z - z.max(axis=1, keepdims=True))
        acc += float((e / e.sum(axis=1, keepdims=True)).sum())
    return acc


def probe() -> float:
    """Wall seconds of one fixed mix of work, on this process's thread."""
    t0 = time.perf_counter()
    _interpreted()
    _json_text()
    _numpy_ops()
    return time.perf_counter() - t0


def speed(probes) -> float:
    """Host speed over a run relative to the reference host.

    A wall time times this is the time at reference speed.
    """
    return REFERENCE_S * len(probes) / sum(probes)
