"""The c08 work ledger and an in-process A/B of the row engine's kernel layers.

Run from the root of a source checkout:

    PYTHONPATH=src:tests python3 tools/row_kernel_ab.py [--repeats 9]

One scan of the grid of gate c08 (101 x 101, k = 1, N = 4, the trapped-ion
model) records every `_sum_columns` call, every term block and every
Laguerre growth.  The output is one JSON object:

* `ledger`: engine calls, term blocks, term cells and Laguerre
  degree-pairs of that scan.  They are counts, the same on every
  machine, and a kernel change that keeps the block schedule keeps them.
* `layers`: each layer replayed on its recorded inputs, with the earlier
  code and with the package's, the two sides alternating, as the best of
  `--repeats` timings of the whole replay (`time.perf_counter`, in ms),
  and the ratio package / earlier.  The earlier kernel is
  `tests/row_engine_ref.py`; the earlier Laguerre loop is
  `tests/laguerre_ref.py`'s `grow_laguerre`, run once per order, against
  the package's loop over both orders.  The replays share one process and
  its caches, so compare the ratios.
* `laguerre_paths`: for 2 to 32 pairs (half of order 0, half of order 2
  at the same points), the two paths of `LaguerreRows.upto` grown from
  degree 0 to 2,000 and to 80, the scalar loop per point and the numpy
  step over all pairs, as the best of `--repeats` timings in
  microseconds per degree.  A batched scan run has two pairs per row, a
  refinement call two per probe of distinct eta_sq and 70-90 degrees;
  `rows._FEW_PAIRS` is where the two cross.
* `cumulation`: the two forms of `rows._cumulate`, numpy's accumulate
  along axis 0 and one addition per row, as the best of `--repeats`
  timings in microseconds.  `term_blocks` replays the shape of every
  recorded term block (its rows plus the carried row), the one each of
  the two cumulative sums of `_sum_columns` takes: the total of each
  form, of the package's choice at `rows._WIDE`, and `crossover_width`,
  the threshold that gives the least total (the narrowest block that
  takes the row form).  `lattice` times shapes of 2 to 526 columns
  at three row counts, as `_Lattice.extend` cumulates: per width the
  accumulate and the row-addition time, and the narrowest width from
  which the row form wins at each row count.
* `engine_calls`: the `squeeze_rows` calls that refine the crossings of
  one c08 `boundary` (every call after the scan's), each replayed alone:
  its probe count and the best of `--repeats` timings in ms, and their
  total.  `phases_ms` splits the first call of 7 probes and the first of
  263 into the time spent in `LaguerreRows.upto`, in the rest of
  `_Lattice.extend`, in `_sum_columns` (its term blocks included), in
  `_assemble`, and everywhere else (the checks, the depth prediction,
  the run set-up and the values), each the best over the repetitions;
  the wrappers that split them add a little to each.
* `first_call`: the c08 `scan` CLI call run twice in each of `--repeats`
  fresh child interpreters, with `fansq.cli` imported before the first.
  Per call, the main thread's CPU time (`time.thread_time`, in ms) and
  minor page faults (`resource.getrusage(RUSAGE_THREAD)`), as medians
  over the children, and the median per-child gap between the first
  call's CPU time and the second's.  perfbench times the main thread of one
  call per child, so its `cpu_s` is a first call; the whole process's
  time would add the 20-60 ms that numpy's OpenBLAS worker thread spins
  for after import, during the first call.
  The children import `fansq` from where this process found it, so
  `PYTHONPATH=<other checkout>/src:tests` measures another tree.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import subprocess
import sys
import time

import numpy as np

import fansq
import fansq.atlas as atlas
import fansq.rows as rows
import row_engine_ref
from fansq.atlas import AxisRange, GridSpec, scan, trace_boundary
from laguerre_ref import grow_laguerre

C08 = GridSpec(
    xi_sq=AxisRange(0.01, 1.0, 101), eta_sq=AxisRange(0.01, 1.0, 101), k=1, N=4, phi=math.pi / 4
)


def record_c08():
    """Scan c08 once; return the ledger and the recorded inputs of each layer."""
    calls, blocks, growths, degree_pairs = [], [], [], [0]
    sum_columns, term_block = rows._sum_columns, rows._term_block
    grow, upto = rows._grow_laguerre_pair, rows.LaguerreRows.upto

    def recording_sum(*args):
        calls.append(args)
        return sum_columns(*args)

    def recording_block(lat, k, a, b, p, out):
        blocks.append((lat, k, a, b, p, out.shape))
        return term_block(lat, k, a, b, p, out)

    def recording_grow(den, num, K, x, n):
        growths.append((len(den), K, x, n))
        return grow(den, num, K, x, n)

    def counting_upto(self, n):
        before = self._vals.shape[0]
        vals = upto(self, n)
        degree_pairs[0] += (self._vals.shape[0] - before) * self.x.size
        return vals

    rows._sum_columns, rows._term_block = recording_sum, recording_block
    rows._grow_laguerre_pair, rows.LaguerreRows.upto = recording_grow, counting_upto
    try:
        scan(C08, "trapped-ion")
    finally:
        rows._sum_columns, rows._term_block = sum_columns, term_block
        rows._grow_laguerre_pair, rows.LaguerreRows.upto = grow, upto
    ledger = {
        "engine_calls": len(calls),
        "term_blocks": len(blocks),
        "term_cells": int(sum(shape[0] * shape[1] for *_, shape in blocks)),
        "laguerre_degree_pairs": degree_pairs[0],
    }
    return ledger, calls, blocks, growths


def replays(calls, blocks, growths):
    """Per layer, the earlier and the package's replay of its recorded inputs."""

    def sums(kernel):
        return lambda: [kernel(*args) for args in calls]

    def earlier_blocks():
        for lat, k, a, b, p, _ in blocks:
            row_engine_ref._term_block(lat, k, a, b, p)

    def package_blocks():
        for lat, k, a, b, p, shape in blocks:
            rows._term_block(lat, k, a, b, p, np.empty(shape))

    starts = []
    for size, K, x, n in growths:  # the values each call started from
        den, num = [1.0], [1.0]
        rows._grow_laguerre_pair(den, num, K, x, size - 1)
        starts.append((den, num, K, x, n))

    def earlier_laguerre():
        for den, num, K, x, n in starts:
            grow_laguerre(list(den), 0, x, n)
            grow_laguerre(list(num), K, x, n)

    def package_laguerre():
        for den, num, K, x, n in starts:
            rows._grow_laguerre_pair(list(den), list(num), K, x, n)

    return {
        "_sum_columns": (sums(row_engine_ref._sum_columns), sums(rows._sum_columns)),
        "_term_block": (earlier_blocks, package_blocks),
        "laguerre_loop": (earlier_laguerre, package_laguerre),
    }


PAIR_COUNTS = (2, 4, 8, 10, 12, 14, 16, 24, 32)
DEGREES = (2000, 80)  # a call's fixed cost is a small share; a refinement call's lattice


def laguerre_paths(repeats: int) -> dict:
    """Microseconds per degree of each `LaguerreRows` path, per degree count and pair count."""
    few = rows._FEW_PAIRS
    out = {}

    def grow(x, limit, degrees):
        def run():
            rows._FEW_PAIRS = limit
            rows.LaguerreRows(2, x).upto(degrees)

        return run

    try:
        for degrees in DEGREES:
            out[degrees] = {}
            for pairs in PAIR_COUNTS:
                # orders 0 and 2 at each point, as the c08 lattice holds them
                x = np.linspace(0.05, 0.99, pairs // 2)
                scalar, step = best_times((grow(x, pairs, degrees), grow(x, 0, degrees)), repeats)
                out[degrees][pairs] = {
                    "scalar_loop_us": round(scalar / degrees * 1e6, 3),
                    "numpy_step_us": round(step / degrees * 1e6, 3),
                }
    finally:
        rows._FEW_PAIRS = few
    return out


LATTICE_WIDTHS = (2, 8, 32, 128, 200, 263, 300, 400, 526)
LATTICE_ROWS = (9, 44, 1025)  # a first block, a refinement-width lattice, a deep row


def cumulation(blocks, repeats: int) -> dict:
    """Microseconds of each form of `rows._cumulate`, per c08 term block and lattice shape."""
    wide = rows._WIDE
    rng = np.random.default_rng(0)

    def forms(shape):
        block = rng.random(shape)

        def form(limit):
            def run():
                rows._WIDE = limit
                rows._cumulate(np.add, block)

            return run

        along, by_row = best_times((form(math.inf), form(0)), repeats)
        return along * 1e6, by_row * 1e6

    try:
        shapes = [(b - a + 1, p.n0.size) for _, _, a, b, p, _ in blocks]
        timed = [forms(shape) for shape in shapes]
        lattice = {
            height: {width: forms((height, width)) for width in LATTICE_WIDTHS}
            for height in LATTICE_ROWS
        }
    finally:
        rows._WIDE = wide

    def total(threshold):
        return sum(t[shape[1] >= threshold] for shape, t in zip(shapes, timed))

    thresholds = sorted({width for _, width in shapes}) + [math.inf]
    best = min(thresholds, key=total)
    return {
        "term_blocks": {
            "blocks": len(shapes),
            "accumulate_us": round(total(math.inf)),
            "row_additions_us": round(total(0)),
            "at_wide_us": round(total(wide)),
            "crossover_width": best if best < math.inf else None,
            "at_crossover_us": round(total(best)),
        },
        "lattice": {
            height: {
                "us": {w: [round(a, 1), round(r, 1)] for w, (a, r) in by_width.items()},
                "row_form_wins_from": next((w for w, (a, r) in by_width.items() if r < a), None),
            }
            for height, by_width in lattice.items()
        },
        "wide": wide,
    }


def record_boundary() -> list:
    """The arguments of the `squeeze_rows` calls that refine one c08 `boundary`."""
    calls = []
    engine = atlas.squeeze_rows

    def recording(*args):
        calls.append(args)
        return engine(*args)

    atlas.squeeze_rows = recording
    try:
        trace_boundary(C08, "trapped-ion")
    finally:
        atlas.squeeze_rows = engine
    return calls[1:]  # the first call is the scan's


PHASES = (
    ("laguerre", rows.LaguerreRows, "upto"),
    ("lattice_extend", rows._Lattice, "extend"),
    ("sum_columns", rows, "_sum_columns"),
    ("assemble", rows, "_assemble"),
)


def phase_split(args: tuple, repeats: int) -> dict:
    """Milliseconds of one `squeeze_rows` call per phase, each the best over the repetitions."""
    spent, inner = {}, []

    def wrap(name, f):
        def timed(*a):
            start = time.perf_counter()
            inner.append(0.0)
            try:
                return f(*a)
            finally:
                took, nested = time.perf_counter() - start, inner.pop()
                spent[name] = spent.get(name, 0.0) + took - nested
                if inner:
                    inner[-1] += took

        return timed

    saved = [(owner, attr, getattr(owner, attr)) for _, owner, attr in PHASES]
    best: dict = {}
    try:
        for name, owner, attr in PHASES:
            setattr(owner, attr, wrap(name, getattr(owner, attr)))
        for _ in range(repeats):
            spent.clear()
            start = time.perf_counter()
            rows.squeeze_rows(*args)
            took = time.perf_counter() - start
            spent["everything_else"] = took - sum(spent.values())
            spent["total"] = took
            for name, t in spent.items():
                best[name] = min(best.get(name, math.inf), t)
    finally:
        for owner, attr, f in saved:
            setattr(owner, attr, f)
    return {name: round(t * 1e3, 3) for name, t in best.items()}


def engine_calls(repeats: int) -> dict:
    """Per refinement call of a c08 `boundary`: probes and best time; the phases of two calls."""
    calls = record_boundary()
    timed = []
    for args in calls:
        best = math.inf
        for _ in range(repeats):
            start = time.perf_counter()
            rows.squeeze_rows(*args)
            best = min(best, time.perf_counter() - start)
        timed.append({"probes": len(args[1]), "best_ms": round(best * 1e3, 3)})
    sizes = [len(args[1]) for args in calls]
    return {
        "calls": timed,
        "total_ms": round(sum(t["best_ms"] for t in timed), 2),
        "phases_ms": {
            probes: phase_split(calls[sizes.index(probes)], repeats)
            for probes in (7, 263)
            if probes in sizes
        },
    }


SCAN_ARGV = [
    "scan", "--k", "1", "--N", "4", "--phi", repr(math.pi / 4),
    "--xi-sq", "0.01:1.0:101", "--eta-sq", "0.01:1.0:101", "--output", os.devnull,
]

FIRST_CALL_CHILD = """
import json, resource, sys, time
from fansq.cli import main

calls = []
for _ in range(2):
    faults, start = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt, time.thread_time()
    main(sys.argv[1:])
    cpu = time.thread_time() - start
    calls.append((cpu * 1e3, resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - faults))
print(json.dumps(calls))
"""


def first_call(repeats: int) -> dict:
    """Medians over fresh children of the first and the second c08 `scan` CLI call."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fansq.__file__)))
    children = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", FIRST_CALL_CHILD, *SCAN_ARGV],
            env=env, capture_output=True, text=True, check=True,
        )
        children.append(json.loads(out.stdout))
    first, second = zip(*children)
    return {
        "children": repeats,
        "first_cpu_ms": round(statistics.median(c[0] for c in first), 1),
        "second_cpu_ms": round(statistics.median(c[0] for c in second), 1),
        "gap_cpu_ms": round(statistics.median(f[0] - s[0] for f, s in children), 1),
        "first_minor_faults": statistics.median(c[1] for c in first),
        "second_minor_faults": statistics.median(c[1] for c in second),
    }


def best_times(pair, repeats: int) -> tuple[float, float]:
    best = [math.inf, math.inf]
    for rep in range(repeats):
        for side in (0, 1) if rep % 2 else (1, 0):
            start = time.perf_counter()
            pair[side]()
            best[side] = min(best[side], time.perf_counter() - start)
    return best[0], best[1]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=9)
    args = parser.parse_args()
    ledger, calls, blocks, growths = record_c08()
    layers = {}
    gc.disable()
    for name, pair in replays(calls, blocks, growths).items():
        earlier, package = best_times(pair, args.repeats)
        layers[name] = {
            "earlier_ms": round(earlier * 1e3, 2),
            "package_ms": round(package * 1e3, 2),
            "ratio": round(package / earlier, 3),
        }
    paths = laguerre_paths(args.repeats)
    cumulated = cumulation(blocks, args.repeats)
    calls = engine_calls(args.repeats)
    gc.enable()
    report = {
        "ledger": ledger,
        "layers": layers,
        "laguerre_paths": paths,
        "cumulation": cumulated,
        "engine_calls": calls,
        "first_call": first_call(args.repeats),
    }
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
