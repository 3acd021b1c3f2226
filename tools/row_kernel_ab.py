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
  `tests/row_engine_ref.py`; the earlier Laguerre loop is the one below.
  The replays share one process and its caches, so compare the ratios.
* `laguerre_paths`: for 2 to 32 pairs, the two paths of
  `LaguerreRows.upto` grown from degree 0 to 2,000, the scalar
  loop per pair and the numpy step over all pairs, as the best of
  `--repeats` timings in microseconds per degree.  A batched scan run
  has two pairs per row; `rows._FEW_PAIRS` is where the two cross.
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
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import time

import numpy as np

import fansq.rows as rows
import row_engine_ref
from fansq.atlas import AxisRange, GridSpec, scan


def earlier_grow_laguerre(vals, m: int, x: float, n: int) -> None:
    """The Laguerre loop before it ran over local variables."""
    if len(vals) == 1:
        vals.append(1.0 + m - x)
    while len(vals) <= n:
        i = len(vals) - 1
        vals.append(((2 * i + 1 + m - x) * vals[i] - (i + m) * vals[i - 1]) / (i + 1))


def record_c08():
    """Scan c08 once; return the ledger and the recorded inputs of each layer."""
    grid = GridSpec(
        xi_sq=AxisRange(0.01, 1.0, 101), eta_sq=AxisRange(0.01, 1.0, 101), k=1, N=4, phi=math.pi / 4
    )
    calls, blocks, growths, degree_pairs = [], [], [], [0]
    sum_columns, term_block = rows._sum_columns, rows._term_block
    grow, upto = rows._grow_laguerre, rows.LaguerreRows.upto

    def recording_sum(*args):
        calls.append(args)
        return sum_columns(*args)

    def recording_block(lat, k, a, b, p, out):
        blocks.append((lat, k, a, b, p, out.shape))
        return term_block(lat, k, a, b, p, out)

    def recording_grow(vals, m, x, n):
        growths.append((len(vals), m, x, n))
        return grow(vals, m, x, n)

    def counting_upto(self, n):
        before = self._vals.shape[0]
        vals = upto(self, n)
        degree_pairs[0] += (self._vals.shape[0] - before) * self.x.size
        return vals

    rows._sum_columns, rows._term_block = recording_sum, recording_block
    rows._grow_laguerre, rows.LaguerreRows.upto = recording_grow, counting_upto
    try:
        scan(grid, "trapped-ion")
    finally:
        rows._sum_columns, rows._term_block = sum_columns, term_block
        rows._grow_laguerre, rows.LaguerreRows.upto = grow, upto
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
    for size, m, x, n in growths:  # the values each call started from
        vals = [1.0]
        rows._grow_laguerre(vals, m, x, size - 1)
        starts.append((vals, m, x, n))

    def laguerre(loop):
        return lambda: [loop(list(vals), m, x, n) for vals, m, x, n in starts]

    return {
        "_sum_columns": (sums(row_engine_ref._sum_columns), sums(rows._sum_columns)),
        "_term_block": (earlier_blocks, package_blocks),
        "laguerre_loop": (laguerre(earlier_grow_laguerre), laguerre(rows._grow_laguerre)),
    }


PAIR_COUNTS = (2, 4, 8, 10, 12, 16, 24, 32)
DEGREES = 2000  # enough that a call's fixed cost is a small share


def laguerre_paths(repeats: int) -> dict:
    """Microseconds per degree of each `LaguerreRows` path, per pair count."""
    few = rows._FEW_PAIRS
    out = {}

    def grow(m, x, limit):
        def run():
            rows._FEW_PAIRS = limit
            rows.LaguerreRows(m, x).upto(DEGREES)

        return run

    try:
        for pairs in PAIR_COUNTS:
            # half the pairs of order 0 and half of order 2, as the c08 lattice holds
            m = np.repeat([0, 2], pairs // 2)
            x = np.tile(np.linspace(0.05, 0.99, pairs // 2), 2)
            scalar, step = best_times((grow(m, x, pairs), grow(m, x, 0)), repeats)
            out[pairs] = {
                "scalar_loop_us": round(scalar / DEGREES * 1e6, 3),
                "numpy_step_us": round(step / DEGREES * 1e6, 3),
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
    gc.enable()
    print(
        json.dumps(
            {"ledger": ledger, "layers": layers, "laguerre_paths": paths, "cumulation": cumulated},
            indent=1,
        )
    )


if __name__ == "__main__":
    main()
