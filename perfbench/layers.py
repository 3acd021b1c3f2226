"""Per-layer tracing of fansq from outside the package.

`Tracer.install` replaces each hooked function, in every `fansq` module
namespace that holds it, with a wrapper.  Calls between the package's
own modules go through those module globals, so the wrappers see the
package's internal traffic as well as the benchmark's calls, with no
edit to the package.  A hook whose function no longer exists is
reported in `missing` and its metrics read 0.

A traced child runs in one of two passes:

* ``time``: span wrappers on the layer functions of `SPAN_HOOKS`.  Each
  call adds its duration to the function's inclusive time and, minus the
  time of spans nested in it, to its self time.  Calls are recorded as
  spans (name, start, end, parent, run id) in flat arrays, kept in
  memory and written once by `write_spans`.  The two per-term functions
  in `AGGREGATE_ONLY` are timed but not recorded, which would need
  millions of records; their wrapper cost still lands in the self time
  of their callers.
* ``count``: plain counting wrappers on the same functions plus the
  per-term ones of `COUNT_HOOKS`, and the distinct-argument sets of
  `DISTINCT`.  No clock is read, so these per-term wrappers, which would
  inflate self times, never run in the time pass.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

# (metric prefix, defining module, attribute); timed in the time pass
SPAN_HOOKS = (
    ("cli.main", "fansq.cli", "main"),
    ("atlas.scan", "fansq.atlas", "scan"),
    ("atlas.trace_boundary", "fansq.atlas", "trace_boundary"),
    ("optimize.bisect_root", "fansq._optimize", "bisect_root"),
    ("squeeze.coefficients", "fansq.squeeze", "coefficients"),
    ("squeeze.squeeze_parameter", "fansq.squeeze", "squeeze_parameter"),
    ("squeeze.classify_directions", "fansq.squeeze", "classify_directions"),
    ("fanstate.normalization", "fansq.fanstate", "normalization"),
    ("fanstate.moment", "fansq.fanstate", "moment"),
    ("fanstate.nonlinearity_product", "fansq.fanstate", "nonlinearity_product"),
    ("fanstate.nonlinearity_value", "fansq.fanstate", "nonlinearity_value"),
    ("fanstate.fock_coefficients", "fansq.fanstate", "fock_coefficients"),
    ("fockoracle.oracle_vector", "fansq.fockoracle", "oracle_vector"),
    ("fockoracle.moment_oracle", "fansq.fockoracle", "moment_oracle"),
    ("fockoracle.quadrature_moment", "fansq.fockoracle", "quadrature_moment"),
    ("fockoracle.eigen_residual", "fansq.fockoracle", "eigen_residual"),
)
AGGREGATE_ONLY = frozenset({"fanstate.nonlinearity_product", "fanstate.nonlinearity_value"})

# counted in the count pass only
COUNT_HOOKS = (
    # one call per series term visited, zeros at odd indices included
    ("fanstate.series_terms", "fansq.specfun", "interference_factor"),
    ("specfun.log_factorial", "fansq.specfun", "log_factorial"),
    ("specfun.LaguerreTable", "fansq.specfun", "LaguerreTable"),
    ("atlas.crossings", "fansq.atlas", "_refine_crossing"),
)
DISTINCT = frozenset({"squeeze.coefficients", "fanstate.normalization", "fanstate.moment"})

# memo tables read through cache_info() while the package still has them
MEMO_TABLES = (
    ("memo.normalization.entries", "fansq.fanstate", "normalization"),
    ("memo.coefficients.entries", "fansq.squeeze", "coefficients"),
    ("memo.moment.entries", "fansq.fanstate", "_moment_cached"),
)

CLI_SELF = "cli.self_s"  # self time of cli.main: parsing, formatting, writing


def _span_metric_names(prefix: str) -> list[tuple[str, str]]:
    self_name = CLI_SELF if prefix == "cli.main" else f"{prefix}.self_s"
    return [(f"{prefix}.calls", "count"), (f"{prefix}.s", "s"), (self_name, "s")]


# every per-layer metric with its unit, in report order
PER_LAYER: list[tuple[str, str]] = [m for p, _, _ in SPAN_HOOKS for m in _span_metric_names(p)]
PER_LAYER += [(f"{name}.distinct", "count") for name in sorted(DISTINCT)]
PER_LAYER += [
    ("atlas.crossings.attempted", "count"),
    ("atlas.crossings.useful_ratio", "ratio"),
    ("optimize.bisect_root.evals", "count"),
    ("optimize.evals_per_root", "evals/root"),
    ("fanstate.series_terms", "count"),
    ("specfun.log_factorial.calls", "count"),
    ("specfun.LaguerreTable.built", "count"),
    ("fockoracle.oracle_vector.dim_max", "count"),
    ("fockoracle.oracle_vector.dim_sum", "count"),
    ("fockoracle.quadrature_moment.bytes_computed", "B"),
]
PER_LAYER += [(name, "count") for name, _, _ in MEMO_TABLES]
PER_LAYER += [("trace.overhead_s", "s"), ("trace.count_overhead_s", "s")]



def pass_of(name: str) -> str:
    """Which traced child a per-layer metric comes from."""
    if name.startswith("trace."):
        return "traced minus untraced wall_s"
    unit = dict(PER_LAYER)[name]
    return "time pass" if unit == "s" else "count pass"


def _replace_everywhere(original, wrapper) -> None:
    for modname, module in list(sys.modules.items()):
        if modname != "fansq" and not modname.startswith("fansq."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _argument_key(fn):
    """Key of a call's arguments with defaults filled in."""
    sig = inspect.signature(fn)

    def key(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return tuple(bound.arguments.values())

    return key


class Tracer:
    """Counters, timers and span records of one traced child."""

    def __init__(self, mode: str) -> None:
        if mode not in ("time", "count"):
            raise ValueError(f"unknown trace mode {mode!r}")
        self.mode = mode
        self.run_id = 0
        self.calls: dict[str, int] = {}
        self.inclusive: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.seen: dict[str, set] = {name: set() for name in DISTINCT}
        self.extra = {
            "optimize.bisect_root.evals": 0,
            "atlas.crossings.useful": 0,
            "fockoracle.oracle_vector.dim_max": 0,
            "fockoracle.oracle_vector.dim_sum": 0,
            "fockoracle.quadrature_moment.bytes_computed": 0,
        }
        self.missing: list[str] = []
        self._originals: dict[tuple[str, str], object] = {}
        # span records, one entry per recorded call
        self.names: list[str] = []
        self.sp_id = array("q")
        self.sp_name = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.sp_parent = array("q")
        self.sp_run = array("q")
        self._next_id = 0
        self._open = [-1]  # ids of recorded spans still open
        self._child = []  # time of finished child spans, per open span

    # -- hook side effects -------------------------------------------------

    def _count_evals(self, args):
        f = args[0]
        extra = self.extra

        def counted(x):
            extra["optimize.bisect_root.evals"] += 1
            return f(x)

        return (counted,) + tuple(args[1:])

    def _after(self, prefix):
        extra = self.extra
        if prefix == "atlas.crossings":
            def after(result, args):
                extra["atlas.crossings.useful"] += result is not None
        elif prefix == "fockoracle.oracle_vector":
            def after(result, args):
                extra["fockoracle.oracle_vector.dim_sum"] += result.dim
                extra["fockoracle.oracle_vector.dim_max"] = max(
                    extra["fockoracle.oracle_vector.dim_max"], result.dim
                )
        elif prefix == "fockoracle.quadrature_moment":
            def after(result, args):
                # one complex128 state vector per application of X_phi
                v, N = args[0], args[2]
                extra["fockoracle.quadrature_moment.bytes_computed"] += (N + 1) * 16 * v.dim
        else:
            after = None
        return after

    # -- wrappers ----------------------------------------------------------

    def _counting(self, prefix, fn):
        calls = self.calls
        calls[prefix] = 0
        before = self._count_evals if prefix == "optimize.bisect_root" else None
        after = self._after(prefix)
        seen = self.seen.get(prefix)
        key = _argument_key(fn) if seen is not None else None

        def wrapper(*args, **kwargs):
            calls[prefix] += 1
            if seen is not None:
                seen.add(key(args, kwargs))
            if before is not None:
                args = before(args)
            result = fn(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def _timing(self, prefix, fn):
        calls, inclusive, self_time = self.calls, self.inclusive, self.self_time
        calls[prefix] = 0
        inclusive[prefix] = 0.0
        self_time[prefix] = 0.0
        before = self._count_evals if prefix == "optimize.bisect_root" else None
        record = prefix not in AGGREGATE_ONLY
        code = len(self.names)
        self.names.append(prefix)
        child, opened = self._child, self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[prefix] += 1
            if before is not None:
                args = before(args)
            if record:
                sid = self._next_id
                self._next_id = sid + 1
                parent = opened[-1]
                opened.append(sid)
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                inner = child.pop()
                if child:
                    child[-1] += dur
                inclusive[prefix] += dur
                self_time[prefix] += dur - inner
                if record:
                    opened.pop()
                    self.sp_id.append(sid)
                    self.sp_name.append(code)
                    self.sp_start.append(t0)
                    self.sp_end.append(t1)
                    self.sp_parent.append(parent)
                    self.sp_run.append(self.run_id)

        return wrapper

    # -- lifecycle ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every hooked function; import all package modules first."""
        import fansq.cli  # noqa: F401  (cli is not imported by the package)

        hooks = list(SPAN_HOOKS)
        if self.mode == "count":
            hooks += COUNT_HOOKS
        for prefix, modname, attr in hooks:
            original = getattr(sys.modules[modname], attr, None)
            if original is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            self._originals[(modname, attr)] = original
            if self.mode == "time":
                wrapper = self._timing(prefix, original)
            else:
                wrapper = self._counting(prefix, original)
            _replace_everywhere(original, wrapper)

    def memo_entries(self) -> dict[str, int]:
        out = {}
        for name, modname, attr in MEMO_TABLES:
            fn = self._originals.get((modname, attr))
            if fn is None:
                fn = getattr(sys.modules[modname], attr, None)
            info = getattr(fn, "cache_info", None)
            out[name] = info().currsize if info is not None else 0
        return out

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "s": dict(self.inclusive),
            "self_s": dict(self.self_time),
            "distinct": {name: len(s) for name, s in self.seen.items()},
            "extra": dict(self.extra),
            "memo": self.memo_entries(),
            "missing": list(self.missing),
            "spans": len(self.sp_id),
        }

    def write_spans(self, path: str) -> None:
        """Write the recorded spans as CSV, one line per span."""
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent,run\n")
            for i in range(len(self.sp_id)):
                fh.write(
                    f"{self.sp_id[i]},{self.names[self.sp_name[i]]},{self.sp_start[i]!r},"
                    f"{self.sp_end[i]!r},{self.sp_parent[i]},{self.sp_run[i]}\n"
                )


def layer_metrics(timed: dict, counted: dict, wall: dict) -> dict[str, float]:
    """Per-layer metrics from the two pass summaries.

    `wall` holds the body wall time of the untraced, time-pass and
    count-pass children under the keys "plain", "time" and "count".
    """
    calls = counted["calls"]
    extra = counted["extra"]
    out: dict[str, float] = {}
    for prefix, _, _ in SPAN_HOOKS:
        (n_calls, _), (n_s, _), (n_self, _) = _span_metric_names(prefix)
        out[n_calls] = calls.get(prefix, 0)
        out[n_s] = timed["s"].get(prefix, 0.0)
        out[n_self] = timed["self_s"].get(prefix, 0.0)
    for name in sorted(DISTINCT):
        out[f"{name}.distinct"] = counted["distinct"].get(name, 0)
    attempted = calls.get("atlas.crossings", 0)
    roots = calls.get("optimize.bisect_root", 0)
    evals = extra["optimize.bisect_root.evals"]
    out["atlas.crossings.attempted"] = attempted
    out["atlas.crossings.useful_ratio"] = (
        extra["atlas.crossings.useful"] / attempted if attempted else 0.0
    )
    out["optimize.bisect_root.evals"] = evals
    out["optimize.evals_per_root"] = evals / roots if roots else 0.0
    out["fanstate.series_terms"] = calls.get("fanstate.series_terms", 0)
    out["specfun.log_factorial.calls"] = calls.get("specfun.log_factorial", 0)
    out["specfun.LaguerreTable.built"] = calls.get("specfun.LaguerreTable", 0)
    for name in (
        "fockoracle.oracle_vector.dim_max",
        "fockoracle.oracle_vector.dim_sum",
        "fockoracle.quadrature_moment.bytes_computed",
    ):
        out[name] = extra[name]
    out.update(counted["memo"])
    out["trace.overhead_s"] = wall["time"] - wall["plain"]
    out["trace.count_overhead_s"] = wall["count"] - wall["plain"]
    return out
