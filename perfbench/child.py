"""One repetition of a benchmark workload in a fresh interpreter.

Reads a JSON job on stdin and prints one JSON result line.  Set-up ends
when `import fansq` returns.  Its CPU time is the main thread's CPU time
at that point (every CPU time here is read from `speed.cpu_clock`), put
at full speed by the speed samples taken during it (see `speed.py`).
Its wall time is computed by the parent, since both processes read the
same monotonic clock.  Job modes:

* ``import``: stop after the import (set-up samples and bytecode warm-up);
* ``plain``: run the workload body untraced;
* ``time`` / ``count``: run it under one of the two passes of
  `layers.Tracer`.

With ``"sample": true`` a plain run keeps sampling the CPU's speed
while the workload runs, and reports its CPU times at full speed.
"""

import time

import speed

QUERY_MARGIN_S = 0.05  # speed samples this far around a query count for it
SAMPLER = speed.Sampler()
SAMPLER.start()

import fansq  # noqa: E402,F401  (set-up ends when this import returns)

SETUP_END = time.perf_counter()
SETUP_CPU = speed.cpu_clock()

import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from inputs import MAX_POWER  # noqa: E402


def _worst(a: float, b: float) -> float:
    """Larger of two errors; a NaN error wins, so it can never hide."""
    return b if (b > a or b != b) else a


def _one_query(q: dict, fanstate, fockoracle, squeeze) -> dict:
    """The work of `fansq oracle-check` plus `fansq directions` for one state."""
    k = q["k"]
    if q["eta_sq"] is None:
        model = fanstate.Identity()
    else:
        model = fanstate.TrappedIon(eta_sq=q["eta_sq"], quantum_order=2 * k)
    cfg = fanstate.FanConfig.from_xi_sq(k, q["xi_sq"], model)
    orders = (4 * k, 4 * k + 4)
    vec = fockoracle.oracle_vector(cfg, max(orders[-1], 2 * MAX_POWER) + 2)

    moment_rel = moment_abs = 0.0
    for l in range(MAX_POWER + 1):
        for m in range(l + 1):
            series = fanstate.moment(cfg, l, m)
            oracle = fockoracle.moment_oracle(vec, l, m).real
            err = abs(series - oracle)
            if abs(oracle) < 1e-12:
                moment_abs = _worst(moment_abs, err)
            else:
                moment_rel = _worst(moment_rel, err / abs(oracle))

    quadrature_rel = 0.0
    for N in orders:
        coeffs = squeeze.coefficients(cfg, N)
        bench = squeeze.vacuum_benchmark(N)
        for phi in (0.0, math.pi / 8, math.pi / (4 * k)):
            series = squeeze.squeeze_parameter(coeffs, phi) + bench
            oracle = fockoracle.quadrature_moment(vec, phi, N)
            quadrature_rel = _worst(quadrature_rel, abs(series - oracle) / abs(oracle))
        squeeze.classify_directions(coeffs)

    return {
        "moment_rel": moment_rel,
        "moment_abs_at_zero": moment_abs,
        "quadrature_rel": quadrature_rel,
        "residual": fockoracle.eigen_residual(cfg, vec),
        "dim": vec.dim,
    }


def run_queries(job: dict, tracer) -> dict:
    # module attributes are looked up per call, so tracing wrappers apply
    from fansq import errors, fanstate, fockoracle, squeeze

    latencies = []
    spans = []
    results = []
    clock, cpu_clock = time.perf_counter, speed.cpu_clock
    for i, q in enumerate(job["queries"]):
        if tracer is not None:
            tracer.run_id = i
        t0 = clock()
        c0 = cpu_clock()
        try:
            r = _one_query(q, fanstate, fockoracle, squeeze)
        except errors.FansqError as exc:
            r = {"error": f"{type(exc).__name__}: {exc}"}
        spans.append((c0, cpu_clock()))
        latencies.append(clock() - t0)
        results.append(r)
    return {"latencies": latencies, "query_spans": spans, "results": results}


def run_command(job: dict, tracer) -> dict:
    from fansq import cli

    return {"rc": cli.main(job["argv"])}


def main() -> None:
    job = json.load(sys.stdin)
    mode = job["mode"]
    sampled = mode == "plain" and job.get("sample", False)
    if not sampled:
        SAMPLER.stop()
    out = {
        "setup_end": SETUP_END,
        "setup_cpu_s": SETUP_CPU,
        "full_speed_setup_cpu_s": SAMPLER.full_speed_cpu(0.0, SETUP_CPU),
    }
    if mode != "import":
        import fansq.cli  # noqa: F401  (outside both set-up and the body)

        tracer = None
        if mode in ("time", "count"):
            from layers import Tracer

            tracer = Tracer(mode)
            tracer.install()
        body = run_queries if job["workload"] == "oracle" else run_command
        t0 = time.perf_counter()
        c0 = speed.cpu_clock()
        out.update(body(job, tracer))
        c1 = speed.cpu_clock()
        out["wall_s"] = time.perf_counter() - t0
        out["cpu_s"] = c1 - c0
        if sampled:
            SAMPLER.stop()
            out["full_speed_cpu_s"] = SAMPLER.full_speed_cpu(c0, c1)
            out["full_speed_process_cpu_s"] = SAMPLER.full_speed_cpu(0.0, c1)
            out["query_cpu"] = [
                SAMPLER.full_speed_cpu(a, b, QUERY_MARGIN_S) for a, b in out.pop("query_spans", ())
            ]
        if tracer is not None:
            out["trace"] = tracer.summary()
            if job.get("spans"):
                tracer.write_spans(job["spans"])
    out.pop("query_spans", None)
    out["process_cpu_s"] = speed.cpu_clock()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
