"""Benchmark of fansq: the `scan`, `boundary` and `oracle` workloads.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`, not installed.  Each repetition is a fresh child interpreter,
one at a time, with `PYTHONPATH=src`, `FANSQ_THREADS` unset and
`SOURCE_DATE_EPOCH` fixed, because the package keeps process-wide memo
tables that a second run in one process would hit.

`--trace 0` repeats the workload for about `--seconds` seconds and
reports the end-to-end metrics: CPU times put at the machine's full
speed, and medians of memory.  Wall-clock medians are printed too, but not gated.
`--trace 1` runs the workload once untraced and once in each pass of
`layers.Tracer`, and reports the per-layer metrics.  Outputs are checked
outside the timed region.  Human-readable lines come first; the last
line of standard output is a JSON object with `correct`, `attempted`,
`failed` and `metrics`.  The same record, with the environment, goes to
`.perfbench_out/`.  `--workload all` runs the three workloads in turn.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import inputs
import layers

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")

SETUP_CHILDREN = 6  # import-only children before the first repetition
CHILD_TIMEOUT_S = 170
MAX_NOTED = 20  # failed operations printed; the record has them all
SOURCE_DATE_EPOCH = "1700000000"

# Gated times are CPU times at the full speed of the machine the benchmark
# was built on, medians over the run's children.  On a shared virtual
# machine the host takes the CPU away (steal time) and runs it at a half
# to the whole of its speed, in phases of seconds; each child puts its
# CPU times at full speed by speed samples taken while it ran
# (`speed.Sampler`, see README.md).
END_TO_END = (
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("query_cpu_p50_ms", "ms"),
    ("query_cpu_p95_ms", "ms"),
)
# medians on the wall clock: printed and recorded, not gated
NOT_GATED = (
    ("wall_s", "s"),
    ("setup_wall_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
)


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("FANSQ_THREADS", None)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    env["SOURCE_DATE_EPOCH"] = SOURCE_DATE_EPOCH
    return env


def spawn(job: dict) -> dict:
    """Run one child to completion; add its set-up time and latency."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, CHILD],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=_child_env(),
        timeout=CHILD_TIMEOUT_S,
    )
    t1 = time.perf_counter()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{job['workload']} child ({job['mode']}) exited {proc.returncode}:\n"
            + proc.stderr[-3000:]
        )
    res = json.loads(lines[-1])
    res["setup_wall_s"] = res["setup_end"] - t0
    res["latency_s"] = t1 - t0
    if not 0 < res["setup_wall_s"] < res["latency_s"]:
        raise BenchError(f"child set-up time {res['setup_wall_s']} is not on the parent's clock")
    return res


class Checker:
    """Checks each repetition's output; identical outputs are checked once.

    `attempted` counts each operation of the workload once and `failed`
    each that failed in any repetition, so neither depends on how many
    repetitions a run fits.  The run is correct when every output could
    be read and judged.  Operations that fail their check are counted,
    not hidden: at the seed state some do (see perfbench/README.md).
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.operations: set[str] = set()
        self.failures: dict[str, str] = {}
        self.correct = True
        self.seconds = 0.0  # spent checking
        self._verdicts: dict[str, inputs.Verdict] = {}
        if SRC not in sys.path:
            sys.path.insert(0, SRC)

    @property
    def attempted(self) -> int:
        return len(self.operations)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def add(self, job: dict, res: dict) -> None:
        t0 = time.perf_counter()
        if self.workload == "oracle":
            verdict = inputs.check_queries(job["queries"], res["results"])
        else:
            verdict = self._check_file(job["argv"][-1])
            if res["rc"] != 0:
                verdict = inputs.failing_all(verdict.operations, f"exit code {res['rc']}")
        self.operations.update(verdict.operations)
        for name, why in verdict.failures.items():
            self.failures.setdefault(name, why)
        self.correct = self.correct and verdict.readable
        self.seconds += time.perf_counter() - t0

    def _check_file(self, path: str) -> inputs.Verdict:
        try:
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
        except OSError:
            digest = "missing"
        verdict = self._verdicts.get(digest)
        if verdict is None:
            if self.workload == "scan":
                verdict = inputs.check_scan(path)
            else:
                verdict = inputs.check_boundary(path)
            self._verdicts[digest] = verdict
        return verdict


def _job(workload: str, seed: int, mode: str) -> dict:
    job = {"workload": workload, "mode": mode}
    if mode == "import":
        return job
    if workload == "oracle":
        job["queries"] = inputs.oracle_queries(seed)
    else:
        job["argv"] = [workload, *inputs.GRID_ARGS, "--output", _output(workload)]
    if mode == "time":
        job["spans"] = os.path.join(OUT, f"spans-{workload}-seed{seed}.csv")
    return job


def _output(workload: str) -> str:
    return os.path.join(OUT, f"{workload}.csv")


def _run_child(workload: str, seed: int, mode: str, checker: Checker, sample=False) -> dict:
    out = _output(workload)
    if os.path.exists(out):
        os.remove(out)
    job = _job(workload, seed, mode)
    job["sample"] = sample
    res = spawn(job)
    checker.add(job, res)
    return res


def _percentile(values: list[float], q: int) -> float:
    """The q-th percentile, as `statistics.quantiles(n=100)` places it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def _cpu_steal() -> tuple[int, int] | None:
    """(steal, total) jiffies of the whole machine so far, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields[:8])


def measure(workload: str, seed: int, seconds: float) -> tuple[Checker, dict, dict]:
    """End-to-end metrics over repetitions that fill about `seconds`."""
    start = time.perf_counter()
    steal_start = _cpu_steal()
    checker = Checker(workload)
    spawn(_job(workload, seed, "import"))  # writes bytecode; not counted
    # set-up samples come from every child, with an import-only child
    # before each repetition so that they spread over the run
    children = [spawn(_job(workload, seed, "import")) for _ in range(SETUP_CHILDREN)]
    reps = []
    longest = 0.0
    while not reps or time.perf_counter() - start + longest <= seconds:
        t = time.perf_counter() - checker.seconds
        children.append(spawn(_job(workload, seed, "import")))
        reps.append(_run_child(workload, seed, "plain", checker, sample=True))
        children.append(reps[-1])
        longest = max(longest, time.perf_counter() - checker.seconds - t)
    steal_end = _cpu_steal()

    # each distinct query's CPU time is its median over the repetitions
    if workload == "oracle":
        latencies = [x for r in reps for x in r["latencies"]]
        queries = [statistics.median(times) for times in zip(*(r["query_cpu"] for r in reps))]
    else:  # the one query is the command, from process start to its end
        latencies = [r["latency_s"] for r in reps]
        queries = [statistics.median(r["full_speed_process_cpu_s"] for r in reps)]
    metrics = {
        "cpu_s": statistics.median(r["full_speed_cpu_s"] for r in reps),
        "setup_s": statistics.median(c["full_speed_setup_cpu_s"] for c in children),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "query_cpu_p50_ms": 1e3 * statistics.median(queries),
        "query_cpu_p95_ms": 1e3 * _percentile(queries, 95),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_wall_s": statistics.median(c["setup_wall_s"] for c in children),
        "query_p50_ms": 1e3 * statistics.median(latencies),
        "query_p95_ms": 1e3 * _percentile(latencies, 95),
    }
    info = {
        "repetitions": len(reps),
        "setup_samples": len(children),
        "distinct_queries": len(queries),
        "queries_beyond_cpu_p95": sum(x * 1e3 > metrics["query_cpu_p95_ms"] for x in queries),
        # CPU time at full speed over CPU time as measured, slices included
        "speed": statistics.median(r["full_speed_cpu_s"] for r in reps)
        / statistics.median(r["cpu_s"] for r in reps),
    }
    if steal_start and steal_end and steal_end[1] > steal_start[1]:
        share = (steal_end[0] - steal_start[0]) / (steal_end[1] - steal_start[1])
        info["machine_steal_share"] = round(share, 4)
    return checker, metrics, info


def trace(workload: str, seed: int) -> tuple[Checker, dict, dict]:
    """Per-layer metrics: one untraced child, then one child per pass."""
    checker = Checker(workload)
    spawn(_job(workload, seed, "import"))
    runs = {mode: _run_child(workload, seed, mode, checker) for mode in ("plain", "time", "count")}
    metrics = layers.layer_metrics(
        runs["time"]["trace"],
        runs["count"]["trace"],
        {mode: r["wall_s"] for mode, r in runs.items()},
    )
    info = {
        "spans_recorded": runs["time"]["trace"]["spans"],
        "missing_hooks": sorted(
            set(runs["time"]["trace"]["missing"] + runs["count"]["trace"]["missing"])
        ),
    }
    return checker, metrics, info


def _git_commit() -> str:
    """HEAD of the checkout, read from `.git` without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": _git_commit(),
        "seed": seed,
        "source_date_epoch": SOURCE_DATE_EPOCH,
    }


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    if traced:
        checker, values, info = trace(workload, seed)
        units, extra = layers.PER_LAYER, ()
    else:
        checker, values, info = measure(workload, seed, seconds)
        units, extra = END_TO_END, NOT_GATED
    print(f"== {workload}  seed {seed}  trace {int(traced)}")
    for name, unit in units:
        label = f"  ({layers.pass_of(name)})" if traced else ""
        print(f"{name:48s} {values[name]:.6g} {unit}{label}")
    for name, unit in extra:
        print(f"{name:48s} {values[name]:.6g} {unit}  (not gated)")
    print(
        f"{'failed_share':48s} {checker.failed / checker.attempted:.6g} 1  "
        f"({checker.failed} of {checker.attempted} operations)"
    )
    for key, value in info.items():
        print(f"# {key}: {value}")
    for name in sorted(checker.failures)[:MAX_NOTED]:
        print(f"# failed: {name}: {checker.failures[name]}")
    return {
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
        "not_gated": {name: {"value": values[name], "unit": unit} for name, unit in extra},
        "info": info,
        "failures": [f"{name}: {why}" for name, why in sorted(checker.failures.items())],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*inputs.WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "fansq", "__init__.py")):
        print(f"perfbench: no fansq package under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    workloads = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in workloads}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    env = environment(args.seed)
    print("# environment: " + json.dumps(env, sort_keys=True))
    if len(results) == 1:
        (final,) = results.values()
        final = {key: final[key] for key in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()
            },
        }
    record = {"environment": env, "workloads": results, "trace": args.trace}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
