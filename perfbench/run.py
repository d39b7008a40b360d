"""The leopoldt benchmark.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Runs one workload (sweep, oracle, algebra or criterion; see workloads.py)
from the root of a source checkout.  `leopoldt` is imported from `src/`,
never from an installed copy.

Every timed pass runs in a fresh worker process, as a CLI invocation
does: the worker imports `leopoldt`, builds the workload's inputs from the
seed, empties `leopoldt`'s lru_caches, times each entry-point call and
checks every output against `answer_key`, which uses nothing from
`leopoldt`.  Passes are started one after another while the next one is
expected to end within `--seconds`, each after a worker that only sets
up.  `setup_s` is the median time from starting a worker to the end of its
set-up, over every worker of the run, so the samples are spread over it.

Each call's latency is the fastest of its passes.  The program is
single-threaded and deterministic, so a slower repeat of the same cold call
is time taken by other tenants of a shared host (their use of the shared
cache slows the mid-sized ring calls by up to a quarter), not by the
program.  `call_p50_ms` and `call_tail_ms` are percentiles over the calls
of these per-call latencies, and `items_per_s` is the items of one pass
over their sum.

With `--trace 0` the last line of standard output reports the end-to-end
metrics.  With `--trace 1` untraced passes fill half of `--seconds`, then
one traced worker gives the per-layer metrics (see tracing.py) and writes
its spans to perfbench/out/.  The line before the last one holds
provenance and per-pass details.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_SAMPLES = 9
TAIL_CALLS_BEYOND = 10
WORKER_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


# -- worker side ----------------------------------------------------------------


def load_leopoldt():
    """Import `leopoldt` from the checkout's src/ or exit without a result."""
    sys.path.insert(0, str(SRC))
    import leopoldt

    if not Path(leopoldt.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: leopoldt was imported from {leopoldt.__file__}, not {SRC}")
    return leopoldt


def lru_caches() -> list:
    """Every functools.lru_cache in the loaded leopoldt modules."""
    seen = {}
    for key, module in list(sys.modules.items()):
        if key == "leopoldt" or key.startswith("leopoldt."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    seen[id(value)] = value
    return list(seen.values())


@dataclass
class Pass:
    latencies: list[float] = field(default_factory=list)
    items: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    errors: dict[str, int] = field(default_factory=dict)
    probe_attempted: int = 0
    probe_failed: int = 0
    probe_seconds: float = 0.0

    @property
    def seconds(self) -> float:
        return sum(self.latencies)


def _attempt(call, tracer, call_id):
    """Time one entry-point call; return (seconds, problems, exception name)."""
    if tracer is not None:
        tracer.call_id = call_id
    t0 = perf_counter()
    try:
        result = call.invoke()
    except Exception as exc:  # any exception is a failed call, never a crash
        return (perf_counter() - t0, [f"{call.label}: {type(exc).__name__}: {exc}"],
                type(exc).__name__)
    seconds = perf_counter() - t0
    try:
        return seconds, call.verify(result), None
    except Exception as exc:  # a result the checks cannot read is wrong
        return seconds, [f"{call.label}: unreadable result: {exc!r}"], None


def run_pass(calls, probes, caches, tracer=None) -> Pass:
    for cache in caches:
        cache.cache_clear()
    gc.collect()
    out = Pass()
    for i, call in enumerate(calls):
        seconds, problems, error = _attempt(call, tracer, i)
        out.latencies.append(seconds)
        if problems:
            out.failed += 1
            out.problems.extend(problems)
            if error:
                out.errors[error] = out.errors.get(error, 0) + 1
        else:
            out.items += call.items
    # Refusal probes are attempted calls that fail when they raise; they stay
    # out of the timings and the item count.
    for j, probe in enumerate(probes):
        seconds, problems, error = _attempt(probe, tracer, f"probe {j}")
        out.probe_seconds += seconds
        out.probe_attempted += 1
        if error:
            out.probe_failed += 1
            out.errors[error] = out.errors.get(error, 0) + 1
        elif problems:
            out.probe_failed += 1
            out.problems.extend(problems)
    return out


def worker(workload, seed: int, role: str) -> dict:
    """One process: set up, then (unless role is "setup") one timed pass."""
    leopoldt = load_leopoldt()
    import numpy
    from answer_key import AnswerKey
    from tracing import Tracer

    caches = lru_caches()
    kappa_table = leopoldt.padic.kappa_exponent_table
    tracer = Tracer() if role == "traced" else None
    if tracer:
        tracer.install()
    t0 = perf_counter()
    inputs = workload.setup(seed)
    setup_seconds = perf_counter() - t0
    out = {"setup_end": time.time()}
    if role == "setup":
        return out
    key = AnswerKey()
    calls = workload.calls(inputs, key)
    result = run_pass(calls, workload.probes(inputs, key), caches, tracer)
    out.update(asdict(result), seconds=result.seconds, numpy=numpy.__version__,
               grid=workload.grid(inputs),
               rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer:
        tracer.uninstall()
        layer = tracer.metrics(setup_seconds + result.seconds + result.probe_seconds,
                               kappa_table.cache_info())
        out["layer"] = layer
        out["problems"] += workload.trace_problems(layer, result.items)
        tracer.write(OUT / f"trace-{workload.name}.json")
    return out


# -- parent side ----------------------------------------------------------------


def spawn(args, role: str) -> dict:
    """Run a worker process; its set-up time counts from the process start."""
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--worker", role],
        cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"error: {role} worker failed:\n{proc.stderr.strip()}")
    doc = json.loads(proc.stdout.splitlines()[-1])
    doc["setup_s"] = doc.pop("setup_end") - t0
    return doc


def run_passes(args, budget: float) -> tuple[list[dict], list[float]]:
    passes, setup = [], []
    start = perf_counter()
    while True:
        setup.append(spawn(args, "setup")["setup_s"])
        passes.append(spawn(args, "pass"))
        setup.append(passes[-1]["setup_s"])
        elapsed = perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > budget:
            return passes, setup


def end_to_end(passes: list[dict], setup: list[float]) -> tuple[dict, dict]:
    # Each call's latency is its fastest pass (see the module docstring), and
    # the percentiles are taken over these per-call latencies, so the tail
    # percentile is fixed.
    n_calls = len(passes[0]["latencies"])
    if n_calls <= TAIL_CALLS_BEYOND:
        raise ValueError(f"{n_calls} calls leave no tail percentile")
    per_call = sorted(min(p["latencies"][i] for p in passes) for i in range(n_calls))
    rank = n_calls - TAIL_CALLS_BEYOND
    attempted = sum(n_calls + p["probe_attempted"] for p in passes)
    failed = sum(p["failed"] + p["probe_failed"] for p in passes)
    rates = [p["items"] / p["seconds"] for p in passes]
    values = {
        "setup_s": statistics.median(setup),
        "items_per_s": statistics.median(p["items"] for p in passes) / sum(per_call),
        "call_p50_ms": statistics.median(per_call) * 1e3,
        "call_tail_ms": per_call[rank - 1] * 1e3,
        "ok_frac": 1 - failed / attempted,
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    detail = {
        "tail_percentile": round(100 * rank / n_calls, 2),
        "tail_calls": n_calls,
        "attempted_with_probes": attempted,
        "failed_with_probes": failed,
        "pass_items_per_s": rates,
        # Every pass starts cold, so the first two passes should agree.
        "second_over_first": rates[1] / rates[0] if len(rates) > 1 else None,
        "setup_samples_s": setup,
    }
    return values, detail


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(args, numpy_version: str) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
    }


def declared_metrics(kind: str) -> list[str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", choices=("setup", "pass", "traced"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "leopoldt" / "__init__.py").is_file():
        sys.exit(f"error: no leopoldt sources under {SRC}")
    workload = WORKLOADS[args.workload]
    if args.worker:
        print(json.dumps(worker(workload, args.seed, args.worker)))
        return 0

    from tracing import per_layer_units

    passes, setup = run_passes(args, args.seconds / 2 if args.trace else args.seconds)
    setup += [spawn(args, "setup")["setup_s"]
              for _ in range(SETUP_SAMPLES - len(setup))]
    values, detail = end_to_end(passes, setup)
    units, kind = END_TO_END_UNITS, "end_to_end"
    if args.trace:
        traced = spawn(args, "traced")
        traced["layer"]["trace.overhead_frac"] = (
            1 - traced["items"] / traced["seconds"]
            / statistics.median(detail["pass_items_per_s"]))
        values, units, kind = traced["layer"], per_layer_units(), "per_layer"
        passes.append(traced)

    declared = declared_metrics(kind)
    if set(declared) != set(values) or set(units) != set(values):
        sys.exit(f"error: reported {kind} metrics differ from BENCHMARK.json")
    problems = [x for p in passes for x in p["problems"]]
    first = passes[0]
    detail.update({
        "provenance": provenance(args, first["numpy"]),
        "grid": first["grid"],
        "passes": len(passes),
        "calls_per_pass": len(first["latencies"]),
        "items_per_pass": [p["items"] for p in passes],
        "probes_per_pass": first["probe_attempted"],
        "exceptions": dict(sum((Counter(p["errors"]) for p in passes), Counter())),
        "problems": problems[:20],
    })
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": sum(len(p["latencies"]) for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
