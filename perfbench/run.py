"""The request-level benchmark: three workloads through the real job entry points.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload cold_families --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload exec_towers --seed 1 --seconds 30 --trace 1

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, measured with no tracing installed; ``--trace 1``
is the separate traced run and reports the per-layer metrics.  The exit
code is 0 only when every job matched its reference (and, traced, the
deterministic counts repeated exactly).  A longer record of the run (seed,
held-out seed, sample counts, failures, count totals, the "explains the
time" checks) is written to ``.perfbench-out/<workload>-seed<N>-trace<T>.json``
and the spans of the last traced run to ``.perfbench-out/spans-<workload>.json``.

The held-out seed is ``inputs.HELD_OUT_SEED`` (9176).  No tuning used it;
re-run a claimed gain with ``--seed 9176`` before believing it.  The fast
self-tests run a smoke-size pass of every workload::

    python3 -m pytest -q perfbench/selftest.py

How a run is made
-----------------
Inputs are generated from ``--seed`` (``inputs.py``) and every reference
answer is computed (``reference.py``) before any timing.  ``setup_s`` is
the median of several fresh processes (``measure.py setup``), each timed
from process start to ready: ``repro`` imported, a Session up and one
``stats`` job answered.  The measured loop then runs in one more fresh
process (``measure.py run``), which receives only the job specs.  Every
loop is closed: one caller sends its next job when the previous result
is in, through ``Session.execute``.  Each stream repeats blocks that hold
the same jobs in a seeded order, and the loop runs whole blocks only, so
every seed and every run times the same mix of jobs.

Workloads
---------
``cold_families`` — solo, one fresh ``Session`` per job, one caller.
    Shuffled blocks of ``run`` and ``compile`` jobs over ``nested_lambdas``
    (depth 16, 24, 32, 40), ``wide_capture`` closed over its context
    (every width 2-6), ``church_sum`` and ``pair_tower`` (4, 8, 12, 16):
    34 jobs a block, the seed orders them.  Sizes are fixed points of each
    range because a job's cost is steep in its size (~50 ms at depth 16,
    ~700 ms at depth 40): sizes drawn per seed moved throughput by more
    than the benchmark's bound between seeds.
    Why: no cache is ever warm, so CC-CC verification and closure
    conversion dominate while service, wire and backend do nothing.  It
    is the no-repeat control for caching work, and the widest captures
    stay in so that their exponential verify cost shows in p95.
``warm_builds`` — two ``build_stream`` component builds (two iterations
    of a ``reset`` and five passes over a 128-program gen corpus of
    depth-2 terms, taken at evenly spaced size ranks of a 512-program
    seeded pool, whose kinds rotate normalize, check, compile_py,
    compile, normalize, check, compile_py, run), one on the text
    wire and one on the binary wire, interleaved, one Session per build,
    both sharing a fresh persistent memo store.
    Why: small repeated jobs dominated by overhead: ingest, kernel caches
    and the persist tier.  Resets make the caches take fills beside reads.
    A block is one round of both builds.  Warm normalize/check/compile_py
    hits are 60% of the jobs, so the median is one of them, not a value
    in the gap between those hits and the fills (see ``inputs.py``).
    The only workload that exercises wire and, in its traced run, service.
    The traced run first serves the same streams over one connection to an
    in-process ``serve_background`` endpoint with a fixed pool of 2 workers
    (each build keeps one job in flight) for the ``service.*`` numbers.
    The end-to-end metrics are measured solo because the served path is
    not steady on a 2-CPU host: throughput of one seed moved by 30-50%
    from run to run, beyond any bound the benchmark may set.
``exec_towers`` — solo, one long-lived ``Session``, one caller: machine
    ``run`` and ``compile_py`` jobs over every ``bool_flip_tower`` (8-13)
    and ``church_sum`` (8-16), each program once as ``run`` and three times
    as ``compile_py`` per shuffled block (so the median job is a warm
    ``compile_py``, not a straddle of the two backends).
    Why: execution dominates and verification is small; repeats expose the
    warm-path asymmetry (``compile_py`` hits its artifact cache, a machine
    ``run`` recompiles everything).

Correctness
-----------
Family results are checked against hand-written values and types
(``reference.EXPECTED_VALUE``); generated warm_builds jobs of kind
normalize/run/compile_py against ``normalize_subst`` on the source; every
warm_builds payload (served or solo) must be byte-identical to a separate
replay.  Any
mismatch, error document, dead letter or exhausted refusal counts as a
failed job and makes the exit code non-zero.

End-to-end metrics (``--trace 0``)
----------------------------------
``setup_s``          median seconds from a fresh process to ready.
``jobs_per_s``       jobs completed with a correct result per wall second,
                     over the whole blocks of the run.
``latency_p50_ms``   per-job wall time of the call into ``Session.execute``.
``latency_p95_ms``   A run takes at least 200 jobs and ends at the end of a
                     block (past ``--seconds`` if need be), so at least ten
                     lie beyond p95; the record holds the sample count and
                     the number beyond p95.
``ok_frac``          correct jobs / jobs attempted, i.e. 1 - failed_frac
                     (reported as its complement so that it is never 0).
``peak_rss_mb``      peak RSS of the measured process.

Per-layer metrics (``--trace 1``), and what each should move
--------------------------------------------------------------
The traced run wraps each layer's public function where the pipeline
looks it up (``spans.py``) and attributes each job's ``Session.execute``
span to layers by self time.  A time metric ``<layer>_ms`` is the median
per-job self time over the jobs that entered the layer, ``<layer>_ms_p95``
its p95, ``<layer>_share`` the layer's share of all traced job time.
Counts are totals over the first block of the stream (one full round of
the builds), and must repeat exactly in a second pass.

================================  ==========================================
metric                            should move (workload)
================================  ==========================================
surface.parse_ms, surface.nodes   latency_p50_ms (warm_builds, text wire);
                                  near zero elsewhere
wire.decode_ms, wire.encode_ms,   latency_p50_ms, jobs_per_s
wire.bytes, wire.persist_hit_     (warm_builds: binary wire, store)
ratio
kernel.intern_ms, kernel.memo_    jobs_per_s (warm_builds, exec_towers);
hit_ratio, kernel.judgment_hit_   few hits on cold_families;
ratio, kernel.cache_entries       cache_entries moves peak_rss_mb everywhere
cc.check_ms, cc.normalize_ms,     latency_p50_ms (warm_builds)
cc.fuel, cc.render_ms
closconv.translate_ms,            latency_p50_ms (cold_families)
closconv.target_nodes
cccc.verify_ms, cccc.verify_      latency_p95_ms, jobs_per_s (cold_families);
fuel, cccc.render_ms              small on exec_towers
machine.hoist_ms, machine.code_   jobs_per_s (exec_towers)
blocks, machine.exec_ms,
machine.steps
backend.stage_ms, backend.load_   latency_p50_ms (exec_towers)
ms, backend.exec_ms,
backend.artifact_hit_ratio
service.exec_ms, service.wait_    the served path (warm_builds, traced run:
ms, service.retries, service.     worker-reported exec time, the client's
busy_frac                         latency minus it, shed retries, exec time
                                  over 2 workers x wall time).  Solo
                                  workloads report the executor's own time,
                                  the rest of the call, and one worker.
api.self_ms                       latency_p50_ms (all workloads)
trace.overhead_ratio              traced / untraced jobs_per_s over the
                                  same jobs, both solo
================================  ==========================================

Hit ratios are hits / (hits + entries added): kernel ones from each job's
``meta.cache_hits`` and ``Session.cache_stats``, the artifact one from
``load_artifact`` hits against ``compile_program`` fills, and the persist
one from the store counters (for warm_builds, the served pool's).  For
warm_builds the ``service.*`` numbers and ``wire.persist_hit_ratio`` come
from the served phase; every other layer comes from a solo traced replay
of the same streams through the same executor.  A layer that does not run
on a workload reads 0.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from measure import percentile
from spans import DETERMINISTIC_COUNTS, LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("cold_families", "warm_builds", "exec_towers")

#: Fresh processes timed per run for setup_s.
SETUP_SAMPLES = 7
#: A run must finish within this many seconds, whatever --seconds says.
RUN_DEADLINE = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    *(
        metric
        for layer in LAYERS
        for metric in (
            (f"{layer}_ms", "ms"),
            (f"{layer}_ms_p95", "ms"),
            (f"{layer}_share", "frac"),
        )
    ),
    ("surface.nodes", "count"),
    ("wire.bytes", "bytes"),
    ("wire.persist_hit_ratio", "ratio"),
    ("kernel.memo_hit_ratio", "ratio"),
    ("kernel.judgment_hit_ratio", "ratio"),
    ("kernel.cache_entries", "count"),
    ("cc.fuel", "steps"),
    ("closconv.target_nodes", "count"),
    ("cccc.verify_fuel", "steps"),
    ("machine.code_blocks", "count"),
    ("machine.steps", "steps"),
    ("backend.artifact_hit_ratio", "ratio"),
    ("service.exec_ms", "ms"),
    ("service.exec_ms_p95", "ms"),
    ("service.wait_ms", "ms"),
    ("service.wait_ms_p95", "ms"),
    ("service.retries", "count"),
    ("service.busy_frac", "frac"),
    ("trace.overhead_ratio", "ratio"),
)


class Failed(Exception):
    """The run could not produce a result."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _spawn(args: list[str], deadline: float) -> tuple[float, subprocess.Popen]:
    """Start ``measure.py`` and wait for its ``ready`` line.

    Returns the seconds from spawning the process to ready, and the process.
    """
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "measure.py"), *args],
        stdout=subprocess.PIPE,
        env=_child_env(),
        cwd=ROOT,
        text=True,
    )
    try:
        line = process.stdout.readline()
    except BaseException:
        _stop(process)
        raise
    ready = time.perf_counter() - started
    if line.strip() != "ready":
        _finish(process, deadline)
        raise Failed(f"measure.py {args[0]} did not become ready (exit {process.returncode})")
    return ready, process


def _stop(process: subprocess.Popen) -> None:
    """Terminate a child (it drains its pool on SIGTERM) and wait for it."""
    process.terminate()
    try:
        process.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()


def _finish(process: subprocess.Popen, deadline: float) -> None:
    """Wait for the process to exit, stopping it past the deadline."""
    try:
        process.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        _stop(process)
        raise Failed("measure.py ran past the run deadline") from None
    except BaseException:
        _stop(process)
        raise
    if process.returncode != 0:
        raise Failed(f"measure.py exited with code {process.returncode}")


def measure_setup(workdir: Path, deadline: float) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        ready, process = _spawn(["setup", "--workdir", str(workdir)], deadline)
        _finish(process, deadline)
        samples.append(ready)
    return samples


def measure_run(child_input: dict, args: argparse.Namespace, workdir: Path, deadline: float) -> dict:
    input_path, output_path = workdir / "input.json", workdir / "output.json"
    input_path.write_text(json.dumps(child_input), encoding="utf-8")
    _, process = _spawn(
        [
            "run", "--input", str(input_path), "--output", str(output_path),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", str(workdir),
        ],
        deadline,
    )
    _finish(process, deadline)
    return json.loads(output_path.read_text(encoding="utf-8"))


def _key(raw: Any) -> Any:
    return tuple(raw) if isinstance(raw, list) else raw


def check_records(checker: Any, records: list[list]) -> list[str]:
    """Reasons for every record that fails its reference (empty: all good)."""
    failures = []
    for key, _latency, ok, fields, error, _exec in records:
        reason = checker.check(_key(key), ok, fields, error)
        if reason is not None:
            failures.append(f"{key}: {reason}")
    return failures


def end_to_end(out: dict, setup: list[float], failures: int) -> tuple[dict[str, float], dict]:
    records = out["records"]
    latencies = [1000 * record[1] for record in records]
    p95 = percentile(latencies, 0.95)
    metrics = {
        "setup_s": statistics.median(setup),
        "jobs_per_s": (len(records) - failures) / out["wall"],
        "latency_p50_ms": statistics.median(latencies),
        "latency_p95_ms": p95,
        "ok_frac": (len(records) - failures) / len(records),
        "peak_rss_mb": out["peak_rss_mb"],
    }
    record = {
        "samples": len(latencies),
        "beyond_p95": sum(1 for value in latencies if value > p95),
        "setup_samples": setup,
        "wall_s": out["wall"],
    }
    return metrics, record


def per_layer(out: dict) -> tuple[dict[str, float], dict, list[str]]:
    trace = out["trace"]
    counts, repeat = trace["counts"], trace["repeat_counts"]
    metrics = dict(trace["metrics"])
    metrics.update(out["service"])
    metrics["wire.persist_hit_ratio"] = out["wire.persist_hit_ratio"]
    for name in DETERMINISTIC_COUNTS:
        metrics[name] = counts.get(name, 0)
    hits, fills = counts.get("backend.artifact_hits", 0), counts.get("backend.artifact_fills", 0)
    metrics["backend.artifact_hit_ratio"] = hits / (hits + fills) if hits + fills else 0.0
    problems = []
    if counts != repeat:
        differing = sorted(n for n in set(counts) | set(repeat) if counts.get(n) != repeat.get(n))
        problems.append(f"deterministic counts differ between two passes: {differing}")
    if trace["balance_error_s"] > 1e-6:
        problems.append(f"layer self times do not add up to the job span ({trace['balance_error_s']} s)")
    shares = {layer: metrics[f"{layer}_share"] for layer in LAYERS}
    exec_share = shares["machine.exec"] + shares["backend.exec"]
    record = {
        "counts": counts,
        "largest_share": max(shares, key=shares.get),
        "verify_share_is_largest": shares["cccc.verify"] == max(shares.values()),
        "exec_share_is_largest": all(
            exec_share >= value for layer, value in shares.items()
            if layer not in ("machine.exec", "backend.exec")
        ),
        "balance_error_s": trace["balance_error_s"],
    }
    return metrics, record, problems


def child_input(generated: dict) -> dict:
    """Only the job specs: the measured process never sees references."""
    keys = ("mode", "builds") if generated["mode"] == "builds" else ("mode", "stream")
    return {**{key: generated[key] for key in keys}, "block": generated["block"]}


def run(args: argparse.Namespace) -> tuple[dict, dict]:
    deadline = time.perf_counter() + RUN_DEADLINE
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    import inputs
    import reference

    generated = inputs.generate(args.workload, args.seed)
    checker = reference.Checker(generated)
    outdir = ROOT / ".perfbench-out"
    workdir = outdir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup = []
        if not args.trace:
            setup = measure_setup(workdir, deadline)
        out = measure_run(child_input(generated), args, workdir, deadline)
        if args.trace:
            shutil.copyfile(workdir / "spans.json", outdir / f"spans-{args.workload}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = check_records(checker, out["records"])
    records = out["records"]
    if args.trace:
        records = records + out["trace"]["records"]
        failures += check_records(checker, out["trace"]["records"])
    record: dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": inputs.HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    if args.trace:
        metrics, detail, problems = per_layer(out)
        units = dict(PER_LAYER)
    else:
        metrics, detail = end_to_end(out, setup, len(failures))
        problems = []
        units = dict(END_TO_END)
    record.update(detail)
    record["failures"] = failures[:50]
    record["problems"] = problems
    result = {
        "correct": not failures and not problems,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record["result"] = result
    path = outdir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Request-level benchmark (see module docstring).")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops and waits for its measured process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result, record = run(args)
    except Failed as failure:
        print(f"error: {failure}", file=sys.stderr)
        return 1
    for line in record["failures"] + record["problems"]:
        print(f"failure: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
