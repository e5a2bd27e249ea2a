"""The measured process: set up, run one workload's closed loop, report.

``run.py`` starts this file as a fresh process, so that set-up time and
peak memory belong to the system under test and not to input generation
or reference checking::

    python3 measure.py setup --workdir DIR
    python3 measure.py run --input FILE --output FILE --seconds S --trace 0|1 --workdir DIR

Both print ``ready`` on standard output the moment the system is ready:
``repro`` imported, a Session up and one ``stats`` job answered (for the
served phase of a traced ``warm_builds`` run: the endpoint and its fixed
pool up, and the ``stats`` job answered through it).  ``setup`` exits
there and is what ``setup_s`` times; ``run`` reads its input first, then
sets up, measures, writes the output file and prints ``done``.

Untraced phases run the program exactly as shipped; the tracer
(:mod:`spans`) is imported and installed only for the traced phase of a
``--trace 1`` run, and removed again before anything else runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import resource
import signal
import socket
import statistics
import sys
import time
from typing import Any

#: Fixed pool size of the served phase (elastic scaling pinned).
SERVED_WORKERS = 2

#: Payload fields the reference checker reads; the rest is compared by digest.
CHECKED_FIELDS = ("value", "normal", "verified", "term")

#: The end-to-end loop runs past --seconds until it has this many jobs and
#: has ended a block, so that at least ten samples lie beyond p95 even in a
#: slow stretch and every block it timed is whole.
MIN_SAMPLES = 200

#: Shed retries allowed per job before its refusal counts as the result.
MAX_SHED_RETRIES = 8


def digest(payload: Any) -> str:
    """Canonical digest of a payload, for byte-identity comparisons."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


def _vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return 0.0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus every live child (the pool workers)."""
    total = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for child in multiprocessing.active_children():
        try:
            total += _vm_hwm_mb(child.pid)
        except OSError:
            pass  # exited between listing and reading
    return total


# --------------------------------------------------------------------------
# Set-up.
# --------------------------------------------------------------------------


class LineClient:
    """A minimal NDJSON client: one socket, blocking reads of whole lines."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=120.0)
        self.reader = self.sock.makefile("rb")

    def send(self, document: dict[str, Any]) -> None:
        self.sock.sendall(json.dumps(document).encode("utf-8") + b"\n")

    def read(self) -> dict[str, Any]:
        line = self.reader.readline()
        if not line.endswith(b"\n"):
            raise ConnectionError("endpoint closed the connection")
        return json.loads(line)

    def request(self, document: dict[str, Any]) -> dict[str, Any]:
        """Send one job and read lines until its result arrives."""
        self.send(document)
        while True:
            reply = self.read()
            if reply.get("id") == document["id"]:
                return reply

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def setup_solo() -> Any:
    from repro import api

    session = api.Session(name="bench")
    result = session.execute({"kind": "stats", "id": "setup-stats"})
    if not result.ok:
        raise RuntimeError(f"stats job failed: {result.error}")
    return session


def setup_served(store: str) -> tuple[Any, LineClient]:
    from repro.service.endpoint import serve_background

    server = serve_background(
        min_workers=SERVED_WORKERS, max_workers=SERVED_WORKERS, memo_store=store
    )
    try:
        for slot in range(SERVED_WORKERS):
            if not server.endpoint.dispatcher.ping(slot, timeout=60.0):
                raise RuntimeError(f"pool worker {slot} did not come up")
        client = LineClient(server.host, server.port)
        reply = client.request({"kind": "stats", "id": "setup-stats"})
        if not reply.get("ok"):
            raise RuntimeError(f"stats job failed: {reply}")
    except BaseException:
        server.stop()
        raise
    return server, client


# --------------------------------------------------------------------------
# Closed loops.  A record is [key, latency_s, ok, fields, error, exec_s],
# where ``fields`` holds the checked payload fields and the payload digest
# (reduced as each job completes, so that kept payloads do not add to the
# measured process's memory).
# --------------------------------------------------------------------------


def checked_fields(payload: dict) -> dict:
    """The payload fields the checker reads, plus the whole payload's digest."""
    fields = {name: payload[name] for name in CHECKED_FIELDS if name in payload}
    fields["digest"] = digest(payload)
    return fields


class SoloSource:
    """Which session runs each job of a solo loop, in stream order.

    ``solo_fresh`` gives every job a new Session (every cache cold),
    ``solo_shared`` keeps one long-lived Session, and ``builds`` runs the
    build streams interleaved: one Session per build, as key affinity gives
    each build its own pool worker, sharing one fresh persistent store.
    """

    def __init__(self, generated: dict, store: str, session: Any = None) -> None:
        from repro import api

        self._api = api
        self.mode = generated["mode"]
        self.sessions: list[Any] = []
        if self.mode == "builds":
            from repro.gen.jobs import interleave

            self.builds = generated["builds"]
            self.order = interleave(
                [[(b, i) for i in range(len(stream))] for b, stream in enumerate(self.builds)]
            )
            self.sessions = [api.Session(name=f"build-{b}") for b in range(len(self.builds))]
            for replay in self.sessions:
                replay.attach_memo_store(store)
        else:
            self.stream = generated["stream"]
            self.order = list(range(len(self.stream)))
            if self.mode == "solo_shared":
                self.sessions = [session or api.Session(name="bench")]

    def job(self, position: int) -> tuple[Any, Any, dict]:
        key = self.order[position % len(self.order)]
        if self.mode == "builds":
            return key, self.sessions[key[0]], self.builds[key[0]][key[1]]
        if self.mode == "solo_fresh":
            return key, self._api.Session(), self.stream[key]
        return key, self.sessions[0], self.stream[key]

    def close(self) -> dict[str, Any]:
        """Detach and close the persistent store; its summed counters."""
        counters: dict[str, Any] = {}
        if self.mode != "builds":
            return counters
        for replay in self.sessions:
            tier = replay.detach_memo_store()
            if tier is not None:
                for name, value in tier.store.counters().items():
                    if isinstance(value, int):
                        counters[name] = counters.get(name, 0) + value
                tier.store.close()
        return counters


def solo_loop(
    source: SoloSource, seconds: float | None, traced: Any = None, min_jobs: int = 0, block: int = 0
) -> dict:
    """One caller, one job at a time, until ``seconds`` of wall time pass.

    The loop runs at least ``min_jobs`` jobs; ``seconds=None`` stops right
    after them.  With ``block``, it stops only at the end of a block.  With
    ``traced`` (a :class:`TracedRun`) every job runs under the tracer and
    the deterministic counts of the first ``min_jobs`` jobs are summed.
    """
    records: list[list] = []
    counts: dict[str, int] = {}
    entries = 0
    start = done = time.perf_counter()
    position = 0
    while True:
        key, session, spec = source.job(position)
        sent = time.perf_counter()
        if traced is None:
            result = session.execute(spec)
        else:
            result, job_counts, job_entries = traced.execute(session, spec)
            if position < min_jobs:
                for name, value in job_counts.items():
                    counts[name] = counts.get(name, 0) + value
                entries = max(entries, job_entries)
        done = time.perf_counter()
        records.append(
            [key, done - sent, result.ok, checked_fields(result.payload), result.error,
             result.meta["elapsed_seconds"]]
        )
        position += 1
        at_boundary = not block or position % block == 0
        if position >= min_jobs and at_boundary and (seconds is None or done - start >= seconds):
            break
    return {"records": records, "wall": done - start, "counts": counts, "entries": entries}


def served_loop(client: LineClient, builds: list[list[dict]], seconds: float) -> dict:
    """Each build keeps exactly one job in flight over the one connection.

    A build's next job is sent when its previous result line has been read;
    each pass over a build's stream gets fresh ids (``r<round>-``), since
    the endpoint retains results by id for redelivery.  A shed job is
    resubmitted after a short backoff and counted as a retry.
    """
    records: list[list] = []
    sent_count = [0] * len(builds)
    inflight: dict[str, tuple] = {}
    attempts: dict[str, int] = {}
    retries = 0

    def send(build: int) -> None:
        stream = builds[build]
        index = sent_count[build] % len(stream)
        spec = dict(stream[index])
        spec["id"] = f"r{sent_count[build] // len(stream)}-{spec['id']}"
        sent_count[build] += 1
        inflight[spec["id"]] = (build, index, time.perf_counter(), spec)
        client.send(spec)

    start = done = time.perf_counter()
    for build in range(len(builds)):
        send(build)
    while inflight:
        document = client.read()
        done = time.perf_counter()
        job_id = document.get("id")
        if job_id not in inflight:
            continue  # operational lines carry no job id
        build, index, sent, spec = inflight.pop(job_id)
        error = document.get("error") or {}
        if error.get("shed") and attempts.get(job_id, 0) < MAX_SHED_RETRIES:
            attempts[job_id] = attempts.get(job_id, 0) + 1
            retries += 1
            time.sleep(0.01 * attempts[job_id])
            inflight[job_id] = (build, index, sent, spec)
            client.send(spec)
            continue
        # Endpoint-made documents (refusals, dead letters) carry no exec time.
        exec_s = (document.get("meta") or {}).get("elapsed_seconds", 0.0)
        records.append(
            [(build, index), done - sent, bool(document.get("ok")),
             checked_fields(document.get("payload") or {}), error, exec_s]
        )
        if done - start < seconds:
            send(build)
    return {"records": records, "wall": done - start, "retries": retries}


# --------------------------------------------------------------------------
# The traced phase.
# --------------------------------------------------------------------------


class TracedRun:
    """Executes jobs under the tracer and aggregates per-layer numbers."""

    def __init__(self, tracer: Any) -> None:
        self.tracer = tracer
        self.layer_jobs: dict[str, list[float]] = {}
        self.layer_total: dict[str, float] = {}
        self.job_total = 0.0
        self.kernel = {"memo_hits": 0, "memo_added": 0, "judgment_hits": 0, "judgment_added": 0}
        self.max_balance_error = 0.0

    def execute(self, session: Any, spec: dict) -> tuple[Any, dict[str, int], int]:
        """One traced job: (result, deterministic counts, cache entries after)."""
        from spans import job_self_times

        tracer = self.tracer
        before = session.cache_stats()
        tracer.job = spec["id"]
        first = len(tracer.spans)
        result = session.execute(spec)
        root, selfs = job_self_times(tracer.spans, first)
        counts = tracer.take_counts()
        after = session.cache_stats()
        # Per job, the layer self times plus api.self must cover the root span.
        self.max_balance_error = max(self.max_balance_error, abs(sum(selfs.values()) - root))
        self.job_total += root
        for layer, value in selfs.items():
            self.layer_jobs.setdefault(layer, []).append(value)
            self.layer_total[layer] = self.layer_total.get(layer, 0.0) + value
        hits = result.meta["cache_hits"]
        kernel = self.kernel
        kernel["memo_hits"] += hits.get("kernel.normalization", 0)
        kernel["judgment_hits"] += hits.get("kernel.judgments", 0)
        kernel["memo_added"] += max(0, after["kernel.normalization"] - before["kernel.normalization"])
        kernel["judgment_added"] += max(0, after["kernel.judgments"] - before["kernel.judgments"])
        return result, counts, sum(after.values())


def _ratio(hits: float, added: float) -> float:
    return hits / (hits + added) if hits + added else 0.0


def layer_numbers(traced: TracedRun) -> dict[str, float]:
    """Per-layer time metrics: median and p95 over the jobs that entered the
    layer, and the layer's share of all traced job time."""
    from spans import LAYERS

    metrics: dict[str, float] = {}
    for layer in LAYERS:
        active = [value for value in traced.layer_jobs.get(layer, []) if value > 0]
        metrics[f"{layer}_ms"] = 1000 * statistics.median(active) if active else 0.0
        metrics[f"{layer}_ms_p95"] = 1000 * percentile(active, 0.95) if active else 0.0
        metrics[f"{layer}_share"] = traced.layer_total.get(layer, 0.0) / traced.job_total
    kernel = traced.kernel
    metrics["kernel.memo_hit_ratio"] = _ratio(kernel["memo_hits"], kernel["memo_added"])
    metrics["kernel.judgment_hit_ratio"] = _ratio(kernel["judgment_hits"], kernel["judgment_added"])
    return metrics


def service_numbers(records: list[list], wall: float, workers: int, retries: int) -> dict[str, float]:
    """service.*: the executor-reported exec time against the caller's latency."""
    exec_ms = [1000 * r[5] for r in records]
    wait_ms = [1000 * (r[1] - r[5]) for r in records]
    return {
        "service.exec_ms": statistics.median(exec_ms),
        "service.exec_ms_p95": percentile(exec_ms, 0.95),
        "service.wait_ms": statistics.median(wait_ms),
        "service.wait_ms_p95": percentile(wait_ms, 0.95),
        "service.retries": retries,
        "service.busy_frac": sum(exec_ms) / 1000 / (workers * wall),
    }


# --------------------------------------------------------------------------
# Entry points.
# --------------------------------------------------------------------------


def measure(generated: dict, seconds: float, trace: bool, workdir: str) -> dict[str, Any]:
    """Set up, signal ready, run the phases; returns the output document.

    The end-to-end loop is always solo.  A traced ``warm_builds`` run
    starts with the served phase instead: the build streams over one
    connection to the endpoint, which gives the ``service.*`` numbers.
    """
    served = trace and generated["mode"] == "builds"
    if served:
        server, client = setup_served(os.path.join(workdir, "memo-served.sqlite"))
    else:
        session = setup_solo()
    print("ready", flush=True)

    out: dict[str, Any] = {}
    # A traced run splits its time: half untraced (the served phase, or the
    # solo loop whose rate is the tracing-overhead baseline), half traced.
    main_seconds = seconds / 2 if trace else seconds
    persist: dict[str, Any] = {}
    if served:
        try:
            main = served_loop(client, generated["builds"], main_seconds)
            stats = client.request({"kind": "stats", "id": "final-stats"})
            out["peak_rss_mb"] = peak_rss_mb()
        finally:
            client.close()
            server.stop()
        persist = stats["meta"]["stats"]["pool"].get("persist") or {}
        out["service"] = service_numbers(main["records"], main["wall"], SERVED_WORKERS, main["retries"])
    else:
        source = SoloSource(generated, os.path.join(workdir, "memo-main.sqlite"), session)
        try:
            if trace:
                main = solo_loop(source, main_seconds)
            else:
                main = solo_loop(source, main_seconds, min_jobs=MIN_SAMPLES, block=generated["block"])
        finally:
            persist = source.close()
        out["peak_rss_mb"] = peak_rss_mb()
        out["service"] = service_numbers(main["records"], main["wall"], 1, 0)
    out["wire.persist_hit_ratio"] = _ratio(
        persist.get("hits", 0) + persist.get("artifact_hits", 0),
        persist.get("writes", 0) + persist.get("artifact_writes", 0),
    )
    out["records"] = main["records"]
    out["wall"] = main["wall"]
    if trace:
        out["trace"] = trace_phases(generated, seconds / 2, workdir, main)
    return out


def trace_phases(generated: dict, seconds: float, workdir: str, main: dict) -> dict[str, Any]:
    """The traced loop, then a second traced pass over the first block.

    After a served phase, an untraced solo loop runs first for half the
    phase, so that the overhead ratio compares solo with solo.
    """
    from spans import Tracer

    block = generated["block"]
    plain: dict = {"records": []}
    if generated["mode"] == "builds":
        seconds /= 2
        source = SoloSource(generated, os.path.join(workdir, "memo-plain.sqlite"))
        try:
            plain = solo_loop(source, seconds)
        finally:
            source.close()
        untraced = plain["records"]
    else:
        untraced = main["records"]

    tracer = Tracer()
    tracer.install()
    try:
        passes = []
        for tag, limit in (("traced", seconds), ("repeat", None)):
            traced = TracedRun(tracer)
            source = SoloSource(generated, os.path.join(workdir, f"memo-{tag}.sqlite"))
            try:
                result = solo_loop(source, limit, traced=traced, min_jobs=block)
            finally:
                source.close()
            passes.append((traced, result))
    finally:
        tracer.uninstall()
    tracer.dump(os.path.join(workdir, "spans.json"))
    (first_run, first), (_, second) = passes
    metrics = layer_numbers(first_run)
    metrics["kernel.cache_entries"] = first["entries"]
    # Both loops start from position 0 of the stream in fresh state, so the
    # jobs they share are the same jobs: compare their rates over those.
    shared = min(len(untraced), len(first["records"]))
    metrics["trace.overhead_ratio"] = sum(r[1] for r in untraced[:shared]) / sum(
        r[1] for r in first["records"][:shared]
    )
    return {
        "metrics": metrics,
        "counts": first["counts"],
        "repeat_counts": second["counts"],
        "balance_error_s": first_run.max_balance_error,
        "records": plain["records"] + first["records"] + second["records"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("action", choices=("setup", "run"))
    parser.add_argument("--input")
    parser.add_argument("--output")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    # SIGTERM unwinds through the finally blocks, which drain the pool.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.action == "setup":
        setup_solo()
        print("ready", flush=True)
        return 0
    with open(args.input, encoding="utf-8") as handle:
        generated = json.load(handle)
    out = measure(generated, args.seconds, bool(args.trace), args.workdir)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    print("done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
