"""Seeded input generation for every workload.

One entry point, :func:`generate`, turns ``(workload, seed)`` into the
job streams the measured process executes plus, for each job, the
description the reference checker needs.  Each stream repeats blocks
(``"block"`` jobs each) that hold the same jobs up to order, so a loop
over whole blocks times the same mix of jobs at every seed.  Everything
is a pure function of the seed and is computed before any timing starts;
the measured process receives only the job specs.
"""

from __future__ import annotations

import random
from typing import Any

from repro.gen.generator import GenConfig
from repro.gen.jobs import binary_specs, build_stream, close_over, job_corpus
from repro.surface import to_surface

import workloads

#: The held-out seed: never used while the benchmark was tuned, so a
#: claimed gain can be re-checked on it (``--seed 9176``).
HELD_OUT_SEED = 9176

#: cold_families: the jobs of one block.  Every block holds the same
#: multiset -- each family at fixed points across its range, every
#: wide_capture width, each as a ``run`` and a ``compile`` job -- and the
#: seed orders it.  Sizes drawn per seed made throughput differ by up to a
#: third between seeds (nested_lambdas costs ~18 ms at depth 10 and
#: ~750 ms at depth 40), more than the benchmark's bound.
#: wide_capture(6) and nested_lambdas(40) are a ninth of the jobs, so p95
#: lies inside that cluster rather than on its edge; the median lies inside
#: the 50-80 ms cluster of church_sum and nested_lambdas(16), with 14 jobs
#: below it and 10 above (with depth 10 instead of 16 it sat on the
#: cluster's lower edge and moved more than throughput did).
COLD_SIZES = {
    "wide_capture": (2, 3, 4, 5, 6),
    "nested_lambdas": (16, 24, 32, 40),
    "church_sum": (4, 8, 12, 16),
    "pair_tower": (4, 8, 12, 16),
}
COLD_KINDS = ("run", "compile")
COLD_BLOCKS = 24

#: exec_towers: every program of both towers, repeated per block, with
#: more compile_py than machine run jobs so that the median job is a warm
#: compile_py (artifact hit) rather than a straddle of the two backends.
TOWER_SIZES = {"bool_flip_tower": range(8, 14), "church_sum": range(8, 17)}
TOWER_KINDS = ("run", "compile_py", "compile_py", "compile_py")
TOWER_BLOCKS = 60

#: warm_builds: gen corpus shape per build.  Generated programs vary
#: widely in cost, so each build carries a large corpus of shallow terms:
#: with depth-3 terms a few heavy compile/run jobs made throughput differ
#: by ~40% between seeds; depth 2 keeps the jobs small, as the workload
#: intends.  Warm normalize/check/compile_py hits cost ~0.2-0.5 ms, cold
#: fills and run/compile jobs 0.8-3 ms; with those kinds weighted twice
#: and five passes per reset, the warm hits are 60% of the jobs, so the
#: median falls among them instead of in the gap between them and the
#: fills (with equal weights and three passes it fell in the gap and
#: moved by a quarter between seeds).
SERVED_KINDS = (
    "normalize", "check", "compile_py", "compile", "normalize", "check", "compile_py", "run",
)
SERVED_CORPUS = 128
#: Each corpus is taken from a pool this many times its size, at evenly
#: spaced ranks of program size, so that every seed's corpus has the same
#: size profile.  Drawn directly, one seed's 128 programs were on average
#: 15% longer than another's and its builds ran ~25% slower.
SERVED_POOL = 4
SERVED_ITERATIONS = 2
SERVED_PASSES = 5
SERVED_CONFIG = GenConfig(max_depth=2, context_size=2)


def family_text(family: str, size: int) -> str:
    """Closed surface text of one family member."""
    if family == "wide_capture":
        ctx, term = workloads.wide_capture(size)
        term = close_over(ctx, term)
    else:
        term = getattr(workloads, family)(size)
    return to_surface(term)


def _cold_families(rng: random.Random) -> dict[str, Any]:
    members = [
        (family, size, kind)
        for family, sizes in COLD_SIZES.items()
        for size in sizes
        for kind in COLD_KINDS
    ]
    texts = {(family, size): family_text(family, size) for family, size, _ in members}
    stream, refs = [], []
    for _ in range(COLD_BLOCKS):
        block = list(members)
        rng.shuffle(block)
        for family, size, kind in block:
            stream.append({"id": f"cf-{len(stream)}", "kind": kind, "program": texts[(family, size)]})
            refs.append({"family": family, "size": size, "kind": kind})
    return {"mode": "solo_fresh", "stream": stream, "refs": refs, "block": len(members)}


def _exec_towers(rng: random.Random) -> dict[str, Any]:
    programs = [
        (family, size, family_text(family, size))
        for family, sizes in TOWER_SIZES.items()
        for size in sizes
    ]
    stream, refs = [], []
    for _ in range(TOWER_BLOCKS):
        block = [(index, kind) for index in range(len(programs)) for kind in TOWER_KINDS]
        rng.shuffle(block)
        for index, kind in block:
            family, size, text = programs[index]
            stream.append({"id": f"et-{len(stream)}", "kind": kind, "program": text})
            refs.append({"family": family, "size": size, "kind": kind})
    return {
        "mode": "solo_shared",
        "stream": stream,
        "refs": refs,
        "block": len(programs) * len(TOWER_KINDS),
    }


def _served_corpus(seed: int, rng: random.Random) -> list[dict[str, Any]]:
    """SERVED_CORPUS gen programs at evenly spaced size ranks of a larger pool."""
    pool = job_corpus(
        seed, count=SERVED_POOL * SERVED_CORPUS, config=SERVED_CONFIG, kinds=("normalize",)
    )
    pool.sort(key=lambda spec: len(spec["program"]))
    step = len(pool) / SERVED_CORPUS
    corpus = [
        {"kind": SERVED_KINDS[i % len(SERVED_KINDS)], "program": pool[int((i + 0.5) * step)]["program"]}
        for i in range(SERVED_CORPUS)
    ]
    rng.shuffle(corpus)
    return corpus


def _warm_builds(rng: random.Random) -> dict[str, Any]:
    builds, refs = [], []
    for build in range(2):
        seed = rng.randrange(1 << 30)
        stream = build_stream(
            build,
            seed,
            iterations=SERVED_ITERATIONS,
            passes=SERVED_PASSES,
            corpus=_served_corpus(seed, rng),
        )
        # References are keyed on the source text, which the binary wire
        # drops from the spec it sends.
        build_refs = [
            {"kind": spec["kind"], "program": spec.get("program")} for spec in stream
        ]
        if build == 1:
            stream = binary_specs(stream)
        builds.append(stream)
        refs.append(build_refs)
    return {
        "mode": "builds",
        "builds": builds,
        "refs": refs,
        "block": sum(len(stream) for stream in builds),
    }


def generate(workload: str, seed: int) -> dict[str, Any]:
    """The workload's job streams and reference descriptors for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cold_families":
        return _cold_families(rng)
    if workload == "exec_towers":
        return _exec_towers(rng)
    if workload == "warm_builds":
        return _warm_builds(rng)
    raise ValueError(f"unknown workload {workload!r}")

