"""Differential tests: the environment-based CC-CC checker against its oracle.

:mod:`repro.cccc.typecheck` infers types with delayed substitutions and
materializes syntax only at its boundaries; ``cccc_subst_oracle`` is the
eager-substitution checker it replaced.  On every input both must give the
same verdict, the same error text and the same ``budget.spent``, and
α-equal inferred types.  Inputs: the closure-converted corpus, the negative
battery of ``test_cccc_negative.py``, generated programs for three seeds,
and the benchmark families at small sizes.

Each side runs in its own fresh session that also performs the closure
conversion, so both start from the same fresh-name counter and draw the
same names for the target.

The scaling tests assert the checker's deterministic work counters
(``KernelState.verify_work``), never wall-clock time.
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

import pytest

import cccc_subst_oracle as oracle
import test_cccc_negative as negative
from corpus import CORPUS, corpus_ids
from repro import api, cc, cccc
from repro.closconv.translate import translate, translate_context
from repro.common.errors import ReproError, TypeCheckError
from repro.gen import TermGenerator
from repro.kernel.budget import Budget

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
import workloads  # noqa: E402

GEN_SEEDS = (3, 4, 5)
GEN_PER_SEED = 12

FAMILIES = [
    ("nested_lambdas", 1),
    ("nested_lambdas", 6),
    ("nested_lambdas", 12),
    ("wide_capture", 2),
    ("wide_capture", 5),
    ("capture_chain", 1),
    ("capture_chain", 6),
    ("church_sum", 2),
    ("church_sum", 5),
    ("pair_tower", 2),
    ("pair_tower", 8),
    ("bool_flip_tower", 1),
    ("bool_flip_tower", 4),
]


def _family(name: str, size: int) -> tuple[cc.Context, cc.Term]:
    built = getattr(workloads, name)(size)
    return built if isinstance(built, tuple) else (cc.Context.empty(), built)


def _run(checker, make):
    """Build the target with ``make`` and check it in a fresh session."""
    with api.Session(name="differential").activate():
        ctx, term = make()
        budget = Budget()
        try:
            type_ = checker.infer(ctx, term, budget)
        except TypeCheckError as error:
            return ("error", str(error), budget.spent)
        return ("ok", type_, budget.spent)


def _assert_agree(make) -> None:
    new = _run(cccc, make)
    old = _run(oracle, make)
    assert new[0] == old[0], (new, old)
    assert new[2] == old[2], f"fuel {new[2]} != oracle {old[2]}"
    if new[0] == "error":
        assert new[1] == old[1]
    else:
        assert cccc.alpha_equal(new[1], old[1]), (cccc.pretty(new[1]), cccc.pretty(old[1]))


def _converted(ctx: cc.Context, term: cc.Term):
    return lambda: (translate_context(ctx), translate(ctx, term))


def _negative_cases() -> list[tuple[str, object]]:
    """The ``(ctx, term)`` pairs ``test_cccc_negative.py`` expects rejected.

    Every test method is replayed with the module's ``_expect_reject``
    swapped for a recorder, giving a function that rebuilds its arguments.
    """
    cases: list[tuple[str, object]] = []
    for cls_name, cls in vars(negative).items():
        if not (cls_name.startswith("Test") and inspect.isclass(cls)):
            continue
        for name, method in vars(cls).items():
            if name.startswith("test_") and "_expect_reject" in inspect.getsource(method):
                cases.append((f"{cls_name}.{name}", _recorder(cls, method)))
    return cases


def _recorder(cls, method):
    def make():
        recorded = []
        original = negative._expect_reject
        negative._expect_reject = lambda ctx, term: recorded.append((ctx, term))
        try:
            method(cls(), cccc.Context.empty())
        finally:
            negative._expect_reject = original
        return recorded[-1]

    return make


_NEGATIVE = _negative_cases()


def _generated(seed: int, index: int):
    def make():
        generator = TermGenerator(seed)
        triple = None
        for _ in range(index + 1):
            triple = generator.well_typed_term()
        if triple is None:
            pytest.skip(f"seed {seed} produced no term at {index}")
        ctx, term, _ = triple
        return translate_context(ctx), translate(ctx, term)

    return make


class TestCheckerDifferential:
    @pytest.mark.parametrize("name,ctx,term", CORPUS, ids=corpus_ids())
    def test_corpus(self, name, ctx, term):
        _assert_agree(_converted(ctx, term))

    @pytest.mark.parametrize("name,make", _NEGATIVE, ids=[name for name, _ in _NEGATIVE])
    def test_negative_battery(self, name, make):
        _assert_agree(make)

    def test_negative_battery_is_collected(self):
        assert len(_NEGATIVE) >= 20

    @pytest.mark.parametrize("seed", GEN_SEEDS)
    @pytest.mark.parametrize("index", range(GEN_PER_SEED))
    def test_generated(self, seed, index):
        _assert_agree(_generated(seed, index))

    @pytest.mark.parametrize("family,size", FAMILIES, ids=[f"{f}-{n}" for f, n in FAMILIES])
    def test_families(self, family, size):
        _assert_agree(_converted(*_family(family, size)))

    def test_closure_binder_capture(self):
        # ⟨⟨λ (n:⋆, x:n). ⟨⟨λ (m:⋆, z:m). z, n⟩⟩, x⟩⟩ under x : ⋆ — the
        # closure's Π binder x must be renamed when the environment x is
        # substituted into its delayed codomain.
        def make():
            inner = cccc.CodeLam("m", cccc.Star(), "z", cccc.Var("m"), cccc.Var("z"))
            outer = cccc.CodeLam(
                "n", cccc.Star(), "x", cccc.Var("n"), cccc.Clo(inner, cccc.Var("n"))
            )
            ctx = cccc.Context.empty().extend("x", cccc.Star())
            return ctx, cccc.Clo(outer, cccc.Var("x"))

        _assert_agree(make)
        with api.Session(name="capture").activate():
            ctx, term = make()
            type_ = cccc.infer(ctx, term)
        assert type_.name != "x" and cccc.alpha_equal(
            type_, cccc.Pi("y", cccc.Var("x"), cccc.Pi("z", cccc.Var("x"), cccc.Var("x")))
        )

    def test_fuel_exhaustion_agrees(self):
        ctx, term = _family("church_sum", 3)
        for fuel in (0, 1, 5):

            def run(checker):
                with api.Session(name="differential").activate():
                    target = translate(ctx, term)
                    budget = Budget(remaining=fuel)
                    try:
                        checker.infer(translate_context(ctx), target, budget)
                    except ReproError as error:
                        return str(error), budget.spent
                    return "ok", budget.spent

            assert run(cccc) == run(oracle)


def _verify_work(depth: int) -> tuple[dict[str, int], int]:
    """Counters spent verifying ``nested_lambdas(depth)`` in a fresh session."""
    session = api.Session(name=f"scaling-{depth}")
    with session.activate():
        term = workloads.nested_lambdas(depth)
        target = translate(cc.Context.empty(), term)
        work = session.state.verify_work
        before = dict(work)
        budget = Budget()
        cccc.infer(cccc.Context.empty(), target, budget)
        return {key: work[key] - before[key] for key in work}, budget.spent


class TestVerifyScaling:
    def test_materialized_nodes_grow_at_most_quadratically(self):
        small, _ = _verify_work(30)
        large, _ = _verify_work(120)
        assert small["materialized_nodes"] > 0
        # 4x the depth: a quadratic walk grows 16x, the eager oracle ~64x.
        assert large["materialized_nodes"] <= 20 * small["materialized_nodes"]
        assert large["instantiations"] <= 20 * small["instantiations"]

    def test_deep_nest_verifies_under_default_fuel(self):
        work, spent = _verify_work(120)
        assert spent <= Budget().remaining
        assert work["instantiations"] > 0
