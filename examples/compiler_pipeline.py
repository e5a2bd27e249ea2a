"""The full compiler pipeline, down to the abstract machine.

surface text → CC term → [type check] → CC-CC term → [type check again,
Theorem 5.6] → hoisted program (static code table) → CBV machine run with
cost counters — alongside the *untyped* baseline pipeline (erase → untyped
closure conversion → untyped CBV) for comparison.

The typed pipeline is one :meth:`repro.api.Session.run` call per program:
the session compiles (verifying Theorem 5.6 en route), hoists, executes,
and returns every counter in a structured :class:`repro.api.RunResult`.
Each program gets its *own* session, the way independent components of a
build would — their engine caches and fresh-name counters never interact.

The printout shows the paper's two selling points concretely:

* after hoisting, every activation record holds exactly two bindings
  (environment and argument) and all code lives in a static table;
* the typed pipeline reaches the same ground value as the untyped one,
  but retains a checkable interface at every stage.

Run:  python examples/compiler_pipeline.py
"""

from repro import api
from repro.baseline import erase, uconvert, ueval
from repro.baseline.untyped import EvalStats
from repro.machine import program_context

PROGRAMS = {
    "add 7 8": r"""
        (\ (m : Nat) (n : Nat).
            natelim(\ (k : Nat). Nat, n, \ (k : Nat) (ih : Nat). succ ih, m)) 7 8
    """,
    "id Nat 42": r"(\ (A : Type) (x : A). x) Nat 42",
    "twice succ 5": r"(\ (f : Nat -> Nat) (x : Nat). f (f x)) (\ (y : Nat). succ y) 5",
    "fst of pair": r"fst (<3, true> as (exists (x : Nat), Bool))",
    "church 3+2": r"""
        (\ (m : forall (A : Type), (A -> A) -> A -> A)
           (n : forall (A : Type), (A -> A) -> A -> A).
           \ (A : Type) (f : A -> A) (x : A). m A f (n A f x))
        (\ (A : Type) (f : A -> A) (x : A). f (f (f x)))
        (\ (A : Type) (f : A -> A) (x : A). f (f x))
        Nat (\ (k : Nat). succ k) 0
    """,
}


def main() -> None:
    header = (
        f"{'program':<14} {'value':>6} {'code blocks':>12} {'machine steps':>14} "
        f"{'closures':>9} {'env tuples':>11} {'projections':>12} {'untyped value':>14}"
    )
    print(header)
    print("-" * len(header))

    for name, source in PROGRAMS.items():
        # Typed pipeline: CC → CC-CC → hoist → machine, one session per
        # component.  `run` verifies Theorem 5.6 en route.
        session = api.Session(name=name)
        result = session.run(source)
        with session.activate():
            program_context(result.program)  # re-type-check the hoisted program

        # Untyped baseline: erase → untyped conversion → untyped CBV,
        # reusing the source term the run reports (warm or cold).
        baseline_stats = EvalStats()
        source_term = result.source
        baseline_value = ueval(uconvert(erase(source_term)), baseline_stats)

        print(
            f"{name:<14} {str(result.observation):>6} {result.code_count:>12} "
            f"{result.machine_steps:>14} {result.closure_allocs:>9} "
            f"{result.tuple_allocs:>11} {result.projections:>12} "
            f"{str(baseline_value):>14}"
        )
        assert result.observation == baseline_value, "typed and untyped pipelines disagree!"

    # Show one static code table in full.
    print("\nstatic code table for 'id Nat 42':")
    print(api.Session().run(PROGRAMS["id Nat 42"]).program)


if __name__ == "__main__":
    main()
