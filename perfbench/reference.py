"""Reference answers that do not come from the compiler under test.

Two sources, neither of them the closure-conversion pipeline:

* **A hand-written table** for the named families: the value each program
  computes (``church_sum(n)`` is ``2n``, ``bool_flip_tower(m)`` is
  ``false``, ``pair_tower(d)`` is ``d``; ``nested_lambdas`` and
  ``wide_capture`` evaluate to closures, which have no ground
  observation).  A ``compile`` job must report the program it was sent
  and a verified target.
* **The substitution oracle** ``repro.cc.reduce.normalize_subst`` run on
  the *source* term, for generated jobs of kind ``normalize``, ``run`` and
  ``compile_py``.  It is a separate engine from the NbE normalizer and
  never touches closure conversion.

``warm_builds`` payloads, served or solo, are additionally compared byte
for byte with a separate replay of the same streams.  Every reference is computed in its own session before
any timing starts.
"""

from __future__ import annotations

from typing import Any, Callable

from repro import api, cc
from repro.cc.reduce import normalize_subst
from repro.surface import parse_term

from measure import digest

#: The value each family member computes; None marks a closure.
EXPECTED_VALUE: dict[str, Callable[[int], Any]] = {
    "church_sum": lambda n: 2 * n,
    "bool_flip_tower": lambda m: False,
    "pair_tower": lambda d: d,
    "nested_lambdas": lambda d: None,
    "wide_capture": lambda w: None,
}


def ground(term: cc.Term) -> Any:
    """The ground observation of a normal form: an int, a bool, or None."""
    if isinstance(term, cc.BoolLit):
        return term.value
    count = 0
    while isinstance(term, cc.Succ):
        count, term = count + 1, term.pred
    return count if isinstance(term, cc.Zero) else None


def _same_value(observed: Any, expected: Any) -> bool:
    """Type-strict equality (``False == 0`` must not pass); None = closure."""
    if expected is None:
        return isinstance(observed, str)
    return type(observed) is type(expected) and observed == expected


class Checker:
    """Expected results for one generated workload, keyed by job position.

    Keys are stream indices for the solo workloads and ``(build, index)``
    pairs for ``warm_builds``.  :meth:`check` returns None for a correct
    result and a one-line reason otherwise.
    """

    def __init__(self, generated: dict[str, Any]) -> None:
        self._session = api.Session(name="reference")
        self._expected: dict[Any, dict[str, Any]] = {}
        self._normals: dict[str, cc.Term] = {}
        self._terms: dict[str, str] = {}
        with self._session.activate():
            if generated["mode"] == "builds":
                self._builds(generated)
            else:
                for index, (spec, ref) in enumerate(zip(generated["stream"], generated["refs"])):
                    self._expected[index] = self._family(spec["program"], ref)

    def _family(self, program: str, ref: dict[str, Any]) -> dict[str, Any]:
        family, size = ref["family"], ref["size"]
        expected: dict[str, Any] = {"kind": ref["kind"], "verified": True}
        if ref["kind"] == "compile":
            expected["term"] = self._render(program)
        else:
            expected["value"] = EXPECTED_VALUE[family](size)
        return expected

    def _render(self, program: str) -> str:
        """α-canonical rendering of the program as sent."""
        rendered = self._terms.get(program)
        if rendered is None:
            rendered = self._terms[program] = cc.pretty(cc.intern(parse_term(program)))
        return rendered

    def _normal(self, program: str) -> cc.Term:
        normal = self._normals.get(program)
        if normal is None:
            normal = normalize_subst(cc.Context.empty(), parse_term(program))
            self._normals[program] = normal
        return normal

    def _builds(self, generated: dict[str, Any]) -> None:
        replay = [api.Session(name=f"replay-{b}") for b in range(len(generated["builds"]))]
        for build, (stream, refs) in enumerate(zip(generated["builds"], generated["refs"])):
            for index, (spec, ref) in enumerate(zip(stream, refs)):
                result = replay[build].execute(spec)
                if not result.ok:
                    raise RuntimeError(f"solo replay failed on {spec['id']}: {result.error}")
                expected: dict[str, Any] = {"kind": ref["kind"], "digest": digest(result.payload)}
                if ref["kind"] == "normalize":
                    expected["normal"] = cc.pretty(cc.intern(self._normal(ref["program"])))
                elif ref["kind"] in ("run", "compile_py"):
                    expected["value"] = ground(self._normal(ref["program"]))
                self._expected[(build, index)] = expected

    def check(self, key: Any, ok: bool, payload: dict[str, Any], error: dict[str, Any]) -> str | None:
        """``payload`` holds the checked fields plus the full payload's digest."""
        if not ok:
            return f"error document: {error.get('type')}: {error.get('message')}"
        expected = self._expected[key]
        if "digest" in expected and payload.get("digest") != expected["digest"]:
            return "payload differs from the solo replay"
        if "verified" in expected and payload.get("verified") is not True:
            return "compiled program was not verified"
        if "term" in expected and payload.get("term") != expected["term"]:
            return "compiled a different program than the one sent"
        if "normal" in expected and payload.get("normal") != expected["normal"]:
            return f"normal form {payload.get('normal')!r} != {expected['normal']!r}"
        if "value" in expected and not _same_value(payload.get("value"), expected["value"]):
            return f"value {payload.get('value')!r} != {expected['value']!r}"
        return None
