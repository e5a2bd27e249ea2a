"""The CC-CC type checker (paper Figure 7), on delayed-substitution types.

The two rules that carry the weight of the paper:

* **[Code]** — code ``λ (x′:A′, x:A). e`` checks its body in the
  environment ``·, x′:A′, x:A`` — *the empty context extended only with
  the two parameters*.  This is the static, machine-checked guarantee
  that closure conversion produced closed code.

* **[Clo]** — a closure ``⟨⟨e, e′⟩⟩`` where ``e : Code (x′:A′, x:A). B``
  and ``e′ : A′`` has type ``Π x:A[e′/x′]. B[e′/x′]``: the environment is
  substituted into the type, exactly like dependent application.  This is
  what synchronizes the (open) closure type with the (closed) code type
  and makes the translation type preserving.

``Code`` formation ([T-Code-⋆]/[T-Code-□]) mirrors Π: impredicative in ⋆,
predicative at □.

**Types are inferred with their substitutions delayed.**  Performing the
instantiations of [Clo], [App], [Let], [Pair] and [Snd] eagerly copies the
type each time, and the next enclosing closure walks the copy again: for
nested closures the types grow as O(n²) nodes and get re-walked n times.
Following the environment discipline of Accattoli et al. ("Closure
Conversion, Flat Environments, and the Complexity of Abstract Machines")
and the ``(term, env)`` thunks of :mod:`repro.kernel.nbe`, an inferred type
here is syntax, a :class:`_Sub` (a type with a pending parallel
substitution, whose values live outside it) or a :class:`_Former` (a Π or
Code former with such children).  Instantiation is an O(1) environment
extension; weak-head normalizing an inferred type only looks through the
pending substitutions at its head.

Syntax is materialized once per delayed type, top-down with composed
environments (each environment value is materialized once and shared), at
three points only: the public :func:`infer` result, the conversion
boundary of ``check``, and error messages.  Conversion therefore sees
α-equal terms to what eager substitution produced and spends the same
fuel.  ``instantiations`` and ``materialized_nodes`` in the active
session's ``KernelState.verify_work`` count the checker's work in
host-stable units.

Every ``infer``/``check``/``infer_universe`` result is cached per (term
identity, visible context bindings) by :mod:`repro.kernel.judgment`, with
exact fuel replay into the threaded :class:`Budget`; failures are never
cached, so errors re-derive identically.
"""

from __future__ import annotations

from typing import Any

from repro.cccc.ast import (
    LANGUAGE,
    App,
    Bool,
    BoolLit,
    Box,
    Clo,
    CodeLam,
    CodeType,
    Fst,
    If,
    Let,
    Nat,
    NatElim,
    Pair,
    Pi,
    Sigma,
    Snd,
    Star,
    Succ,
    Term,
    Unit,
    UnitVal,
    Var,
    Zero,
    cached_free_vars,
)
from repro.cccc.context import Context
from repro.cccc.equiv import equivalent
from repro.cccc.pretty import pretty
from repro.cccc.reduce import Budget, whnf
from repro.common.errors import TypeCheckError
from repro.common.names import fresh
from repro.kernel import fv
from repro.kernel.judgment import judgment_cache, typing_token
from repro.kernel.state import current_state
from repro.kernel.substitution import subst

__all__ = ["check", "check_context", "infer", "infer_universe", "well_typed"]

# Shared leaf instances.  check/equivalent memo keys are identity-based, so
# passing one stable object for the ubiquitous ground types makes those
# entries hittable instead of pinning a fresh leaf term per call.
_STAR = Star()
_BOX = Box()
_UNIT = Unit()
_NAT = Nat()
_BOOL = Bool()
_ZERO = Zero()

_EMPTY: dict = {}

#: Head classes whnf can reduce; any other head is weak-head normal.
_REDUCIBLE = (Var, Let, App, Fst, Snd, If, NatElim)


# --------------------------------------------------------------------------
# Delayed-substitution types.
# --------------------------------------------------------------------------


class _Sub:
    """``body`` under the pending parallel substitution ``env``.

    ``env`` keeps only names free in ``body``; its values are types or
    terms in the scope *outside* ``body``.  ``syntax`` caches the
    materialization, ``pushed`` the one-level push of ``env`` into a
    delayed ``body``.
    """

    __slots__ = ("body", "env", "fv", "syntax", "pushed")

    def __init__(self, body: Any, env: dict, names: frozenset) -> None:
        self.body = body
        self.env = env
        self.fv = names
        self.syntax: Term | None = None
        self.pushed: Any = None


class _Former:
    """A Π or Code type former some of whose children are delayed types."""

    __slots__ = ("cls", "fields", "fv", "syntax")

    def __init__(self, cls: type, fields: dict[str, Any]) -> None:
        self.cls = cls
        self.fields = fields
        self.syntax: Term | None = None
        names: set[str] = set()
        for child in LANGUAGE.specs[cls].children:
            child_fv = _fv(fields[child.attr])
            if child.binders:
                child_fv = child_fv.difference(fields[b] for b in child.binders)
            names |= child_fv
        self.fv = frozenset(names)


_DELAYED = (_Sub, _Former)


def _fv(type_: Any) -> frozenset:
    if isinstance(type_, _DELAYED):
        return type_.fv
    return fv.free_vars(LANGUAGE, type_)


def _sub(body: Any, env: dict) -> Any:
    """``body`` with ``env`` pending, pruned to the names ``body`` uses."""
    if not env:
        return body
    names = _fv(body)
    kept = {name: value for name, value in env.items() if name in names}
    if not kept:
        return body
    if type(body) is Var:
        return kept[body.name]
    free = set(names.difference(kept))
    for value in kept.values():
        free |= _fv(value)
    return _Sub(body, kept, frozenset(free))


def _instantiate(body: Any, env: dict) -> Any:
    """A typing rule's instantiation: O(1) environment extension, counted."""
    current_state().verify_work["instantiations"] += 1
    return _sub(body, env)


def _compose(inner: dict, outer: dict) -> dict:
    """The parallel substitution ``inner`` followed by ``outer``."""
    composed = dict(outer)
    for name, value in inner.items():
        composed[name] = _sub(value, outer)
    return composed


def _push(delayed: _Sub) -> Any:
    """Push ``delayed``'s substitution one level into its delayed body.

    Crossing a binder drops the names it shadows and renames it (with the
    session's fresh supply) exactly when it would capture a free name of a
    pending value — the rule of :func:`repro.kernel.substitution.subst`.
    """
    body, env = delayed.body, delayed.env
    if type(body) is _Sub:
        return _sub(body.body, _compose(body.env, env))
    spec = LANGUAGE.specs[body.cls]
    fields = dict(body.fields)
    capturable: set[str] = set()
    for value in env.values():
        capturable |= _fv(value)
    maps = [env]
    current = env
    for binder in spec.binder_attrs:
        bound = fields[binder]
        if bound in current:
            current = {k: v for k, v in current.items() if k != bound}
        if current and bound in capturable:
            renamed = fresh(bound)
            current = {**current, bound: Var(renamed)}
            capturable.add(renamed)
            fields[binder] = renamed
        maps.append(current)
    for child in spec.children:
        fields[child.attr] = _sub(fields[child.attr], maps[len(child.binders)])
    return _Former(body.cls, fields)


def materialize(type_: Any) -> Term:
    """The syntax of an inferred type, built once per delayed type.

    Iterative over the dependency DAG of delayed types, so deep closure
    nests never recurse in Python.
    """
    if not isinstance(type_, _DELAYED):
        return type_
    if type_.syntax is not None:
        return type_.syntax
    built = [0]
    stack = [type_]
    while stack:
        current = stack[-1]
        if current.syntax is not None:
            stack.pop()
            continue
        if type(current) is _Former:
            deps = current.fields.values()
        elif isinstance(current.body, _DELAYED):
            if current.pushed is None:
                current.pushed = _push(current)
            deps = (current.pushed,)
        else:
            deps = current.env.values()
        pending = [d for d in deps if isinstance(d, _DELAYED) and d.syntax is None]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        if type(current) is _Former:
            built[0] += 1
            current.syntax = current.cls(
                **{k: v.syntax if isinstance(v, _DELAYED) else v for k, v in current.fields.items()}
            )
        elif current.pushed is not None:
            pushed = current.pushed
            current.syntax = pushed.syntax if isinstance(pushed, _DELAYED) else pushed
        else:
            mapping = {
                k: v.syntax if isinstance(v, _DELAYED) else v for k, v in current.env.items()
            }
            current.syntax = subst(LANGUAGE, current.body, mapping, built)
    current_state().verify_work["materialized_nodes"] += built[0]
    return type_.syntax


def _head(type_: Any) -> tuple[Any, dict]:
    """``(node, env)``: the outermost node of ``type_`` and its pending substitution."""
    env = _EMPTY
    while type(type_) is _Sub:
        env = type_.env if not env else _compose(type_.env, env)
        type_ = type_.body
    return type_, env


def _field(node: Any, attr: str) -> Any:
    return node.fields[attr] if type(node) is _Former else getattr(node, attr)


def _is(node: Any, cls: type) -> bool:
    return (node.cls if type(node) is _Former else type(node)) is cls


def _whnf_head(ctx: Context, type_: Any, budget: Budget) -> tuple[Any, dict]:
    """Weak-head normalize an inferred type, forcing only its head.

    A reducible head is materialized and handed to :func:`whnf`, so the
    fuel spent is exactly that of reducing the eagerly substituted type.
    """
    node, env = _head(type_)
    if isinstance(node, _REDUCIBLE):
        return whnf(ctx, materialize(type_), budget), _EMPTY
    return node, env


def _shown(node: Any, env: dict) -> str:
    return pretty(materialize(_sub(node, env)))


# --------------------------------------------------------------------------
# The typing rules.
# --------------------------------------------------------------------------


def infer(ctx: Context, term: Term, budget: Budget | None = None) -> Term:
    """Synthesize the type of ``term`` under ``ctx`` (judgment Γ ⊢ e : t)."""
    if budget is None:
        budget = Budget()
    return materialize(_infer(ctx, term, budget))


def _infer(ctx: Context, term: Term, budget: Budget) -> Any:
    """:func:`infer` without materializing: the delayed type, memoized."""
    # O(1) judgments skip the memo round-trip: a cache entry would cost
    # more than re-deriving the axiom (and replays zero steps either way).
    match term:
        case Var(name):
            binding = ctx.lookup(name)
            if binding is None:
                raise TypeCheckError(f"unbound variable {name!r}")
            return binding.type_
        case Star():
            return _BOX
        case Unit() | Bool() | Nat():
            return _STAR
        case UnitVal():
            return _UNIT
        case BoolLit():
            return _BOOL
        case Zero():
            return _NAT
    cache = judgment_cache()
    token = typing_token(ctx)
    hit = cache.lookup("cccc.infer", term, None, token)
    if hit is not None:
        result, steps = hit
        budget.charge(steps)
        return result
    before = budget.spent
    result = _infer_rule(ctx, term, budget)
    cache.store("cccc.infer", term, None, token, result, budget.spent - before)
    return result


def _infer_rule(ctx: Context, term: Term, budget: Budget) -> Any:
    # Leaf axioms (⋆, [Var], Unit and the ground types) are decided by
    # _infer's fast path and never reach this function.
    match term:
        case Box():
            raise TypeCheckError("□ has no type (it is not a valid term)")
        case Pi(name, domain, codomain):
            infer_universe(ctx, domain, budget)
            return infer_universe(ctx.extend(name, domain), codomain, budget)
        case CodeType(env_name, env_type, arg_name, arg_type, result):
            infer_universe(ctx, env_type, budget)
            env_ctx = ctx.extend(env_name, env_type)
            infer_universe(env_ctx, arg_type, budget)
            arg_ctx = env_ctx.extend(arg_name, arg_type)
            return infer_universe(arg_ctx, result, budget)  # [T-Code-⋆] / [T-Code-□]
        case CodeLam(env_name, env_type, arg_name, arg_type, body):
            # [Code]: the body checks under the *empty* environment — this
            # is the static closedness guarantee.
            empty = Context.empty()
            stray = cached_free_vars(term)
            if stray:
                raise TypeCheckError(
                    f"code is not closed: free variables {sorted(stray)}"
                ).with_note(f"checking {pretty(term)}")
            infer_universe(empty, env_type, budget)
            env_ctx = empty.extend(env_name, env_type)
            infer_universe(env_ctx, arg_type, budget)
            arg_ctx = env_ctx.extend(arg_name, arg_type)
            result = _infer(arg_ctx, body, budget)
            if not isinstance(result, _DELAYED):
                return CodeType(env_name, env_type, arg_name, arg_type, result)
            fields = {
                "env_name": env_name,
                "env_type": env_type,
                "arg_name": arg_name,
                "arg_type": arg_type,
                "result": result,
            }
            return _Former(CodeType, fields)
        case Clo(code, env):
            node, pending = _whnf_head(ctx, _infer(ctx, code, budget), budget)
            if not _is(node, CodeType):
                raise TypeCheckError(
                    f"closure over non-code of type {_shown(node, pending)}"
                ).with_note(f"checking {pretty(term)}")
            _check(ctx, env, _instantiate(_field(node, "env_type"), pending), budget)
            # [Clo]: Π x : A[e′/x′]. B[e′/x′] — the environment extends the
            # code type's pending substitution; materialization renames the
            # argument binder if the environment value mentions its name.
            arg_name, arg_type = _field(node, "arg_name"), _field(node, "arg_type")
            result = _field(node, "result")
            if isinstance(result, _DELAYED):
                fields = {"name": arg_name, "domain": arg_type, "codomain": result}
                closure_type = _Former(Pi, fields)
            else:
                closure_type = Pi(arg_name, arg_type, result)
            return _instantiate(closure_type, {**pending, _field(node, "env_name"): env})
        case App(fn, arg):
            node, pending = _whnf_head(ctx, _infer(ctx, fn, budget), budget)
            if not _is(node, Pi):
                raise TypeCheckError(
                    f"application head has non-Π type {_shown(node, pending)}"
                ).with_note(f"checking {pretty(term)}")
            _check(ctx, arg, _instantiate(_field(node, "domain"), pending), budget)
            return _instantiate(_field(node, "codomain"), {**pending, _field(node, "name"): arg})
        case Let(name, bound, annot, body):
            infer_universe(ctx, annot, budget)
            _check(ctx, bound, annot, budget)
            body_type = _infer(ctx.define(name, bound, annot), body, budget)
            return _instantiate(body_type, {name: bound})
        case Sigma(name, first, second):
            first_universe = infer_universe(ctx, first, budget)
            second_universe = infer_universe(ctx.extend(name, first), second, budget)
            if isinstance(first_universe, Star) and isinstance(second_universe, Star):
                return Star()
            return Box()
        case Pair(fst_val, snd_val, annot):
            infer_universe(ctx, annot, budget)
            annot_whnf = whnf(ctx, annot, budget)
            if not isinstance(annot_whnf, Sigma):
                raise TypeCheckError(
                    f"pair annotation {pretty(annot)} is not a Σ type"
                ).with_note(f"checking {pretty(term)}")
            _check(ctx, fst_val, annot_whnf.first, budget)
            second = _instantiate(annot_whnf.second, {annot_whnf.name: fst_val})
            _check(ctx, snd_val, second, budget)
            return annot
        case Fst(pair):
            node, pending = _whnf_head(ctx, _infer(ctx, pair, budget), budget)
            if not _is(node, Sigma):
                raise TypeCheckError(
                    f"fst of non-Σ type {_shown(node, pending)}"
                ).with_note(f"checking {pretty(term)}")
            return _instantiate(node.first, pending)
        case Snd(pair):
            node, pending = _whnf_head(ctx, _infer(ctx, pair, budget), budget)
            if not _is(node, Sigma):
                raise TypeCheckError(
                    f"snd of non-Σ type {_shown(node, pending)}"
                ).with_note(f"checking {pretty(term)}")
            return _instantiate(node.second, {**pending, node.name: Fst(pair)})
        case Succ(pred):
            _check(ctx, pred, _NAT, budget)
            return _NAT
        case If(cond, then_branch, else_branch):
            _check(ctx, cond, _BOOL, budget)
            then_type = _infer(ctx, then_branch, budget)
            _check(ctx, else_branch, then_type, budget)
            return then_type
        case NatElim(motive, base, step, target):
            _check_motive(ctx, motive, budget)
            _check(ctx, target, _NAT, budget)
            _check(ctx, base, App(motive, _ZERO), budget)
            _check(ctx, step, _step_type(motive), budget)
            return App(motive, target)
        case _:
            raise TypeCheckError(f"not a CC-CC term: {term!r}")


def _check_motive(ctx: Context, motive: Term, budget: Budget) -> None:
    """Require ``motive : Π _:Nat. U`` for some universe ``U``."""
    node, pending = _whnf_head(ctx, _infer(ctx, motive, budget), budget)
    motive_type = materialize(_sub(node, pending))
    if not isinstance(motive_type, Pi):
        raise TypeCheckError(f"natelim motive has non-Π type {pretty(motive_type)}")
    if not equivalent(ctx, motive_type.domain, _NAT, budget):
        raise TypeCheckError(
            f"natelim motive domain {pretty(motive_type.domain)} is not Nat"
        )
    inner = ctx.extend(motive_type.name, _NAT)
    codomain = whnf(inner, motive_type.codomain, budget)
    if not isinstance(codomain, (Star, Box)):
        raise TypeCheckError(f"natelim motive codomain {pretty(codomain)} is not a universe")


def _step_type(motive: Term) -> Term:
    """``Π n:Nat. Π ih:(motive n). motive (succ n)`` (a closure type here)."""
    n = fresh("n")
    ih = fresh("ih")
    return Pi(n, _NAT, Pi(ih, App(motive, Var(n)), App(motive, Succ(Var(n)))))


def check(ctx: Context, term: Term, expected: Term, budget: Budget | None = None) -> None:
    """Check ``Γ ⊢ term : expected`` (inference + [Conv])."""
    if budget is None:
        budget = Budget()
    _check(ctx, term, expected, budget)


def _check(ctx: Context, term: Term, expected: Any, budget: Budget) -> None:
    """:func:`check` against a possibly delayed ``expected`` type."""
    cache = judgment_cache()
    token = typing_token(ctx)
    hit = cache.lookup("cccc.check", term, expected, token)
    if hit is not None:
        budget.charge(hit[1])
        return
    before = budget.spent
    actual = materialize(_infer(ctx, term, budget))
    wanted = materialize(expected)
    if not equivalent(ctx, actual, wanted, budget):
        raise TypeCheckError(
            f"type mismatch: term {pretty(term)}\n"
            f"  has type      {pretty(actual)}\n"
            f"  but expected  {pretty(wanted)}"
        )
    cache.store("cccc.check", term, expected, token, True, budget.spent - before)


def infer_universe(ctx: Context, type_: Term, budget: Budget | None = None) -> Star | Box:
    """Require ``type_`` to be a type; return its universe (⋆ or □)."""
    if budget is None:
        budget = Budget()
    cache = judgment_cache()
    token = typing_token(ctx)
    hit = cache.lookup("cccc.universe", type_, None, token)
    if hit is not None:
        sort, steps = hit
        budget.charge(steps)
        return sort
    before = budget.spent
    sort, pending = _whnf_head(ctx, _infer(ctx, type_, budget), budget)
    if not isinstance(sort, (Star, Box)):
        raise TypeCheckError(
            f"expected a type but {pretty(type_)} has type {_shown(sort, pending)}"
        )
    cache.store("cccc.universe", type_, None, token, sort, budget.spent - before)
    return sort


def well_typed(ctx: Context, term: Term, budget: Budget | None = None) -> bool:
    """Does ``term`` have *some* type under ``ctx``?"""
    try:
        _infer(ctx, term, budget if budget is not None else Budget())
    except TypeCheckError:
        return False
    return True


def check_context(ctx: Context, budget: Budget | None = None) -> None:
    """Check well-formedness ``⊢ Γ``."""
    if budget is None:
        budget = Budget()
    prefix = Context.empty()
    for binding in ctx:
        infer_universe(prefix, binding.type_, budget)
        if binding.definition is not None:
            check(prefix, binding.definition, binding.type_, budget)
            prefix = prefix.define(binding.name, binding.definition, binding.type_)
        else:
            prefix = prefix.extend(binding.name, binding.type_)
