"""Recursive-descent parser from the surface syntax to CC terms.

Grammar (binders right-associate; application is left-associative and
binds tighter than ``->``, which is right-associative)::

    term    ::= lambda | forall | exists | let | if | arrow
    lambda  ::= ('\\' | 'fun') binder+ '.' term
    forall  ::= 'forall' binder+ ',' term
    exists  ::= 'exists' binder+ ',' term
    let     ::= 'let' IDENT '=' term ':' term 'in' term
    if      ::= 'if' term 'then' term 'else' term
    arrow   ::= app ('->' term)?
    app     ::= prefix prefix*
    prefix  ::= ('fst' | 'snd' | 'succ') prefix | atom
    atom    ::= IDENT | NUMBER | 'Type' | 'Kind' | 'Bool' | 'Nat'
              | 'true' | 'false'
              | 'natelim' '(' term ',' term ',' term ',' term ')'
              | '<' term ',' term '>' 'as' prefix
              | '(' term ')'
    binder  ::= '(' IDENT+ ':' term ')'

Nesting is bounded: a term may nest at most :data:`MAX_NESTING` levels
deep (parentheses, binders, pair components, ``let``/``if`` parts).  The
parser recurses a few Python frames per level, so deeper text would
overflow the interpreter stack; past the bound it raises a
:class:`ParseError` at the offending token instead.  The bound is a fixed
number, not a probe of the remaining stack, so the same text is accepted
or rejected identically wherever it is parsed.
"""

from __future__ import annotations

from repro import cc
from repro.common.errors import ParseError
from repro.surface.lexer import Token, tokenize

__all__ = ["MAX_NESTING", "parse_term"]

#: The deepest term nesting accepted.  About five Python frames per level
#: keeps the deepest accepted parse well inside the default recursion limit
#: of 1000, with room for the caller's own frames.
MAX_NESTING = 128


def parse_term(source: str) -> cc.Term:
    """Parse ``source`` into a CC term; raises :class:`ParseError`."""
    parser = _Parser(tokenize(source))
    term = parser.term()
    parser.expect_eof()
    return term


_PREFIX_NODES = {"fst": cc.Fst, "snd": cc.Snd, "succ": cc.Succ}


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.position = 0
        self.depth = 0

    # -- token plumbing ------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.position]

    def advance(self) -> Token:
        token = self.tokens[self.position]
        if token.kind != "eof":
            self.position += 1
        return token

    def at(self, kind: str, text: str | None = None) -> bool:
        token = self.peek()
        return token.kind == kind and (text is None or token.text == text)

    def eat(self, kind: str, text: str | None = None) -> Token | None:
        if self.at(kind, text):
            return self.advance()
        return None

    def expect(self, kind: str, text: str | None = None) -> Token:
        token = self.peek()
        if not self.at(kind, text):
            wanted = text or kind
            raise ParseError(
                f"expected {wanted!r} but found {token.text or token.kind!r}",
                token.line,
                token.column,
            )
        return self.advance()

    def expect_eof(self) -> None:
        token = self.peek()
        if token.kind != "eof":
            raise ParseError(
                f"unexpected trailing input {token.text!r}", token.line, token.column
            )

    def fail(self, message: str) -> ParseError:
        token = self.peek()
        return ParseError(message, token.line, token.column)

    # -- grammar ---------------------------------------------------------------

    def term(self) -> cc.Term:
        # Every nested term passes through here.  An error aborts the whole
        # parse, so the depth needs no restoring on the way out.
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.fail(f"term nests deeper than {MAX_NESTING} levels")
        if self.at("symbol", "\\") or self.at("keyword", "fun"):
            term = self.lambda_()
        elif self.at("keyword", "forall"):
            term = self.quantifier(cc.Pi)
        elif self.at("keyword", "exists"):
            term = self.quantifier(cc.Sigma)
        elif self.at("keyword", "let"):
            term = self.let_()
        elif self.at("keyword", "if"):
            term = self.if_()
        else:
            term = self.arrow()
        self.depth -= 1
        return term

    def binders(self) -> list[tuple[str, cc.Term]]:
        """One or more ``(x y : A)`` groups, flattened."""
        entries: list[tuple[str, cc.Term]] = []
        while self.at("symbol", "("):
            save = self.position
            self.advance()
            names: list[str] = []
            while self.at("ident"):
                names.append(self.advance().text)
            if not names or not self.at("symbol", ":"):
                # Not a binder group after all (e.g. a parenthesized term
                # in 'fun (f) ...' is illegal anyway, but binders may stop
                # before the body's opening paren).
                self.position = save
                break
            self.advance()  # ':'
            annotation = self.term()
            self.expect("symbol", ")")
            entries.extend((name, annotation) for name in names)
        return entries

    def lambda_(self) -> cc.Term:
        self.advance()  # '\' or 'fun'
        entries = self.binders()
        if not entries:
            raise self.fail("λ requires at least one '(x : A)' binder")
        self.expect("symbol", ".")
        body = self.term()
        for name, annotation in reversed(entries):
            body = cc.Lam(name, annotation, body)
        return body

    def quantifier(self, node: type) -> cc.Term:
        self.advance()  # 'forall' / 'exists'
        entries = self.binders()
        if not entries:
            raise self.fail("quantifier requires at least one '(x : A)' binder")
        self.expect("symbol", ",")
        body = self.term()
        for name, annotation in reversed(entries):
            body = node(name, annotation, body)
        return body

    def let_(self) -> cc.Term:
        self.advance()  # 'let'
        name = self.expect("ident").text
        self.expect("symbol", "=")
        bound = self.term()
        self.expect("symbol", ":")
        annotation = self.term()
        self.expect("keyword", "in")
        body = self.term()
        return cc.Let(name, bound, annotation, body)

    def if_(self) -> cc.Term:
        self.advance()  # 'if'
        cond = self.term()
        self.expect("keyword", "then")
        then_branch = self.term()
        self.expect("keyword", "else")
        else_branch = self.term()
        return cc.If(cond, then_branch, else_branch)

    def arrow(self) -> cc.Term:
        left = self.app()
        if self.eat("symbol", "->"):
            right = self.term()
            return cc.arrow(left, right)
        return left

    def app(self) -> cc.Term:
        head = self.prefix()
        while self._starts_atom():
            head = cc.App(head, self.prefix())
        return head

    def _starts_atom(self) -> bool:
        token = self.peek()
        if token.kind in ("ident", "number"):
            return True
        if token.kind == "symbol" and token.text in ("(", "<"):
            return True
        if token.kind == "keyword" and token.text in (
            "fst",
            "snd",
            "succ",
            "natelim",
            "Type",
            "Kind",
            "Bool",
            "Nat",
            "true",
            "false",
        ):
            return True
        return False

    def prefix(self) -> cc.Term:
        # Iterative, so a long ``fst``/``snd``/``succ`` chain costs no stack.
        wrappers: list[type] = []
        while self.at("keyword") and self.peek().text in _PREFIX_NODES:
            wrappers.append(_PREFIX_NODES[self.advance().text])
        term = self.atom()
        for node in reversed(wrappers):
            term = node(term)
        return term

    def atom(self) -> cc.Term:
        token = self.peek()
        if token.kind == "ident":
            self.advance()
            return cc.Var(token.text)
        if token.kind == "number":
            self.advance()
            return cc.nat_literal(int(token.text))
        if token.kind == "keyword":
            match token.text:
                case "Type":
                    self.advance()
                    return cc.Star()
                case "Kind":
                    self.advance()
                    return cc.Box()
                case "Bool":
                    self.advance()
                    return cc.Bool()
                case "Nat":
                    self.advance()
                    return cc.Nat()
                case "true":
                    self.advance()
                    return cc.BoolLit(True)
                case "false":
                    self.advance()
                    return cc.BoolLit(False)
                case "natelim":
                    return self.natelim()
        if self.eat("symbol", "<"):
            first = self.term()
            self.expect("symbol", ",")
            second = self.term()
            self.expect("symbol", ">")
            self.expect("keyword", "as")
            annotation = self.prefix()
            return cc.Pair(first, second, annotation)
        if self.eat("symbol", "("):
            inner = self.term()
            self.expect("symbol", ")")
            return inner
        raise self.fail(f"unexpected {token.text or token.kind!r}")

    def natelim(self) -> cc.Term:
        self.expect("keyword", "natelim")
        self.expect("symbol", "(")
        motive = self.term()
        self.expect("symbol", ",")
        base = self.term()
        self.expect("symbol", ",")
        step = self.term()
        self.expect("symbol", ",")
        target = self.term()
        self.expect("symbol", ")")
        return cc.NatElim(motive, base, step, target)
