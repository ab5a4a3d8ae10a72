"""Policy language: AST, tokenizer, recursive-descent parser, and
pretty-printer.

Grammar summary (full EBNF in docs/grammar.md).  Operator precedence from
loosest to tightest binding (`_OPS`, read by the parser and the printer):
`+`  `|`  `;`  `&`  `!`.  `if ... then ... else`
branches extend as far right as possible, so a sequenced `if` needs parens:
`(if a then p else q); r`.  A token, a span and a ParseError are at
`line:column`; a column counts characters from the start of its line.

`parse` is the one place a program is checked (`_validate`, listed in
docs/grammar.md): a parsed program is valid, `compose` keeps it valid,
and no later stage checks again what the checks guarantee.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

from .errors import ParseError
from .values import (
    Atom, FALSE, IPv4Address, IPv4Network, TRUE, check_int_range,
    format_value,
)


# ---------------------------------------------------------------- AST

@dataclass(frozen=True)
class Span:
    line: int
    col: int


def _span_field():
    return dc_field(default=None, compare=False, repr=False)


def hash_once(cls):
    """`dataclass(frozen=True)` over cls, whose instances hash once: each
    computes the dataclass's hash, over the fields it compares (never a
    span), at construction and answers every later lookup from it.  The
    diagram builder looks such nodes up again and again, and a value
    inside one (an address) hashes in Python code.  cls's own
    `__post_init__` runs first."""
    own = cls.__dict__.get("__post_init__")

    def __post_init__(self):
        if own is not None:
            own(self)
        object.__setattr__(self, "_hash", fields_hash(self))

    def __hash__(self):
        return self._hash

    cls.__post_init__ = __post_init__   # before: the __init__ calls it
    cls = dataclass(frozen=True)(cls)
    fields_hash = cls.__hash__
    cls.__hash__ = __hash__
    return cls


# Expressions -------------------------------------------------------

@hash_once
class Lit:
    value: object
    span: Span | None = _span_field()


@hash_once
class FieldRef:
    name: str
    span: Span | None = _span_field()


@hash_once
class TupleExpr:
    items: tuple
    span: Span | None = _span_field()


Expr = Lit | FieldRef | TupleExpr


# Policies ----------------------------------------------------------

@dataclass(frozen=True)
class Id:
    span: Span | None = _span_field()


@dataclass(frozen=True)
class Drop:
    span: Span | None = _span_field()


@dataclass(frozen=True)
class Test:
    field: str
    value: object
    span: Span | None = _span_field()


@dataclass(frozen=True)
class Neg:
    p: "Policy"
    span: Span | None = _span_field()


@dataclass(frozen=True)
class Or:
    p: "Policy"
    q: "Policy"
    span: Span | None = _span_field()


@dataclass(frozen=True)
class And:
    p: "Policy"
    q: "Policy"
    span: Span | None = _span_field()


@dataclass(frozen=True)
class StateTest:
    var: str
    index: Expr
    rhs: Expr
    span: Span | None = _span_field()


@hash_once
class Mod:
    field: str
    value: object
    span: Span | None = _span_field()


@hash_once
class StateSet:
    var: str
    index: Expr
    rhs: Expr
    span: Span | None = _span_field()


@hash_once
class Incr:
    var: str
    index: Expr
    span: Span | None = _span_field()


@hash_once
class Decr:
    var: str
    index: Expr
    span: Span | None = _span_field()


@dataclass(frozen=True)
class Par:
    p: "Policy"
    q: "Policy"
    span: Span | None = _span_field()


@dataclass(frozen=True)
class Seq:
    p: "Policy"
    q: "Policy"
    span: Span | None = _span_field()


@dataclass(frozen=True)
class If:
    cond: "Policy"
    then: "Policy"
    els: "Policy"
    span: Span | None = _span_field()


@dataclass(frozen=True)
class Atomic:
    p: "Policy"
    span: Span | None = _span_field()


Policy = (
    Id | Drop | Test | Neg | Or | And | StateTest | Mod | StateSet
    | Incr | Decr | Par | Seq | If | Atomic
)


# The binary operators from loosest to tightest binding, all
# left-associative; `!` binds tighter than any of them.  The parser and the
# printer both read this table.
_OPS = (("+", Par), ("|", Or), (";", Seq), ("&", And))
_PREDICATE_OPS = tuple(op for op in _OPS if op[1] in (Or, And))


@dataclass(frozen=True)
class StateDecl:
    name: str
    arity: int
    default: object


@dataclass(frozen=True)
class FieldDecl:
    name: str
    kind: str | None = None            # "int" | "ip" | "atom" | None
    domain: tuple | None = None        # finite domain, if declared


IMPLICIT_FIELDS = ("inport", "outport")


@dataclass(frozen=True)
class Program:
    states: dict
    fields: dict
    assumption: Policy | None
    body: Policy

    def field_names(self) -> tuple:
        names = list(self.fields)
        for f in IMPLICIT_FIELDS:
            if f not in self.fields:
                names.append(f)
        return tuple(names)

    def domain_of(self, field: str):
        d = self.fields.get(field)
        return d.domain if d else None

    @property
    def policy(self) -> Policy:
        """The whole program as one policy: the assumption, a filter on
        the input packet, sequenced before the body."""
        if self.assumption is None:
            return self.body
        return Seq(self.assumption, self.body)


def is_state_op(p) -> bool:
    """Whether p updates a state cell: an assignment, increment or
    decrement."""
    return isinstance(p, (StateSet, Incr, Decr))


def is_predicate(p: Policy) -> bool:
    if isinstance(p, (Id, Drop, Test, StateTest)):
        return True
    if isinstance(p, Neg):
        return is_predicate(p.p)
    if isinstance(p, (Or, And)):
        return is_predicate(p.p) and is_predicate(p.q)
    return False


# ---------------------------------------------------------------- lexer

KEYWORDS = {
    "id", "drop", "if", "then", "else", "atomic",
    "state", "field", "default", "assume", "in", "True", "False",
}

class Token(NamedTuple):
    kind: str      # IDENT NUM IP PREFIX SYM KEYWORD EOF
    text: str
    line: int
    col: int


# an identifier's tail: letters, digits, `_` and `.`, and each `-` that a
# letter, digit or `_` follows (`\w` is exactly `str.isalnum()` or `_`)
_IDENT_TAIL = re.compile(r"(?:[\w.]|-(?=\w))*")


def _digits(src: str, i: int) -> int:
    """The end of the run of digits (`str.isdigit`) that starts at i."""
    n = len(src)
    while i < n and src[i].isdigit():
        i += 1
    return i


def tokenize(src: str) -> list:
    """The tokens of src, each at its line and at its column, which
    counts characters from the start of its line (from 1)."""
    toks: list = []
    i, line, start = 0, 1, 0        # start: the offset its line starts at
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            i += 1
            line, start = line + 1, i
            continue
        if c in " \t\r":
            i += 1
            continue
        if c == "#":
            i = src.find("\n", i)
            if i < 0:
                i = n
            continue
        col = i - start + 1
        if c.isdigit():
            kind, j = "NUM", _digits(src, i)
            # a dotted quad, 10.0.6.0, or a prefix, 10.0.6.0/24
            if src[j:j + 1] == "." and src[j + 1:j + 2].isdigit():
                kind, dots = "IP", 0
                while src[j:j + 1] == ".":
                    j = _digits(src, j + 1)
                    dots += 1
                if dots != 3:
                    raise ParseError("malformed address literal near "
                                     f"{src[i:j]!r}", line, col)
                if src[j:j + 1] == "/" and src[j + 1:j + 2].isdigit():
                    kind, j = "PREFIX", _digits(src, j + 1)
        elif c.isalpha() or c == "_":
            j = _IDENT_TAIL.match(src, i + 1).end()
            kind = "KEYWORD" if src[i:j] in KEYWORDS else "IDENT"
        elif src.startswith(("<-", "++", "--"), i):
            kind, j = "SYM", i + 2
        elif c in ";+|&!(){}[]=,:":
            kind, j = "SYM", i + 1
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
        toks.append(Token(kind, src[i:j], line, col))
        i = j
    toks.append(Token("EOF", "", line, n - start + 1))
    return toks


# ---------------------------------------------------------------- parser

# the value of each numeric token kind, and its name in an error
_NUMBERS = {"NUM": (lambda text: check_int_range(int(text)), "number"),
            "IP": (IPv4Address, "address"), "PREFIX": (IPv4Network, "prefix")}


def _error(at: Token | Span, msg: str) -> ParseError:
    return ParseError(msg, at.line, at.col)


def _number(t: Token):
    """The value of a numeric token; a ParseError at the token when its
    text is no such value (an octet above 255, an empty octet, an integer
    outside the 64-bit signed range, or a digit other than ASCII 0-9,
    such as a superscript or an Arabic-Indic one)."""
    make, name = _NUMBERS[t.kind]
    try:
        if not t.text.isascii():
            raise ValueError(f"{t.text!r} has a digit other than 0-9")
        return make(t.text)
    except (OverflowError, ValueError) as e:
        raise _error(t, f"bad {name} literal: {e}")


class _Parser:
    def __init__(self, toks: list):
        self.toks = toks
        self.pos = 0
        self.states: dict = {}
        self.fields: dict = {}

    # -- token helpers
    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.peek()
        return t.kind == kind and (text is None or t.text == text)

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        """The next token, consumed, if it is of this kind (and text)."""
        if self.at(kind, text):
            return self.next()
        return None

    def expect(self, kind: str, text: str | None = None) -> Token:
        t = self.accept(kind, text)
        if t is None:
            t = self.peek()
            raise _error(t, f"expected {text or kind!r}, "
                            f"found {t.text or t.kind!r}")
        return t

    # -- program
    def program(self) -> Program:
        while t := (self.accept("KEYWORD", "state")
                    or self.accept("KEYWORD", "field")):
            (self.state_decl if t.text == "state" else self.field_decl)()
        assumption = None
        if self.accept("KEYWORD", "assume"):
            # Parsed at predicate level (no bare `;`), so the terminating
            # `;` is unambiguous.  Sequencing inside parentheses still works.
            first = self.peek()
            assumption = self.predicate()
            self.expect("SYM", ";")
            if not is_predicate(assumption):
                raise _error(first, "assumption must be a predicate")
        body = self.policy()
        self.expect("EOF")
        prog = Program(states=dict(self.states), fields=dict(self.fields),
                       assumption=assumption, body=body)
        _validate(prog)
        return prog

    def state_decl(self) -> None:
        name = self.expect("IDENT")
        self.expect("SYM", "[")
        num = self.expect("NUM")
        arity = _number(num)
        self.expect("SYM", "]")
        self.expect("KEYWORD", "default")
        default = self.literal()
        self.expect("SYM", ";")
        if arity < 1:
            raise _error(num, f"state {name.text}: arity must be >= 1")
        if name.text in self.states:
            raise _error(name, f"duplicate state declaration {name.text}")
        self.states[name.text] = StateDecl(name.text, arity, default)

    def field_decl(self) -> None:
        name = self.expect("IDENT")
        kind = None
        domain = None
        if self.accept("SYM", ":"):
            kind = self.expect("IDENT").text
        if self.accept("KEYWORD", "in"):
            self.expect("SYM", "{")
            vals = [self.literal()]
            while self.accept("SYM", ","):
                vals.append(self.literal())
            self.expect("SYM", "}")
            domain = tuple(vals)
        self.expect("SYM", ";")
        if name.text in self.fields:
            raise _error(name, f"duplicate field declaration {name.text}")
        self.fields[name.text] = FieldDecl(name.text, kind, domain)

    # -- literals / exprs
    def literal(self):
        t = self.next()
        if t.kind in _NUMBERS:
            return _number(t)
        if t.kind == "KEYWORD" and t.text in ("True", "False"):
            return TRUE if t.text == "True" else FALSE
        if t.kind == "IDENT":
            return Atom(t.text)
        raise _error(t, "expected a value literal, "
                        f"found {t.text or t.kind!r}")

    def test_value(self):
        """Value position of `f = v` / `f <- v`: bare idents are atoms, but a
        declared field name here is almost certainly a mistake."""
        t = self.peek()
        if t.kind == "IDENT" and self._known_field(t.text):
            raise _error(t, f"field {t.text!r} in value position "
                            "(field-to-field tests are not source syntax)")
        return self.literal()

    def _known_field(self, name: str) -> bool:
        return name in self.fields or name in IMPLICIT_FIELDS

    def expr(self) -> Expr:
        t = self.peek()
        sp = Span(t.line, t.col)
        if self.accept("SYM", "("):
            items = [self.expr()]
            while self.accept("SYM", ","):
                items.append(self.expr())
            self.expect("SYM", ")")
            if len(items) == 1:
                return items[0]
            return TupleExpr(tuple(items), span=sp)
        if t.kind == "IDENT" and self._known_field(t.text):
            self.next()
            return FieldRef(t.text, span=sp)
        return Lit(self.literal(), span=sp)

    # -- policy precedence chain: _OPS, then `!`
    def policy(self) -> Policy:
        return self.chain(_OPS)

    def predicate(self) -> Policy:
        """The `|` `&` `!` levels only (used after `assume`)."""
        return self.chain(_PREDICATE_OPS)

    def chain(self, ops: tuple) -> Policy:
        """A left-associative chain of ops[0]'s operator over chains of
        ops[1:]; with no operators left, a `!` or a primary."""
        if not ops:
            if t := self.accept("SYM", "!"):
                return Neg(self.chain(ops), span=Span(t.line, t.col))
            return self.primary()
        (sym, node), rest = ops[0], ops[1:]
        p = self.chain(rest)
        while t := self.accept("SYM", sym):
            p = node(p, self.chain(rest), span=Span(t.line, t.col))
        return p

    def primary(self) -> Policy:
        t = self.peek()
        sp = Span(t.line, t.col)
        if self.accept("SYM", "("):
            p = self.policy()
            self.expect("SYM", ")")
            return p
        if self.accept("KEYWORD", "id"):
            return Id(span=sp)
        if self.accept("KEYWORD", "drop"):
            return Drop(span=sp)
        if self.accept("KEYWORD", "if"):
            cond = self.policy()
            self.expect("KEYWORD", "then")
            then = self.policy()
            self.expect("KEYWORD", "else")
            els = self.policy()
            return If(cond, then, els, span=sp)
        if self.accept("KEYWORD", "atomic"):
            self.expect("SYM", "{")
            body = self.policy()
            self.expect("SYM", "}")
            return Atomic(body, span=sp)
        if t.kind == "IDENT":
            return self.name_form()
        raise _error(t, f"expected a policy, found {t.text or t.kind!r}")

    def name_form(self) -> Policy:
        t = self.expect("IDENT")
        sp = Span(t.line, t.col)
        name = t.text
        if self.at("SYM", "["):
            idx = self.brackets(sp)
            if self.accept("SYM", "<-"):
                return StateSet(name, idx, self.expr(), span=sp)
            if self.accept("SYM", "++"):
                return Incr(name, idx, span=sp)
            if self.accept("SYM", "--"):
                return Decr(name, idx, span=sp)
            if self.accept("SYM", "="):
                return StateTest(name, idx, self.expr(), span=sp)
            # bare s[e] in test position means s[e] = True
            return StateTest(name, idx, Lit(TRUE), span=sp)
        if self.accept("SYM", "="):
            return Test(name, self.test_value(), span=sp)
        if self.accept("SYM", "<-"):
            return Mod(name, self.test_value(), span=sp)
        raise _error(self.peek(), f"dangling identifier {name!r} "
                                  "(expected '=', '<-', or '[')")

    def brackets(self, sp: Span) -> Expr:
        parts = []
        while self.accept("SYM", "["):
            parts.append(self.expr())
            self.expect("SYM", "]")
        if len(parts) == 1:
            return parts[0]
        return TupleExpr(tuple(parts), span=sp)


def expr_arity(e: Expr) -> int:
    return len(e.items) if isinstance(e, TupleExpr) else 1


def _validate(prog: Program) -> None:
    known_fields = set(prog.field_names())

    def go(p):
        sp = p.span
        if isinstance(p, (Test, Mod)):
            if p.field not in known_fields:
                raise _error(sp, f"unknown field {p.field!r}")
        elif isinstance(p, (StateTest, StateSet, Incr, Decr)):
            decl = prog.states.get(p.var)
            if decl is None:
                raise _error(sp, f"undeclared state variable {p.var!r}")
            if expr_arity(p.index) != decl.arity:
                raise _error(sp, f"state {p.var!r} has arity {decl.arity}, "
                                 f"index has arity {expr_arity(p.index)}")
        elif isinstance(p, Neg):
            if not is_predicate(p.p):
                raise _error(sp, "negation of a non-predicate")
            go(p.p)
        elif isinstance(p, (Or, And)):
            if not (is_predicate(p.p) and is_predicate(p.q)):
                op = "|" if isinstance(p, Or) else "&"
                raise _error(sp, f"non-predicate operand of {op!r}")
            go(p.p)
            go(p.q)
        elif isinstance(p, (Par, Seq)):
            go(p.p)
            go(p.q)
        elif isinstance(p, If):
            if not is_predicate(p.cond):
                raise _error(sp, "if-condition must be a predicate")
            go(p.cond)
            go(p.then)
            go(p.els)
        elif isinstance(p, Atomic):
            if _has_atomic(p.p):
                raise _error(sp, "nested atomic block")
            go(p.p)

    if prog.assumption is not None:
        go(prog.assumption)
    go(prog.body)


def _has_atomic(p: Policy) -> bool:
    if isinstance(p, Atomic):
        return True
    if isinstance(p, Neg):
        return _has_atomic(p.p)
    if isinstance(p, (Or, And, Par, Seq)):
        return _has_atomic(p.p) or _has_atomic(p.q)
    if isinstance(p, If):
        return _has_atomic(p.cond) or _has_atomic(p.then) or _has_atomic(p.els)
    return False


def parse(text: str) -> Program:
    return _Parser(tokenize(text)).program()


def compose(a: Program, b: Program) -> Program:
    """Sequence two programs: declarations merged (duplicates must agree),
    assumptions conjoined, bodies sequenced (`id` bodies elided).  The
    result of two valid programs is valid, as fields and assumptions only
    join; a conflicting declaration is a ParseError without a position."""
    states = dict(a.states)
    for name, d in b.states.items():
        if name in states and states[name] != d:
            raise ParseError(f"conflicting declarations for state {name!r}")
        states[name] = d
    fields = dict(a.fields)
    for name, d in b.fields.items():
        if name in fields and fields[name] != d:
            raise ParseError(f"conflicting declarations for field {name!r}")
        fields[name] = d
    if a.assumption is None:
        assumption = b.assumption
    elif b.assumption is None:
        assumption = a.assumption
    else:
        assumption = And(a.assumption, b.assumption)
    if isinstance(a.body, Id):
        body = b.body
    elif isinstance(b.body, Id):
        body = a.body
    else:
        body = Seq(a.body, b.body)
    return Program(states=states, fields=fields, assumption=assumption,
                   body=body)


def compose_all(progs: list) -> Program:
    out = progs[0]
    for p in progs[1:]:
        out = compose(out, p)
    return out


# ---------------------------------------------------------------- pretty

def pretty_expr(e: Expr) -> str:
    if isinstance(e, Lit):
        return format_value(e.value)
    if isinstance(e, FieldRef):
        return e.name
    if isinstance(e, TupleExpr):
        return "(" + ", ".join(pretty_expr(x) for x in e.items) + ")"
    raise TypeError(f"not an expr: {e!r}")


def _idx_brackets(e: Expr) -> str:
    if isinstance(e, TupleExpr):
        return "".join(f"[{pretty_expr(x)}]" for x in e.items)
    return f"[{pretty_expr(e)}]"


def pretty_policy(p: Policy, level: int = 0) -> str:
    def wrap(text: str, my: int) -> str:
        return f"({text})" if my < level else text

    if isinstance(p, Id):
        return "id"
    if isinstance(p, Drop):
        return "drop"
    if isinstance(p, Test):
        return f"{p.field} = {format_value(p.value)}"
    if isinstance(p, Mod):
        return f"{p.field} <- {format_value(p.value)}"
    if isinstance(p, StateTest):
        head = f"{p.var}{_idx_brackets(p.index)}"
        if p.rhs == Lit(TRUE):
            return head
        return f"{head} = {pretty_expr(p.rhs)}"
    if isinstance(p, StateSet):
        return f"{p.var}{_idx_brackets(p.index)} <- {pretty_expr(p.rhs)}"
    if isinstance(p, Incr):
        return f"{p.var}{_idx_brackets(p.index)}++"
    if isinstance(p, Decr):
        return f"{p.var}{_idx_brackets(p.index)}--"
    if isinstance(p, Neg):
        return wrap(f"!{pretty_policy(p.p, len(_OPS))}", len(_OPS))
    for my, (sym, node) in enumerate(_OPS):
        if isinstance(p, node):
            lhs = pretty_policy(p.p, my)
            rhs = pretty_policy(p.q, my + 1)
            sep = "; " if sym == ";" else f" {sym} "
            return wrap(f"{lhs}{sep}{rhs}", my)
    if isinstance(p, If):
        return (f"(if {pretty_policy(p.cond)} then {pretty_policy(p.then)} "
                f"else {pretty_policy(p.els)})")
    if isinstance(p, Atomic):
        return f"atomic {{ {pretty_policy(p.p)} }}"
    raise TypeError(f"not a policy: {p!r}")


def pretty_decl(d: StateDecl | FieldDecl) -> str:
    """A state or field declaration as source, without its `;`."""
    if isinstance(d, StateDecl):
        return f"state {d.name}[{d.arity}] default {format_value(d.default)}"
    decl = f"field {d.name}"
    if d.kind:
        decl += f" : {d.kind}"
    if d.domain:
        decl += " in {" + ", ".join(format_value(v) for v in d.domain) + "}"
    return decl


def pretty(prog: Program) -> str:
    lines = [pretty_decl(d) + ";" for d in (*prog.states.values(),
                                            *prog.fields.values())]
    if prog.assumption is not None:
        lines.append(f"assume {pretty_policy(prog.assumption)};")
    lines.append(pretty_policy(prog.body))
    return "\n".join(lines) + "\n"
