"""Policy language: AST, recursive-descent parser, and pretty-printer.

Grammar summary (full EBNF in docs/grammar.md).  Operator precedence from
loosest to tightest binding (`_OPS`, read by the parser and the printer):
`+`  `|`  `;`  `&`  `!`.  `if ... then ... else`
branches extend as far right as possible, so a sequenced `if` needs parens:
`(if a then p else q); r`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import ParseError
from .values import (
    Atom, FALSE, IPv4Address, IPv4Network, TRUE, check_int_range,
    format_value, is_value,
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

@dataclass(frozen=True)
class Token:
    kind: str      # IDENT NUM IP PREFIX SYM KEYWORD EOF
    text: str
    line: int
    col: int


def _is_ident_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _is_ident_char(c: str) -> bool:
    return c.isalnum() or c in "._"


def tokenize(src: str) -> list:
    toks: list = []
    i, line, col = 0, 1, 1
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and src[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if c.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            # dotted-quad lookahead: 10.0.6.0 or 10.0.6.0/24
            if j < n and src[j] == "." and j + 1 < n and src[j + 1].isdigit():
                k = j
                dots = 0
                while k < n and (src[k].isdigit() or src[k] == "."):
                    if src[k] == ".":
                        dots += 1
                    k += 1
                if dots == 3:
                    text = src[i:k]
                    if k < n and src[k] == "/" and k + 1 < n and src[k + 1].isdigit():
                        k += 1
                        m = k
                        while m < n and src[m].isdigit():
                            m += 1
                        toks.append(Token("PREFIX", text + "/" + src[k:m],
                                          start_line, start_col))
                        col += m - i
                        i = m
                        continue
                    toks.append(Token("IP", text, start_line, start_col))
                    col += k - i
                    i = k
                    continue
                raise ParseError(f"malformed address literal near {src[i:k]!r}",
                                 start_line, start_col)
            toks.append(Token("NUM", src[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if _is_ident_start(c):
            j = i + 1
            while j < n:
                if _is_ident_char(src[j]):
                    j += 1
                elif (src[j] == "-" and j + 1 < n
                      and (src[j + 1].isalnum() or src[j + 1] == "_")):
                    j += 2
                else:
                    break
            text = src[i:j]
            kind = "KEYWORD" if text in KEYWORDS else "IDENT"
            toks.append(Token(kind, text, start_line, start_col))
            col += j - i
            i = j
            continue
        two = src[i:i + 2]
        if two in ("<-", "++", "--"):
            toks.append(Token("SYM", two, start_line, start_col))
            i += 2
            col += 2
            continue
        if c in ";+|&!(){}[]=,:":
            toks.append(Token("SYM", c, start_line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(Token("EOF", "", line, col))
    return toks


# ---------------------------------------------------------------- parser

# the value of each numeric token kind, and its name in an error
_NUMBERS = {"NUM": (lambda text: check_int_range(int(text)), "number"),
            "IP": (IPv4Address, "address"), "PREFIX": (IPv4Network, "prefix")}


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
        raise ParseError(f"bad {name} literal: {e}", t.line, t.col)


class _Parser:
    def __init__(self, toks: list):
        self.toks = toks
        self.pos = 0
        self.states: dict = {}
        self.fields: dict = {}

    # -- token helpers
    def peek(self, k: int = 0) -> Token:
        return self.toks[min(self.pos + k, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.peek()
        return t.kind == kind and (text is None or t.text == text)

    def expect(self, kind: str, text: str | None = None) -> Token:
        t = self.peek()
        if not self.at(kind, text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {t.text or t.kind!r}",
                             t.line, t.col)
        return self.next()

    def err(self, msg: str) -> ParseError:
        t = self.peek()
        return ParseError(msg, t.line, t.col)

    # -- program
    def program(self) -> Program:
        while self.at("KEYWORD", "state") or self.at("KEYWORD", "field"):
            if self.at("KEYWORD", "state"):
                self.state_decl()
            else:
                self.field_decl()
        assumption = None
        if self.at("KEYWORD", "assume"):
            self.next()
            # Parsed at predicate level (no bare `;`), so the terminating
            # `;` is unambiguous.  Sequencing inside parentheses still works.
            assumption = self.predicate()
            self.expect("SYM", ";")
            if not is_predicate(assumption):
                raise self.err("assumption must be a predicate")
        body = self.policy()
        self.expect("EOF")
        prog = Program(states=dict(self.states), fields=dict(self.fields),
                       assumption=assumption, body=body)
        _validate(prog)
        return prog

    def state_decl(self) -> None:
        self.expect("KEYWORD", "state")
        name = self.expect("IDENT").text
        self.expect("SYM", "[")
        arity = _number(self.expect("NUM"))
        self.expect("SYM", "]")
        self.expect("KEYWORD", "default")
        default = self.literal()
        self.expect("SYM", ";")
        if arity < 1:
            raise self.err(f"state {name}: arity must be >= 1")
        if name in self.states:
            raise self.err(f"duplicate state declaration {name}")
        self.states[name] = StateDecl(name, arity, default)

    def field_decl(self) -> None:
        self.expect("KEYWORD", "field")
        name = self.expect("IDENT").text
        kind = None
        domain = None
        if self.at("SYM", ":"):
            self.next()
            kind = self.expect("IDENT").text
        if self.at("KEYWORD", "in"):
            self.next()
            self.expect("SYM", "{")
            vals = [self.literal()]
            while self.at("SYM", ","):
                self.next()
                vals.append(self.literal())
            self.expect("SYM", "}")
            domain = tuple(vals)
        self.expect("SYM", ";")
        if name in self.fields:
            raise self.err(f"duplicate field declaration {name}")
        self.fields[name] = FieldDecl(name, kind, domain)

    # -- literals / exprs
    def literal(self):
        t = self.peek()
        if t.kind in _NUMBERS:
            self.next()
            return _number(t)
        if t.kind == "KEYWORD" and t.text in ("True", "False"):
            self.next()
            return TRUE if t.text == "True" else FALSE
        if t.kind == "IDENT":
            self.next()
            return Atom(t.text)
        raise self.err(f"expected a value literal, found {t.text or t.kind!r}")

    def test_value(self):
        """Value position of `f = v` / `f <- v`: bare idents are atoms, but a
        declared field name here is almost certainly a mistake."""
        t = self.peek()
        if t.kind == "IDENT" and self._known_field(t.text):
            raise self.err(f"field {t.text!r} in value position "
                           "(field-to-field tests are not source syntax)")
        return self.literal()

    def _known_field(self, name: str) -> bool:
        return name in self.fields or name in IMPLICIT_FIELDS

    def expr(self) -> Expr:
        t = self.peek()
        sp = Span(t.line, t.col)
        if self.at("SYM", "("):
            self.next()
            items = [self.expr()]
            while self.at("SYM", ","):
                self.next()
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
            if self.at("SYM", "!"):
                t = self.next()
                return Neg(self.chain(ops), span=Span(t.line, t.col))
            return self.primary()
        (sym, node), rest = ops[0], ops[1:]
        p = self.chain(rest)
        while self.at("SYM", sym):
            t = self.next()
            p = node(p, self.chain(rest), span=Span(t.line, t.col))
        return p

    def primary(self) -> Policy:
        t = self.peek()
        sp = Span(t.line, t.col)
        if self.at("SYM", "("):
            self.next()
            p = self.policy()
            self.expect("SYM", ")")
            return p
        if self.at("KEYWORD", "id"):
            self.next()
            return Id(span=sp)
        if self.at("KEYWORD", "drop"):
            self.next()
            return Drop(span=sp)
        if self.at("KEYWORD", "if"):
            self.next()
            cond = self.policy()
            self.expect("KEYWORD", "then")
            then = self.policy()
            self.expect("KEYWORD", "else")
            els = self.policy()
            return If(cond, then, els, span=sp)
        if self.at("KEYWORD", "atomic"):
            self.next()
            self.expect("SYM", "{")
            body = self.policy()
            self.expect("SYM", "}")
            return Atomic(body, span=sp)
        if t.kind == "IDENT":
            return self.name_form()
        raise self.err(f"expected a policy, found {t.text or t.kind!r}")

    def name_form(self) -> Policy:
        t = self.expect("IDENT")
        sp = Span(t.line, t.col)
        name = t.text
        if self.at("SYM", "["):
            idx = self.brackets(sp)
            if self.at("SYM", "<-"):
                self.next()
                return StateSet(name, idx, self.expr(), span=sp)
            if self.at("SYM", "++"):
                self.next()
                return Incr(name, idx, span=sp)
            if self.at("SYM", "--"):
                self.next()
                return Decr(name, idx, span=sp)
            if self.at("SYM", "="):
                self.next()
                return StateTest(name, idx, self.expr(), span=sp)
            # bare s[e] in test position means s[e] = True
            return StateTest(name, idx, Lit(TRUE), span=sp)
        if self.at("SYM", "="):
            self.next()
            return Test(name, self.test_value(), span=sp)
        if self.at("SYM", "<-"):
            self.next()
            return Mod(name, self.test_value(), span=sp)
        raise self.err(f"dangling identifier {name!r} "
                       "(expected '=', '<-', or '[')")

    def brackets(self, sp: Span) -> Expr:
        parts = []
        while self.at("SYM", "["):
            self.next()
            parts.append(self.expr())
            self.expect("SYM", "]")
        if len(parts) == 1:
            return parts[0]
        return TupleExpr(tuple(parts), span=sp)


def expr_arity(e: Expr) -> int:
    return len(e.items) if isinstance(e, TupleExpr) else 1


def _validate(prog: Program) -> None:
    known_fields = set(prog.field_names())

    def check_expr(e: Expr, sp):
        if isinstance(e, FieldRef) and e.name not in known_fields:
            raise _spanned(f"unknown field {e.name!r}", sp or e.span)
        if isinstance(e, TupleExpr):
            for x in e.items:
                check_expr(x, sp)

    def check_state(n, sp):
        decl = prog.states.get(n.var)
        if decl is None:
            raise _spanned(f"undeclared state variable {n.var!r}", sp)
        if expr_arity(n.index) != decl.arity:
            raise _spanned(
                f"state {n.var!r} has arity {decl.arity}, "
                f"index has arity {expr_arity(n.index)}", sp)

    def go(p):
        sp = getattr(p, "span", None)
        if isinstance(p, (Test, Mod)):
            if p.field not in known_fields:
                raise _spanned(f"unknown field {p.field!r}", sp)
            if not is_value(p.value):
                raise _spanned(f"bad value in {p.field!r} test/mod", sp)
        elif isinstance(p, (StateTest, StateSet)):
            check_state(p, sp)
            check_expr(p.index, sp)
            check_expr(p.rhs, sp)
        elif isinstance(p, (Incr, Decr)):
            check_state(p, sp)
            check_expr(p.index, sp)
        elif isinstance(p, Neg):
            if not is_predicate(p.p):
                raise _spanned("negation of a non-predicate", sp)
            go(p.p)
        elif isinstance(p, (Or, And)):
            if not (is_predicate(p.p) and is_predicate(p.q)):
                op = "|" if isinstance(p, Or) else "&"
                raise _spanned(f"non-predicate operand of {op!r}", sp)
            go(p.p)
            go(p.q)
        elif isinstance(p, (Par, Seq)):
            go(p.p)
            go(p.q)
        elif isinstance(p, If):
            if not is_predicate(p.cond):
                raise _spanned("if-condition must be a predicate", sp)
            go(p.cond)
            go(p.then)
            go(p.els)
        elif isinstance(p, Atomic):
            if _has_atomic(p.p):
                raise _spanned("nested atomic block", sp)
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


def _spanned(msg: str, sp: Span | None) -> ParseError:
    if sp is None:
        sp = Span(0, 0)
    return ParseError(msg, sp.line, sp.col)


def parse(text: str) -> Program:
    return _Parser(tokenize(text)).program()


def compose(a: Program, b: Program) -> Program:
    """Sequence two programs: declarations merged (duplicates must agree),
    assumptions conjoined, bodies sequenced (`id` bodies elided)."""
    states = dict(a.states)
    for name, d in b.states.items():
        if name in states and states[name] != d:
            raise ParseError(f"conflicting declarations for state {name!r}",
                             0, 0)
        states[name] = d
    fields = dict(a.fields)
    for name, d in b.fields.items():
        if name in fields and fields[name] != d:
            raise ParseError(f"conflicting declarations for field {name!r}",
                             0, 0)
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
    prog = Program(states=states, fields=fields, assumption=assumption,
                   body=body)
    _validate(prog)
    return prog


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
