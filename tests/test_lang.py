"""Parser, pretty-printer, and composition tests."""

import dataclasses
import hashlib
import pathlib
import random

import pytest

from snapnet import lang
from snapnet.errors import ParseError
from snapnet.values import Atom, FALSE, IPv4Address, IPv4Network, TRUE

from conftest import ALL_POLICIES, POLICY_DIR, policy_src
from helpers import UNIVERSE_SRC, random_policy, workload_programs


def test_round_trip_over_corpus():
    for name in ALL_POLICIES:
        prog = lang.parse(policy_src(name))
        again = lang.parse(lang.pretty(prog))
        assert again == prog, name


def test_declarations_round_trip():
    """The declarations of every example program and of the four
    benchmark workloads, printed with body `id` as a bundle's
    `program.snap` holds them, parse back to equal states and fields."""
    progs = [lang.parse(path.read_text())
             for path in sorted(pathlib.Path(POLICY_DIR).glob("*.snap"))]
    progs += workload_programs()
    assert len(progs) == 32
    for prog in progs:
        again = lang.parse(lang.pretty(lang.Program(
            prog.states, prog.fields, None, lang.Id())))
        assert (again.states, again.fields) == (prog.states, prog.fields)
        assert isinstance(again.body, lang.Id) and again.assumption is None


def test_conflict_example_parses():
    prog = lang.parse(policy_src("conflict-parallel-write"))
    assert isinstance(prog.body, lang.Par)


def test_literals():
    prog = lang.parse(
        "state s[1] default 0;\n"
        "state t[2] default 0;\n"
        "field f : ip in {10.0.1.10};\n"
        "field g : int in {1, 2};\n"
        "if f = 10.0.1.0/24 then s[1] <- hello else t[g][3] <- True"
    )
    cond = prog.body.cond
    assert cond == lang.Test("f", IPv4Network("10.0.1.0/24"))
    assert prog.body.then.rhs == lang.Lit(Atom("hello"))
    assert prog.fields["f"].domain == (IPv4Address("10.0.1.10"),)
    assert prog.body.els.index == lang.TupleExpr(
        (lang.FieldRef("g"), lang.Lit(3)))


def test_bool_literals_are_atoms():
    prog = lang.parse("state s[1] default False;\ns[0] <- True")
    assert prog.states["s"].default == FALSE
    assert prog.body.rhs == lang.Lit(TRUE)


def test_bare_state_test_desugars_to_true():
    prog = lang.parse("state s[1] default False;\nif s[0] then id else drop")
    assert prog.body.cond == lang.StateTest("s", lang.Lit(0), lang.Lit(TRUE))


def test_precedence_if_extends_right():
    prog = lang.parse("field a : small in {0, 1};\n"
                      "if a = 0 then id else a <- 1; a <- 0")
    # the trailing seq belongs to the else branch
    assert isinstance(prog.body, lang.If)
    assert isinstance(prog.body.els, lang.Seq)


def test_precedence_chain():
    prog = lang.parse("field a : small in {0, 1};\n"
                      "(a = 0 | a = 1); a <- 0 + a <- 1")
    # + binds loosest, then |, then ;
    assert isinstance(prog.body, lang.Par)
    assert isinstance(prog.body.p, lang.Seq)
    assert isinstance(prog.body.p.p, lang.Or)


def test_neg_binds_tightest():
    prog = lang.parse("field a : small in {0, 1};\n!a = 0 & a = 1")
    assert isinstance(prog.body, lang.And)
    assert isinstance(prog.body.p, lang.Neg)


def test_assume_is_predicate_level():
    prog = lang.parse("field a : small in {0, 1};\n"
                      "assume a = 0 | a = 1;\nid")
    assert isinstance(prog.assumption, lang.Or)
    with pytest.raises(ParseError):
        lang.parse("field a : small in {0, 1};\nassume a <- 0;\nid")


def test_hyphenated_identifiers():
    prog = lang.parse("state susp-client[1] default 0;\nsusp-client[0]--")
    assert isinstance(prog.body, lang.Decr)
    assert prog.body.var == "susp-client"


def test_parse_errors():
    cases = [
        "s[0] <- 1",                                  # undeclared state
        "state s[1] default 0;\ns[0][1] <- 1",        # arity mismatch
        "state s[1] default 0;\nstate s[1] default 0;\nid",   # dup decl
        "field a : small in {0, 1};\na",              # dangling identifier
        "field a : small in {0, 1};\nif a = 0 then id",  # missing else
        "field a : small in {0, 1};\n!(a <- 0)",      # negated non-predicate
        "field a : small in {0, 1};\n(a <- 0) | id",  # | on non-predicate
        "field a : small in {0, 1};\nif a <- 0 then id else id",
        "state s[1] default 0;\natomic { atomic { s[0] <- 1 } }",
        "field a : small in {0, 1};\nfield b : small in {0, 1};\na = b",
        "field a;\na = 10.0.0",                       # malformed address
    ]
    for src in cases:
        with pytest.raises(ParseError):
            lang.parse(src)


def test_parse_error_has_position():
    try:
        lang.parse("field a : small in {0, 1};\na ? 0")
    except ParseError as e:
        assert e.line == 2 and e.col >= 1
    else:
        raise AssertionError("expected a ParseError")


def test_compose_merges_declarations():
    a = lang.parse("state s[1] default 0;\nfield f : small in {0, 1};\n"
                   "s[0] <- 1")
    b = lang.parse("field f : small in {0, 1};\nfield g : small in {0};\n"
                   "assume f = 0;\nf <- 1")
    c = lang.compose(a, b)
    assert set(c.states) == {"s"} and set(c.fields) == {"f", "g"}
    assert isinstance(c.body, lang.Seq)
    assert c.assumption == b.assumption


def test_compose_elides_id_bodies():
    a = lang.parse("field f : small in {0, 1};\nassume f = 0;\nid")
    b = lang.parse("field f : small in {0, 1};\nf <- 1")
    assert lang.compose(a, b).body == b.body
    assert lang.compose(b, a).body == b.body


def test_compose_rejects_conflicting_declarations():
    a = lang.parse("field f : small in {0, 1};\nid")
    b = lang.parse("field f : small in {0, 2};\nid")
    with pytest.raises(ParseError):
        lang.compose(a, b)
    c = lang.parse("state s[1] default 0;\ns[0] <- 1")
    d = lang.parse("state s[2] default 0;\ns[0][0] <- 1")
    with pytest.raises(ParseError):
        lang.compose(c, d)


def test_compose_conjoins_assumptions():
    a = lang.parse("field f : small in {0, 1};\nassume f = 0;\nid")
    b = lang.parse("field g : small in {0, 1};\nassume g = 1;\nid")
    c = lang.compose(a, b)
    assert isinstance(c.assumption, lang.And)


def _spans(x):
    """(node type, span) of every AST node under x, in field order."""
    if isinstance(x, tuple):
        for y in x:
            yield from _spans(y)
    elif dataclasses.is_dataclass(x) and hasattr(x, "span"):
        yield type(x).__name__, x.span
        for f in dataclasses.fields(x):
            if f.name != "span":
                yield from _spans(getattr(x, f.name))


def _parse_outcome(text: str) -> tuple:
    """What parsing `text` gives: the pretty text, AST repr and spans of
    the program, or the error's type and text.  A dotted quad with an
    empty octet (`10.0..10`) passes the tokenizer and ends in a
    ParseError at the literal."""
    try:
        prog = lang.parse(text)
    except ParseError as e:
        return type(e).__name__, str(e)
    return (lang.pretty(prog), repr(prog),
            list(_spans((prog.assumption, prog.body))))


@pytest.mark.pinned
def test_parser_and_printer_are_pinned():
    """Parse outcomes over every example program, seeded `random_policy`
    programs and seeded one-character deletions of both.  The digest was
    computed with the per-level parser methods (`par`, `or_`, `seq`,
    `and_`) and the printer's own precedence table that `_OPS` replaced,
    and re-pinned when a literal that is no value became a ParseError:
    three deletions that leave an empty octet changed outcome, from
    AddressValueError to ParseError."""
    texts = [path.read_text()
             for path in sorted(pathlib.Path(POLICY_DIR).glob("*.snap"))]
    rng = random.Random("lang:pinned")
    texts += [UNIVERSE_SRC + lang.pretty_policy(random_policy(rng, 4))
              for _ in range(1000)]
    for text in list(texts):
        for _ in range(2):
            i = rng.randrange(len(text))
            texts.append(text[:i] + text[i + 1:])
    h = hashlib.sha256()
    for text in texts:
        h.update(repr(_parse_outcome(text)).encode())
        h.update(b"\n")
    assert h.hexdigest() == (
        "56931ebb5fab46e1039a16903c048b52"
        "ec3878bdf100eb23930e43a03149c2a3")
