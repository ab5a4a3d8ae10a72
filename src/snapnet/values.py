"""Value domain shared by the whole pipeline.

A value is one of:

  * int            -- 64-bit signed integer (range-checked on arithmetic)
  * Atom           -- interned symbolic constant (protocol names, True/False, ...)
  * IPv4Address    -- stdlib ipaddress type
  * IPv4Network    -- prefix literal such as 10.0.6.0/24
  * tuple          -- non-empty tuple of values

A value has one JSON form, which bundles, traces and `snapnet simulate`'s
output share (`value_to_json`, `value_from_json`): 80, true, "tcp",
"10.0.1.10", "10.0.6.0/24", ["10.0.1.10", 80].

Booleans are represented as the atoms ``True``/``False`` rather than Python
bools: ``True == 1`` and ``hash(True) == hash(1)`` in Python, which would
silently conflate store cells indexed by 1 vs True.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass

IPv4Address = ipaddress.IPv4Address
IPv4Network = ipaddress.IPv4Network

INT_MIN = -(2**63)
INT_MAX = 2**63 - 1


@dataclass(frozen=True, slots=True)
class Atom:
    name: str

    def __repr__(self) -> str:
        return f"Atom({self.name})"


TRUE = Atom("True")
FALSE = Atom("False")


def is_value(v) -> bool:
    if isinstance(v, bool):
        return False
    if isinstance(v, (int, Atom, IPv4Address, IPv4Network)):
        return True
    if isinstance(v, tuple):
        return len(v) >= 1 and all(is_value(x) for x in v)
    return False


def check_int_range(n: int) -> int:
    if not (INT_MIN <= n <= INT_MAX):
        raise OverflowError(f"integer out of 64-bit signed range: {n}")
    return n


def canon_key(v):
    """Deterministic total-order key over all values (type-tagged)."""
    if isinstance(v, bool):  # defensive: bools should never appear
        raise TypeError("raw bool is not a value; use values.TRUE/FALSE")
    if isinstance(v, int):
        return (0, v)
    if isinstance(v, Atom):
        return (1, v.name)
    if isinstance(v, IPv4Address):
        return (2, int(v))
    if isinstance(v, IPv4Network):
        return (3, int(v.network_address), v.prefixlen)
    if isinstance(v, tuple):
        return (4,) + tuple(canon_key(x) for x in v)
    raise TypeError(f"not a value: {v!r}")


def values_equal(a, b) -> bool:
    """Tagged equality; an address never equals the int with the same bits."""
    return canon_key(a) == canon_key(b)


def in_prefix(v, p: IPv4Network) -> bool:
    return isinstance(v, IPv4Address) and v in p


def test_match(field_value, test_value) -> bool:
    """Semantics of the field-test ``f = v``: containment when v is a prefix."""
    if isinstance(test_value, IPv4Network):
        return in_prefix(field_value, test_value)
    return values_equal(field_value, test_value)


def format_value(v) -> str:
    if isinstance(v, int):
        return str(v)
    if isinstance(v, Atom):
        return v.name
    if isinstance(v, (IPv4Address, IPv4Network)):
        return str(v)
    if isinstance(v, tuple):
        return "(" + ", ".join(format_value(x) for x in v) + ")"
    raise TypeError(f"not a value: {v!r}")


def value_to_json(v):
    """The JSON form of a value, in bundles, traces and output alike: an
    int; true or false for the atoms True and False; a string for any
    other atom, an address or a prefix; a list for a tuple."""
    if isinstance(v, int):
        return v
    if isinstance(v, Atom):
        return {"True": True, "False": False}.get(v.name, v.name)
    if isinstance(v, (IPv4Address, IPv4Network)):
        return str(v)
    if isinstance(v, tuple):
        return [value_to_json(x) for x in v]
    raise TypeError(f"not a value: {v!r}")


def value_from_json(x):
    """The value whose JSON form (`value_to_json`) is `x`: a string is a
    prefix if it holds a `/`, else an address if it parses as one, else
    an atom.  ValueError if `x` is no value's form (an object, a float,
    null, an empty list, or a string of digits, dots and slashes that is
    no address or prefix, such as "80"); OverflowError for an int beyond
    64 bits."""
    if isinstance(x, bool):
        return TRUE if x else FALSE
    if isinstance(x, int):
        return check_int_range(x)
    if isinstance(x, list):
        out = tuple(value_from_json(e) for e in x)
        if not out:
            raise ValueError("an empty tuple is not a value")
        return out
    if isinstance(x, str):
        try:
            return IPv4Network(x) if "/" in x else IPv4Address(x)
        except ValueError:
            if set(x) <= set("0123456789./"):
                raise ValueError(f"{x!r} is not an address or a prefix")
            return Atom(x)
    raise ValueError(f"cannot interpret {x!r} as a value")
