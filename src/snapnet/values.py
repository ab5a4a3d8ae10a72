"""Value domain shared by the whole pipeline.

A value is one of:

  * int            -- 64-bit signed integer (range-checked on arithmetic)
  * Atom           -- interned symbolic constant (protocol names, True/False, ...)
  * IPv4Address    -- stdlib ipaddress type
  * IPv4Network    -- prefix literal such as 10.0.6.0/24
  * tuple          -- non-empty tuple of values

Booleans are represented as the atoms ``True``/``False`` rather than Python
bools: ``True == 1`` and ``hash(True) == hash(1)`` in Python, which would
silently conflate store cells indexed by 1 vs True.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass

from .shape import Tagged, check

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
    if isinstance(v, int):
        return {"t": "int", "v": v}
    if isinstance(v, Atom):
        return {"t": "atom", "v": v.name}
    if isinstance(v, IPv4Address):
        return {"t": "ip", "v": str(v)}
    if isinstance(v, IPv4Network):
        return {"t": "prefix", "v": str(v)}
    if isinstance(v, tuple):
        return {"t": "tuple", "v": [value_to_json(x) for x in v]}
    raise TypeError(f"not a value: {v!r}")


def value_from_loose(x):
    """Accept untagged JSON scalars: ints stay ints, strings become
    addresses/prefixes when they parse as such, atoms otherwise.  Tagged
    dicts (of shape `VALUE`) and non-empty lists (tuples) are handled
    too."""
    if isinstance(x, bool):
        return TRUE if x else FALSE
    if isinstance(x, int):
        return check_int_range(x)
    if isinstance(x, dict):
        return value_from_json(check(x, VALUE))
    if isinstance(x, list):
        return _tuple(value_from_loose(e) for e in x)
    if isinstance(x, str):
        try:
            if "/" in x:
                return IPv4Network(x)
            return IPv4Address(x)
        except ValueError:
            return Atom(x)
    raise TypeError(f"cannot interpret {x!r} as a value")


# the JSON form of a value, as `value_to_json` writes it
VALUE = Tagged("t", {"int": {"v": int}, "atom": {"v": str}, "ip": {"v": str},
                     "prefix": {"v": str}, "tuple": {}})
VALUE.cases["tuple"]["v"] = [VALUE]


def _tuple(items) -> tuple:
    """tuple(items); ValueError if that is empty, which is no value."""
    out = tuple(items)
    if not out:
        raise ValueError("an empty tuple is not a value")
    return out


def value_from_json(d):
    """The value of a `VALUE`; OverflowError for an int beyond 64 bits,
    ValueError for an empty tuple."""
    if d["t"] == "tuple":
        return _tuple(value_from_json(x) for x in d["v"])
    return {"int": check_int_range, "atom": Atom, "ip": IPv4Address,
            "prefix": IPv4Network}[d["t"]](d["v"])
