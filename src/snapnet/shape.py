"""One reader, `check`, for every JSON input against its shape table.

Each table sits beside its input's decoder.  A shape is `str`, `bool`,
`int`, `float` or `dict`: a JSON string, bool, integer, number (one a
float can hold) or object, where no integer or number is a bool;
`object`, any JSON value (a value's slot, which its decoder reads with
`values.value_from_json`); a set of strings, one of them; `[s]`, a list
of s; `(s1, s2)`, a list of exactly those; `{str: s}`, an object of s
values; another dict, an object of exactly its keys, where a key ending
in `?` may be left out; or a `Tagged`.  A table that holds itself is
closed after it is built.
"""

from __future__ import annotations

import sys

from .errors import InputError

_NAMES = {str: "a string", bool: "true or false", int: "an int",
          float: "a number", dict: "an object", list: "a list"}


class Tagged:
    """An object whose `key` selects its case: `cases` maps each tag to
    the class such an object stands for and the shape of its other keys,
    which are that class's fields."""

    def __init__(self, key: str, cases: dict):
        self.key, self.cases = key, cases


def check(value, shape, where: str = ""):
    """`value` if it has `shape`; else InputError naming the first part
    that has not by its path from the top of the input (`where`, "" at
    the top), its key and its value.  An object's missing keys are
    reported before its unknown ones."""
    if shape is object:
        return value
    if isinstance(shape, Tagged):
        tag, cases = shape.key, shape.cases
        shape = {tag: set(cases)}
        if isinstance(value, dict) and tag in value:
            check(value[tag], shape[tag], f"{where}.{tag}" if where else tag)
            shape.update(cases[value[tag]][1])
    typ = (str if isinstance(shape, set) else list if isinstance(
        shape, (list, tuple)) else shape if isinstance(shape, type) else dict)
    # to Python, a bool is an int
    fits = isinstance(value, typ) and (typ is bool) == isinstance(value, bool)
    if typ is float and type(value) is int:  # no int a float cannot hold
        fits = abs(value) <= sys.float_info.max
    name = _NAMES[typ]
    if isinstance(shape, set):
        fits, name = fits and value in shape, " or ".join(
            f'"{s}"' for s in sorted(shape))
    elif isinstance(shape, tuple):
        fits = fits and len(value) == len(shape)
        name = f"a list of {len(shape)}"
    if not fits:
        text = repr(value)
        text = text[:57] + "..." if len(text) > 60 else text
        raise InputError(f"{where} {text} is not {name}".lstrip())
    if typ is list:
        for i, (item, s) in enumerate(zip(value, shape * len(value) if
                                          isinstance(shape, list) else shape)):
            check(item, s, f"{where}[{i}]")
    elif isinstance(shape, dict):
        if str not in shape:
            missing = [k for k in shape
                       if not k.endswith("?") and k not in value]
            unknown = sorted(k for k in value if k.endswith("?")
                             or k not in shape and k + "?" not in shape)
            for problem, keys in (("missing", missing), ("unknown", unknown)):
                if keys:
                    place = f" in an object at {where}" if where else ""
                    raise InputError(f"{problem} key {keys[0]!r}{place}")
        for k, item in value.items():
            check(item, shape[str] if str in shape else shape[k] if k in shape
                  else shape[k + "?"], f"{where}.{k}" if where else k)
    return value
