"""The package keeps zero runtime dependencies: every module it imports
is in the standard library."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "snapnet"


def imported_modules() -> set:
    """The top-level module of each absolute import in `src/snapnet`."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                out.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                out.add(node.module.split(".")[0])
    return out


def test_every_import_is_in_the_standard_library():
    mods = imported_modules()
    assert len(mods) >= 10, sorted(mods)
    assert sorted(mods - sys.stdlib_module_names) == []
