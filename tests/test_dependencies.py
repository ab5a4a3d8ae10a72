"""The package keeps zero runtime dependencies: every module it imports
is in the standard library.  And the diagram builder stays inside P2:
every later phase reads the numbered diagram, not the builder's arena."""

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


def modules_reaching_the_arena() -> set:
    """The modules of `src/snapnet` that name `Builder` (as a name, an
    attribute or an import) or read an `.arena` attribute."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Name) and node.id == "Builder"
                    or isinstance(node, ast.alias) and node.name == "Builder"
                    or isinstance(node, ast.Attribute)
                    and node.attr in ("Builder", "arena")):
                out.add(path.name)
    return out


def test_only_the_diagram_build_reaches_the_arena():
    """`xfdd` builds the diagram and `rulegen.diagram` numbers it; no
    other module names the builder or reads its arena."""
    assert modules_reaching_the_arena() == {"xfdd.py", "rulegen.py"}
