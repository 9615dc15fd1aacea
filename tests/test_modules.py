import ast
from pathlib import Path

import sparsedl

SOURCES = Path(sparsedl.__file__).parent


def test_private_imports_across_modules_are_pinned():
    """Every ``from .m import _name`` in the package: a private helper
    belongs beside the code that calls it, so this set may only shrink.
    The training gather stays apart from ``extract_patches``, which the
    coding bands alone go through."""
    found = set()
    for path in sorted(SOURCES.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                found |= {
                    (path.stem, node.module, alias.name) for alias in node.names if alias.name.startswith("_")
                }
    assert found == {
        ("cli", "experiments", "_TABLE_SETTINGS"),
        ("denoise", "patches", "_GRID_ROWS"),
        ("denoise", "patches", "_check_geometry"),
        ("denoise", "patches", "_gather_patches"),
        ("experiments", "patches", "_gather_patches"),
    }


def test_each_public_name_has_one_home():
    """The package re-exports nothing: ``__init__.py`` imports no submodule
    and defines no function, and every name a module lists in its
    ``__all__`` is bound at its top level by ``def``, ``class`` or an
    assignment, never by an import."""
    init = ast.parse((SOURCES / "__init__.py").read_text(encoding="utf-8"))
    for node in ast.walk(init):
        assert not (isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("sparsedl")))
        assert not (isinstance(node, ast.Import) and any(a.name.startswith("sparsedl") for a in node.names))
        assert not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    for path in sorted(SOURCES.glob("*.py")):
        defined, imported, exported = set(), set(), set()
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {t.id for t in targets if isinstance(t, ast.Name)}
                defined |= names
                if "__all__" in names:
                    exported = set(ast.literal_eval(node.value))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        assert exported <= defined - imported, (path.stem, exported - (defined - imported))


def test_finiteness_has_one_gate():
    """Whether a value is finite is decided in ``exceptions`` alone: no other
    module names ``isfinite`` or ``isinf``, of NumPy or of ``math``, or
    catches ``OverflowError``.  The file reader is exempt, since a
    non-finite entry in a file is a format error there."""
    found = set()
    for path in sorted(SOURCES.glob("*.py")):
        if path.stem in ("exceptions", "io"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("isfinite", "isinf"):
                found.add((path.stem, node.attr))
            elif isinstance(node, ast.ImportFrom) and {"isfinite", "isinf"} & {a.name for a in node.names}:
                found.add((path.stem, node.module))
            elif isinstance(node, ast.ExceptHandler):  # a bare except, or one that covers OverflowError
                caught = {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)} if node.type else {"*"}
                if caught & {"*", "OverflowError", "ArithmeticError", "Exception", "BaseException"}:
                    found.add((path.stem, "except " + ",".join(sorted(caught))))
    assert not found
