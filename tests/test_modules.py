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
