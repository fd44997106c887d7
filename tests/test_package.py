"""Package layout: what its modules import from each other, and what it exports."""
import ast
from pathlib import Path

import twreach

PACKAGE = Path(twreach.__file__).parent


def _sibling_imports(path):
    """(module, name) for each name the file imports from a twreach module."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "twreach"):
            for alias in node.names:
                yield node.module, alias.name


def test_no_module_imports_a_private_name_from_a_sibling():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) > 5
    private = [(path.name, module, name) for path in files
               for module, name in _sibling_imports(path) if name.startswith("_")]
    assert private == []


def test_test_only_oracles_stay_in_the_engine():
    for name in ("AncestorOrder", "GadView", "ancestor_vertices", "gad_view"):
        assert name not in twreach.__all__ and not hasattr(twreach, name)
        assert hasattr(twreach.engine, name)
