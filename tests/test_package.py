"""Package layout: what its modules import from each other, and what it exports."""
import ast
from graphlib import TopologicalSorter
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


def _runtime_imports(path):
    """The twreach modules that the file imports when it runs: every import,
    in a function or not, outside `if TYPE_CHECKING:` blocks."""
    tree = ast.parse(path.read_text(), filename=str(path))
    typing_only = {id(node) for block in ast.walk(tree) if isinstance(block, ast.If)
                   and getattr(block.test, "id", None) == "TYPE_CHECKING"
                   for stmt in block.body for node in ast.walk(stmt)}
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and id(node) not in typing_only:
            if node.level:
                names = [node.module] if node.module else [a.name for a in node.names]
            elif (node.module or "").startswith("twreach."):
                names = [node.module.removeprefix("twreach.")]
            else:
                continue
            out.update(name.split(".")[0] for name in names)
    return out


def test_run_time_imports_are_acyclic():
    graph = {path.stem: _runtime_imports(path) for path in PACKAGE.glob("*.py")}
    # the leaves of the layering: the graph type and the universal sequences
    assert graph["graph"] == set() and graph["sequences"] == set()
    TopologicalSorter(graph).prepare()  # raises CycleError on a cycle


def test_no_test_module_imports_from_a_test_module():
    # shared instances come from twreach.gen, so each test module stands alone
    paths = sorted(Path(__file__).parent.glob("test_*.py"))
    assert len(paths) > 5
    found = [(path.name, name) for path in paths
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             for name in ([node.module or ""] if isinstance(node, ast.ImportFrom) else
                          [a.name for a in node.names] if isinstance(node, ast.Import) else [])
             if name.startswith("test_")]
    assert found == []
