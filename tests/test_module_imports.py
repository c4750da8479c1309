"""What one module of the package uses of another is that module's public
names: no module imports an underscore name from another."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "multireg"


def _private_imports(path):
    """(line, module, name) of each underscore name that ``path`` imports from
    a module of the package; dunders such as ``__version__`` are public."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "multireg"):
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.endswith("__"):
                    yield node.lineno, node.module, alias.name


def test_no_module_imports_a_private_name_of_another():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    found = [f"{path.name}:{line}: {name} from {module or '.'}" for path in modules
             for line, module, name in _private_imports(path)]
    assert found == []
