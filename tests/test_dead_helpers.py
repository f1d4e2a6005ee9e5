"""No orphaned private helper: every private function, class and method
defined under src/ is referenced from src/ code, as a name, an attribute
or an import.  Docstrings and comments are not code, and a caller in
tests/ alone does not count: a helper whose last caller went is deleted
with it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def unreferenced_private_definitions(root):
    """(file:line, name) of each private def or class under root that no
    Name, Attribute or import under root refers to."""
    defined, used = [], set()
    for path in sorted(Path(root).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.append((f"{path.relative_to(root)}:{node.lineno}", node.name))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
    return [(where, name) for where, name in defined if name not in used]


def test_every_private_helper_in_src_has_a_caller_in_src():
    assert unreferenced_private_definitions(SRC) == []


def test_a_helper_named_only_in_a_docstring_or_a_test_is_found(tmp_path):
    src, tests = tmp_path / "src", tmp_path / "tests"
    src.mkdir()
    tests.mkdir()
    (src / "lib.py").write_text(
        '"""_dead and _Class._unused are described here."""\n\n\n'
        "def _dead():\n    return 0  # _unused\n\n\n"
        "def _called():\n    return 1\n\n\n"
        "class _Class:\n    def _unused(self):\n        return 2\n\n"
        "    def _used(self):\n        return 3\n\n\n"
        "def public():\n    return _called() + _Class()._used()\n")
    (src / "other.py").write_text("from .lib import _Class\n")
    (tests / "test_lib.py").write_text("from lib import _dead\n\n_dead()\n")
    assert unreferenced_private_definitions(src) == [("lib.py:4", "_dead"),
                                                     ("lib.py:13", "_unused")]
