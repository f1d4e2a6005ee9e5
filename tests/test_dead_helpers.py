"""No orphaned private helper: every private function, class, method and
module-level constant (_NAME = ...) defined under src/ is referenced from
src/ code, as a name read, an attribute or an import.  Docstrings and
comments are not code, and a caller in tests/ alone does not count: a
helper or constant whose last reader went is deleted with it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def unreferenced_private_definitions(root):
    """(file:line, name) of each private def, class or module-level constant
    under root that no Name read, Attribute or import under root refers
    to, in file and line order."""
    defined, used = [], set()
    for path in sorted(Path(root).rglob("*.py")):
        where = path.relative_to(root)
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(where, node.lineno, name.id) for target in targets
                            for name in ast.walk(target)
                            if isinstance(name, ast.Name) and _private(name.id)]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if _private(node.name):
                    defined.append((where, node.lineno, node.name))
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
    return [(f"{where}:{line}", name) for where, line, name in sorted(defined)
            if name not in used]


def test_every_private_helper_in_src_has_a_caller_in_src():
    assert unreferenced_private_definitions(SRC) == []


def test_a_helper_named_only_in_a_docstring_or_a_test_is_found(tmp_path):
    src, tests = tmp_path / "src", tmp_path / "tests"
    src.mkdir()
    tests.mkdir()
    (src / "lib.py").write_text(
        '"""_dead, _Class._unused and _UNREAD are described here."""\n\n'
        "_UNREAD, _READ = 1, 2  # _UNREAD\n"
        "_TYPED: int = 3\n\n\n"
        "def _dead():\n    return 0  # _unused\n\n\n"
        "def _called():\n    return 1\n\n\n"
        "class _Class:\n    def _unused(self):\n        return 2\n\n"
        "    def _used(self):\n        return 3\n\n\n"
        "def public():\n    return _called() + _Class()._used() + _READ\n")
    (src / "other.py").write_text("from .lib import _Class\n")
    (tests / "test_lib.py").write_text("from lib import _dead, _UNREAD, _TYPED\n\n_dead()\n")
    assert unreferenced_private_definitions(src) == [("lib.py:3", "_UNREAD"),
                                                     ("lib.py:4", "_TYPED"),
                                                     ("lib.py:7", "_dead"),
                                                     ("lib.py:16", "_unused")]
