"""No orphaned definitions under src/: every private function, class,
method and module-level constant (_NAME = ...) is read from src/ code, and
every public function, class and method from src/ or perfbench/ code (a
name, an attribute, an import, or a string in a perfbench table, which is
how its tracer names what it wraps), or is exempt below.  Docstrings,
comments and tests/ are no readers: a definition whose last reader went
is deleted with it, or moved to tests/ while tests use it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC, PERFBENCH = ROOT / "src", ROOT / "perfbench"
# the public names that nothing in src/ or perfbench/ reads, and why each stays
EXEMPT = {"invariance_residual": "the pointwise invariance defect, residual_slope's oracle",
          "mapping_gradient": "dW/dz at a point, the pointwise oracle of linear_block",
          "to_dict": "writes a built ROM to a file",
          "from_dict": "reads a ROM that to_dict wrote"}


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _scan(root):
    """Under root: (file, line, name) of each def and class and of each
    module-level constant, the names read (Name loads, attributes and
    imported names) and the constants of module-level assignments."""
    defs, consts, reads, tables = [], [], set(), set()
    for path in sorted(Path(root).rglob("*.py")):
        where, tree = path.relative_to(root), ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                consts += [(where, stmt.lineno, n.id) for n in ast.walk(stmt)
                           if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
                tables |= {n.value for n in ast.walk(stmt) if isinstance(n, ast.Constant)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((where, node.lineno, node.name))
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
            elif isinstance(node, ast.alias):
                reads.add(node.name.rsplit(".", 1)[-1])
    return defs, consts, reads, tables


def unreferenced_private_definitions(root):
    """(file:line, name) of each private def, class or module-level constant
    under root that no Name read, Attribute or import under root refers
    to, in file and line order."""
    defs, consts, reads, _ = _scan(root)
    return [(f"{where}:{line}", name) for where, line, name in sorted(defs + consts)
            if _private(name) and name not in reads]


def unreferenced_public_definitions(root, bench):
    """(file:line, name) of each public def or class under root that nothing
    under root or bench reads, nor a string in a module-level assignment
    under bench names, in file and line order."""
    defs, _, reads, _ = _scan(root)
    _, _, bench_reads, tables = _scan(bench)
    return [(f"{where}:{line}", name) for where, line, name in sorted(defs)
            if not name.startswith("_") and name not in reads | bench_reads | tables]


def test_every_private_helper_in_src_has_a_caller_in_src():
    assert unreferenced_private_definitions(SRC) == []


def test_every_public_entry_point_in_src_has_a_reader_or_an_exemption():
    # an exemption whose name gained a reader, or went, is struck
    assert sorted({name for _, name in unreferenced_public_definitions(SRC, PERFBENCH)}) == \
        sorted(EXEMPT)


def test_a_helper_named_only_in_a_docstring_or_a_test_is_found(tmp_path):
    # the public guard reads perfbench/ too: its attributes, imports and
    # trace-table strings, not a string in a function
    src, bench, tests = tmp_path / "src", tmp_path / "perfbench", tmp_path / "tests"
    for d in (src, bench, tests):
        d.mkdir()
    (src / "lib.py").write_text(
        '"""_dead, _Class._unused, _UNREAD and tested_only are described here."""\n\n'
        "_UNREAD, _READ = 1, 2  # _UNREAD\n"
        "_TYPED: int = 3\n\n\n"
        "def _dead():\n    return 0  # _unused\n\n\n"
        "def _called():\n    return 1\n\n\n"
        "class _Class:\n    def _unused(self):\n        return 2\n\n"
        "    def _used(self):\n        return 3\n\n\n"
        "def public():\n    return _called() + _Class()._used() + _READ\n\n\n"
        "def tested_only():\n    return 4\n\n\n"
        "class Model:\n    def energy(self):\n        return 5\n\n"
        "    def rhs(self):\n        return 6\n")
    (src / "other.py").write_text("from .lib import _Class\n")
    (bench / "run.py").write_text(
        "from lib import Model\n\nTABLE = [(\"lib\", None, \"public\")]\n\n\n"
        "def main():\n    return Model().rhs(\"tested_only\")\n")
    (tests / "test_lib.py").write_text("from lib import _dead, _UNREAD, _TYPED, tested_only\n\n"
                                       "_dead()\ntested_only()\n")
    assert unreferenced_private_definitions(src) == [("lib.py:3", "_UNREAD"),
                                                     ("lib.py:4", "_TYPED"),
                                                     ("lib.py:7", "_dead"),
                                                     ("lib.py:16", "_unused")]
    assert unreferenced_public_definitions(src, bench) == [("lib.py:27", "tested_only"),
                                                           ("lib.py:32", "energy")]
