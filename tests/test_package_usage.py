"""Every public module-level function and every public method of a
module-level class in permvar is used by the package itself (a case, the CLI
or another library function), or is on the allow-list below with the reason
it is kept. A new helper that only its own tests call fails here."""

import ast
from collections import Counter
from pathlib import Path

import permvar

SRC = Path(permvar.__file__).parent

ALLOWED = {
    "groebner.save_ideal_file": "writes the ideal-file format the CLI reads (load_ideal_file)",
    "permanent.matrix_to_json": "writes the matrix JSON form the CLI reads (matrix_from_json)",
    "linalg.rref_fraction": "exact RREF over QQ, derived from rank_kernel; a benchmark layer metric",
    "ring.PolyRing.from_exp_dict": "inverse of MPoly.exp_terms; the tests' polynomial constructor",
}


def _names(node) -> Counter:
    """How often each name is used below ``node``, as a variable or an
    attribute (imports and definitions are not uses)."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _definitions(tree):
    """``(qualified name, node)`` for each top-level function and each method
    of a top-level class."""
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            yield top.name, top
        elif isinstance(top, ast.ClassDef):
            for node in top.body:
                if isinstance(node, ast.FunctionDef):
                    yield f"{top.name}.{node.name}", node


def _unreferenced(trees: dict) -> set:
    """``module.name`` for each public function or method whose name is used
    nowhere outside its own definition."""
    uses = Counter()
    for tree in trees.values():
        uses.update(_names(tree))
    return {
        f"{mod}.{qual}"
        for mod, tree in trees.items()
        for qual, node in _definitions(tree)
        if not node.name.startswith("_") and uses[node.name] == _names(node)[node.name]
    }


def test_detector_ignores_recursion_and_counts_module_level_use():
    src = "def lonely():\n    return lonely()\n\ndef used():\n    return 1\n\nvalue = used()\n"
    assert _unreferenced({"m": ast.parse(src)}) == {"m.lonely"}


def test_detector_covers_methods():
    src = (
        "class C:\n"
        "    def __init__(self):\n        self.helper()\n"
        "    def helper(self):\n        return 1\n"
        "    def lonely(self):\n        return self.lonely()\n"
        "    @property\n    def size(self):\n        return 2\n"
        "\ndef f(c):\n    return c.size\n"
    )
    assert _unreferenced({"m": ast.parse(src)}) == {"m.C.lonely", "m.f"}


def test_every_public_function_is_used_or_allowed():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    unused = _unreferenced(trees)
    assert not unused - set(ALLOWED), sorted(unused - set(ALLOWED))
    # an entry that is now used (or gone) must leave the allow-list
    assert not set(ALLOWED) - unused, sorted(set(ALLOWED) - unused)
