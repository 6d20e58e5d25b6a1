"""Every module-level function and every method of a module-level class in
permvar, public or private (dunders aside), is used by the package itself (a
case, the CLI or another library function), or is on the allow-list below
with the reason it is kept. A new helper that only its own tests call, or a
private helper a merge left behind, fails here."""

import ast
from collections import Counter
from pathlib import Path

import permvar

SRC = Path(permvar.__file__).parent

ALLOWED = {
    "linalg.rref_fraction": "exact RREF over QQ, derived from rank_kernel; a benchmark layer metric",
    "linalg.kernel_basis": "perfbench traces it",
    "ring._Pack.divides": (
        "the divisibility test that groebner's reducer scan and pair update inline; "
        "test_groebner_reference's reference engine calls it"
    ),
}


def _module_aliases(tree, modules) -> set:
    """Names that ``tree`` binds to modules: every ``import`` and every
    ``from ... import m`` of a permvar module ``m``."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            out.update(a.asname or a.name.partition(".")[0] for a in n.names)
        elif isinstance(n, ast.ImportFrom):
            out.update(a.asname or a.name for a in n.names if a.name in modules)
    return out


def _uses(node, own: str, aliases: set) -> Counter:
    """Uses below ``node``, a part of module ``own``.  A module-level function
    is keyed ``(module, name)`` and used through ``module.name``,
    ``from .module import name``, or a bare ``name`` in its own module.  A
    method is keyed ``(None, name)`` and used through any attribute that is
    not an attribute of an imported module.  Definitions are not uses."""
    uses = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            uses[own, n.id] += 1
        elif isinstance(n, ast.Attribute):
            if isinstance(n.value, ast.Name) and n.value.id in aliases:
                uses[n.value.id, n.attr] += 1
            else:
                uses[None, n.attr] += 1
        elif isinstance(n, ast.ImportFrom) and n.module:
            mod = n.module.rpartition(".")[2]
            uses.update((mod, a.name) for a in n.names)
    return uses


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


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _unreferenced(trees: dict) -> set:
    """``module.name`` for each function or method, public or private but no
    dunder, that is used nowhere outside its own definition."""
    aliases = {mod: _module_aliases(tree, set(trees)) for mod, tree in trees.items()}
    uses = Counter()
    for mod, tree in trees.items():
        uses.update(_uses(tree, mod, aliases[mod]))
    unused = set()
    for mod, tree in trees.items():
        for qual, node in _definitions(tree):
            key = (None if "." in qual else mod, node.name)
            own = _uses(node, mod, aliases[mod])[key]
            if not _is_dunder(node.name) and uses[key] == own:
                unused.add(f"{mod}.{qual}")
    return unused


def _private_reads(tree, modules) -> set:
    """``module.name`` for each underscore-prefixed name of a permvar module
    that ``tree`` imports from it or reads as an attribute of it."""
    mods, out = {}, set()
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and n.level and n.module:
            mod = n.module.rpartition(".")[2]
            out.update(f"{mod}.{a.name}" for a in n.names if a.name.startswith("_"))
        elif isinstance(n, ast.ImportFrom) and n.level:
            mods.update((a.asname or a.name, a.name) for a in n.names if a.name in modules)
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
            if n.value.id in mods and n.attr.startswith("_"):
                out.add(f"{mods[n.value.id]}.{n.attr}")
    return out


def test_private_read_detector():
    src = (
        "import json\n"
        "from . import a, b as bee\n"
        "from .c import _hidden, shown\n"
        "x = a._helper(json._default_encoder, bee.public, a.public)\n"
        "y = bee._other\n"
    )
    assert _private_reads(ast.parse(src), {"a", "b", "c"}) == {"a._helper", "b._other", "c._hidden"}


def test_cli_reads_no_private_name_of_another_module():
    """The CLI runs the library through its public functions; reaching for a
    private helper means it is rebuilding a runner that should be public."""
    modules = {p.stem for p in SRC.glob("*.py")}
    assert not _private_reads(ast.parse((SRC / "cli.py").read_text()), modules)


def test_expansion_keys_are_spelled_only_in_ring():
    """Only ``ring`` knows how its column-subset expansion keys a (row set,
    column set) pair; every other module reads an expansion through
    ``ring._read``."""
    modules = {p.stem for p in SRC.glob("*.py")}
    key_format = {"ring._subset_key", "ring._bits"}
    readers = {
        p.stem: sorted(_private_reads(ast.parse(p.read_text()), modules) & key_format)
        for p in sorted(SRC.glob("*.py"))
        if p.stem != "ring"
    }
    assert not any(readers.values()), readers


def test_lead_ideal_is_read_only_in_groebner():
    """Only ``groebner`` walks the leading-term ideal; every other module
    takes its invariants (dimension, codimension, degree, an independent
    set) from ``groebner``'s functions, which read the Hilbert numerator."""
    readers = {
        p.stem: sum(
            isinstance(n, ast.Attribute) and n.attr == "lead_ideal"
            for n in ast.walk(ast.parse(p.read_text()))
        )
        for p in sorted(SRC.glob("*.py"))
        if p.stem != "groebner"
    }
    assert not any(readers.values()), readers


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


def test_detector_covers_private_helpers():
    """A private function or method that nothing else calls is found dead as
    a public one is, whether it is used in its own module or imported by
    another; a dunder is called by Python itself and never reported."""
    a = (
        "class C:\n"
        "    def __init__(self):\n        self._used()\n"
        "    def __eq__(self, other):\n        return True\n"
        "    def _used(self):\n        return 1\n"
        "    def _lonely(self):\n        return self._lonely()\n"
        "def _orphan(rows):\n    return rows\n"
        "def _shared():\n    return C()\n"
    )
    b = "from .a import _shared\nvalue = _shared()\n"
    trees = {"a": ast.parse(a), "b": ast.parse(b)}
    assert _unreferenced(trees) == {"a.C._lonely", "a._orphan"}


def test_detector_is_not_fooled_by_a_shared_name():
    """A method named like ``operator.mul`` and a function named like a class
    attribute are still found dead: an attribute of an imported module is not
    a method use, and an attribute of anything else is not a function use."""
    a = (
        "class Pack:\n"
        "    def mul(self, a, b):\n        return a + b\n"
        "    def size(self):\n        return 1\n"
        "def kernel_basis(rows):\n    return rows\n"
        "def rank(rows):\n    return len(rows)\n"
    )
    b = (
        "import operator\n"
        "from . import a\n"
        "class Report:\n    kernel_basis = ()\n"
        "product = operator.mul(2, 3)\n"
        "basis = Report().kernel_basis\n"
        "size = a.Pack().size() + a.rank([])\n"
    )
    trees = {"a": ast.parse(a), "b": ast.parse(b)}
    assert _unreferenced(trees) == {"a.Pack.mul", "a.kernel_basis"}


def test_every_public_function_is_used_or_allowed():
    """Private helpers included: a merge that leaves one uncalled fails here."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    unused = _unreferenced(trees)
    assert not unused - set(ALLOWED), sorted(unused - set(ALLOWED))
    # an entry that is now used (or gone) must leave the allow-list
    assert not set(ALLOWED) - unused, sorted(set(ALLOWED) - unused)
