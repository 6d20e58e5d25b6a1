"""Every public module-level function of permvar is used by the package
itself (a case, the CLI or another library function), or is on the
allow-list below with the reason it is kept. A new helper that only its own
tests call fails here."""

import ast
from pathlib import Path

import permvar

SRC = Path(permvar.__file__).parent

PAPER_HELPER = "paper-facing helper awaiting the ROADMAP audit: a registered case or deletion"

ALLOWED = {
    "permanent.kirkup_generators": PAPER_HELPER,
    "torus.generic_rank": PAPER_HELPER,
    "torus.limit_map": PAPER_HELPER,
    "torus.tangent_decomposition": PAPER_HELPER,
    "groebner.save_ideal_file": "writes the ideal-file format the CLI reads (load_ideal_file)",
    "permanent.matrix_to_json": "writes the matrix JSON form the CLI reads (matrix_from_json)",
    "linalg.rref_fraction": "exact RREF over QQ, derived from rank_kernel; a benchmark layer metric",
    "ring.poly_family_rank": "coefficient-matrix rank, exported from the package root",
}


def _unreferenced(trees: dict) -> set:
    """``module.function`` for each public top-level function whose name is
    used nowhere outside its own definition (imports are not uses)."""
    uses: dict = {}
    for mod, tree in trees.items():
        for top in tree.body:
            owner = (mod, getattr(top, "name", None))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    uses.setdefault(node.id, set()).add(owner)
                elif isinstance(node, ast.Attribute):
                    uses.setdefault(node.attr, set()).add(owner)
    out = set()
    for mod, tree in trees.items():
        for top in tree.body:
            if isinstance(top, ast.FunctionDef) and not top.name.startswith("_"):
                if not uses.get(top.name, set()) - {(mod, top.name)}:
                    out.add(f"{mod}.{top.name}")
    return out


def test_detector_ignores_recursion_and_counts_module_level_use():
    src = "def lonely():\n    return lonely()\n\ndef used():\n    return 1\n\nvalue = used()\n"
    assert _unreferenced({"m": ast.parse(src)}) == {"m.lonely"}


def test_every_public_function_is_used_or_allowed():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    unused = _unreferenced(trees)
    assert not unused - set(ALLOWED), sorted(unused - set(ALLOWED))
    # an entry that is now used (or gone) must leave the allow-list
    assert not set(ALLOWED) - unused, sorted(set(ALLOWED) - unused)
