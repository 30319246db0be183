"""The package's layering and surface, read from the source alone.

Nothing here imports exactweil: both checks parse src/exactweil/*.py.
"""

import ast
import pathlib
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "exactweil"

# Each module imports only from the modules before it.  The package's
# __init__ re-exports the scalar API and sits above them all.
ORDER = ("numth", "exact", "lattice", "jordan", "metaplectic", "weilrep", "checks", "cli",
         "__init__")

# Module-level names that nothing in src/ calls, each kept for a reason.
ALLOWED_UNREFERENCED = {
    "rho_closed_odd",  # perfbench's worker and acceptance test 02 call it
    "iota_lift",       # the local splitting iota_p: acceptance test 08
    "i_map",           # the real-to-dyadic cover comparison: acceptance test 08
    "gamma4_lift",     # the Gamma_1(4) splitting: acceptance test 08
    "cgxde_form",      # the Kubota cocycle's five-case closed form: acceptance test 07
    "direct_sum",      # rho of L1 + L2 is rho_L1 tensor rho_L2: the direct-sum tests
}


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sorted(SRC.glob("*.py"))}


def _imported_modules(tree):
    """The package modules a module imports, by `from .X import` or
    `from . import X`, each with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for name in [node.module] if node.module else [a.name for a in node.names]:
                yield name, node.lineno


def _used_names(node) -> Counter:
    """How often each identifier is read as a name or an attribute in node."""
    used = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            used[sub.attr] += 1
    return used


def test_modules_import_only_lower_layers():
    trees = _trees()
    assert set(trees) == set(ORDER)
    wrong = [(module, target, line)
             for module, tree in trees.items()
             for target, line in _imported_modules(tree)
             if ORDER.index(target) >= ORDER.index(module)]
    assert not wrong, wrong


def test_every_module_level_name_is_used_in_src():
    trees = _trees().values()
    used = sum(map(_used_names, trees), Counter())
    unreferenced = {node.name for tree in trees for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and used[node.name] == _used_names(node)[node.name]}
    assert unreferenced == ALLOWED_UNREFERENCED
