"""Guard against regrowth of the library surface: every public function,
method or module-level constant defined under src/smallball/ is referenced
somewhere in src, so that a subcommand can reach it, or is listed below with
the reason it stays."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "smallball"

# Public functions with no reference in src, and why each stays.
ALLOWED = {
    "gap_materialize": "perfbench's tracer wraps gaps.gap_materialize",
    "substream": "perfbench's tracer wraps experiments.substream",
    "poly_gcd_degree_modp": "perfbench's tracer wraps arith.poly_gcd_degree_modp",
    "general": "acceptance criteria build sign laws with SignDistribution.general",
    "empirical_cdf": "acceptance criteria read LsvSamples.empirical_cdf",
}

# Public module-level constants with no reference in src, and why each stays.
ALLOWED_CONSTANTS = {
    "REPORT_SCHEMA": "the tests validate every report against cli.REPORT_SCHEMA",
}


def _trees():
    return {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}


def _used(trees) -> set:
    """Every name read in src, bare or as an attribute (an assignment's own
    target does not count)."""
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def _assert_referenced(defined: dict, used: set, allowed: dict):
    unreferenced = {f: where for f, where in defined.items() if f not in used}
    assert sorted(set(unreferenced) - set(allowed)) == [], unreferenced
    # an allowlist entry that is referenced again, or no longer defined, goes
    assert sorted(set(allowed) - set(unreferenced)) == []


def test_every_public_function_is_referenced_in_src():
    trees = _trees()
    defined = {}
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not node.name.startswith("_")):
                defined.setdefault(node.name, f"{name}:{node.lineno}")
    _assert_referenced(defined, _used(trees), ALLOWED)


def test_every_public_module_constant_is_referenced_in_src():
    trees = _trees()
    defined = {}
    for name, tree in trees.items():
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name) and not leaf.id.startswith("_"):
                        defined.setdefault(leaf.id, f"{name}:{node.lineno}")
    assert {"ATOM_BUDGET", "SWEEP_CELL_BUDGET", "REPORT_SCHEMA"} <= set(defined)
    _assert_referenced(defined, _used(trees), ALLOWED_CONSTANTS)
