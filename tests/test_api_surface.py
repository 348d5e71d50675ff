"""Guard against regrowth of the library surface: every public function or
method defined under src/smallball/ is referenced somewhere in src, so that
a subcommand can reach it, or is listed below with the reason it stays."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "smallball"

# Public names with no reference in src, and why each stays.
ALLOWED = {
    "gap_materialize": "perfbench's tracer wraps gaps.gap_materialize",
    "substream": "perfbench's tracer wraps experiments.substream",
    "poly_gcd_degree_modp": "perfbench's tracer wraps arith.poly_gcd_degree_modp",
    "general": "acceptance criteria build sign laws with SignDistribution.general",
    "empirical_cdf": "acceptance criteria read LsvSamples.empirical_cdf",
}


def _trees():
    return {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}


def test_every_public_function_is_referenced_in_src():
    trees = _trees()
    used = set()
    defined = {}
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not node.name.startswith("_")):
                defined.setdefault(node.name, f"{name}:{node.lineno}")
    unreferenced = {f: where for f, where in defined.items() if f not in used}
    assert sorted(set(unreferenced) - set(ALLOWED)) == [], unreferenced
    # an allowlist entry that is referenced again, or no longer defined, goes
    assert sorted(set(ALLOWED) - set(unreferenced)) == []
