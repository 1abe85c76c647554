"""Every module-level function and class in the package, and every
non-dunder method and property of its classes, has a caller in the
package: code that only the tests call belongs with the tests, as the
reference formulas in theory.py do."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "stabledyn"

# names kept without a caller in the package, each with its reason
ALLOWED = {
    "integrate.rk4_solve": "the benchmark harness's layer timings call the single-trajectory "
                           "solve; it goes once they time rk4_solve_batch",
    "field.eval_target": "the field's public target g(x, u), the equilibrium map",
}


def _uses(node) -> tuple[set[str], set[str]]:
    """Names loaded, and attribute names read, anywhere under ``node``."""
    nodes = list(ast.walk(node))
    return ({n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)},
            {n.attr for n in nodes if isinstance(n, ast.Attribute)})


def _units():
    """(top-level statement index, qualified name or None, names, attributes)
    per unit of the package: each top-level statement, except that a class
    splits into its own body and one unit per method. A method's qualified
    name is "module.Class.method"; dunder methods get None."""
    units = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            owner = len(units)
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                units.append((owner, None, *_uses(node)))
                continue
            qual = f"{path.stem}.{node.name}"
            if isinstance(node, ast.FunctionDef):
                units.append((owner, qual, *_uses(node)))
                continue
            methods = [m for m in node.body if isinstance(m, ast.FunctionDef)]
            rest = node.bases + node.decorator_list + [s for s in node.body if s not in methods]
            names, attrs = set(), set()
            for part in rest:
                n, a = _uses(part)
                names, attrs = names | n, attrs | a
            units.append((owner, qual, names, attrs))
            for m in methods:
                dunder = m.name.startswith("__") and m.name.endswith("__")
                units.append((owner, None if dunder else f"{qual}.{m.name}", *_uses(m)))
    return units


def _uncalled() -> list[str]:
    """Qualified name of each module-level function and class that no other
    top-level statement of the package refers to, and of each member whose
    name no other unit reads as an attribute."""
    units = _units()
    uncalled = []
    for owner, qual, _, _ in units:
        if qual is None:
            continue
        name = qual.rsplit(".", 1)[1]
        if qual.count(".") == 1:  # module level: used by name or as module.name
            used = any(name in names | attrs for other, _, names, attrs in units
                       if other != owner)
        else:  # a member is read as an attribute, from anywhere but itself
            used = any(name in attrs for _, other, _, attrs in units if other != qual)
        if not used:
            uncalled.append(qual)
    return uncalled


def test_every_definition_has_a_caller_in_the_package():
    uncalled = _uncalled()
    assert [qual for qual in uncalled if qual not in ALLOWED] == []
    # an allowed name that gains a caller, or is deleted, leaves the list
    assert sorted(ALLOWED) == sorted(qual for qual in uncalled if qual in ALLOWED)
