"""Every module-level function and class in the package has a caller in the
package: code that only the tests call belongs with the tests, as the
reference formulas in theory.py do."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "stabledyn"

# names kept without a caller in the package, each with its reason
ALLOWED = {
    "integrate.rk4_solve": "the benchmark harness's layer timings call the single-trajectory "
                           "solve; it goes once they time rk4_solve_batch",
    "field.eval_decay": "the field's public decay f(x) of F(x, u) = f(x)(x - g(x, u))",
    "field.eval_target": "the field's public target g(x, u), the equilibrium map",
}


def _uses(node) -> set[str]:
    """Names loaded, and attribute names read, anywhere under ``node``."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
            or isinstance(n, ast.Attribute)}


def _uncalled() -> list[str]:
    """"module.name" of each module-level function and class that no other
    top-level statement of the package refers to."""
    statements = []  # (qualified name or None, names it uses), per top-level statement
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            defines = isinstance(node, (ast.FunctionDef, ast.ClassDef))
            statements.append((f"{path.stem}.{node.name}" if defines else None, _uses(node)))
    return [qual for qual, _ in statements if qual is not None
            and not any(qual.split(".")[1] in uses for other, uses in statements
                        if other != qual)]


def test_every_definition_has_a_caller_in_the_package():
    uncalled = _uncalled()
    assert [qual for qual in uncalled if qual not in ALLOWED] == []
    # an allowed name that gains a caller, or is deleted, leaves the list
    assert sorted(ALLOWED) == sorted(qual for qual in uncalled if qual in ALLOWED)
