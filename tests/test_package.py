"""Guards on the package's code as a whole."""

import ast
from pathlib import Path

import knotpoly

PACKAGE = Path(knotpoly.__file__).resolve().parent

# The paper's checks, which only the acceptance criteria and the bench call.
ONLY_CALLED_FROM_OUTSIDE = {"jaeger.lemma_check", "jaeger.proof_chain_check"}


def _referenced(node: ast.AST):
    """The name a node reads, as a bare name or an attribute, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def test_no_package_api_only_tests_call():
    """Every module-level function and class, and every method that is not
    a dunder, is named by some package module other than `__init__`,
    outside its own definition: no code exists only for the tests."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    uses: dict = {}
    for module, tree in trees.items():
        if module != "__init__":
            for node in ast.walk(tree):
                name = _referenced(node)
                uses[name] = uses.get(name, 0) + 1
    kinds = (ast.FunctionDef, ast.ClassDef)
    defs = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, kinds):
                defs.append((module, node))
            if isinstance(node, ast.ClassDef):
                defs += [(module, m) for m in node.body if isinstance(m, kinds)
                         and not (m.name.startswith("__") and m.name.endswith("__"))]
    unused = set()
    for module, node in defs:
        own = sum(_referenced(n) == node.name for n in ast.walk(node))
        if uses.get(node.name, 0) == own:
            unused.add(f"{module}.{node.name}")
    assert unused == ONLY_CALLED_FROM_OUTSIDE
