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


def _trees() -> dict:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}


def _unread(trees: dict, defs: list) -> set:
    """`module.name` of each (module, node, name) in `defs` that no package
    module other than `__init__` names outside the node."""
    uses: dict = {}
    for module, tree in trees.items():
        if module != "__init__":
            for node in ast.walk(tree):
                name = _referenced(node)
                uses[name] = uses.get(name, 0) + 1
    unused = set()
    for module, node, name in defs:
        own = sum(_referenced(n) == name for n in ast.walk(node))
        if uses.get(name, 0) == own:
            unused.add(f"{module}.{name}")
    return unused


def test_no_package_api_only_tests_call():
    """Every module-level function and class, and every method that is not
    a dunder, is named by some package module other than `__init__`,
    outside its own definition: no code exists only for the tests."""
    trees = _trees()
    kinds = (ast.FunctionDef, ast.ClassDef)
    defs = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, kinds):
                defs.append((module, node, node.name))
            if isinstance(node, ast.ClassDef):
                defs += [(module, m, m.name) for m in node.body if isinstance(m, kinds)
                         and not (m.name.startswith("__") and m.name.endswith("__"))]
    assert _unread(trees, defs) == ONLY_CALLED_FROM_OUTSIDE


def test_no_module_constant_only_tests_read():
    """Every name a module-level assignment binds, outside `__init__`, is
    read by some package module other than `__init__`, outside that
    assignment: no constant exists only for the tests."""
    trees = _trees()
    defs = [(module, node, target.id)
            for module, tree in trees.items() if module != "__init__"
            for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in ast.walk(node)
            if isinstance(target, ast.Name) and isinstance(target.ctx, ast.Store)]
    assert _unread(trees, defs) == set()


def test_package_top_level_binds_only_the_version():
    """`knotpoly/__init__` re-exports nothing: the modules are imported by
    name, and the package binds only `__version__`."""
    bound = set()
    for node in _trees()["__init__"].body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        else:
            bound.update(n.id for n in ast.walk(node)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
    assert bound == {"__version__"}


def test_no_unused_import():
    """Every name a package module binds by an import, `from __future__`
    aside, is read somewhere in that module."""
    unused = []
    for module, tree in _trees().items():
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{module}.{name}" for name in
                           ((a.asname or a.name).split(".")[0] for a in node.names)
                           if name not in read]
    assert unused == []
