"""The library keeps only what its program uses.

Every public top-level function and class in ``src/bitprobe`` must be named
by the package itself (its own module counts, its own definition does not)
or by the benchmark harness in ``perfbench/bitbench``.  A name that only the
tests call belongs in ``tests/helpers.py``.  The package's ``__init__.py``
is its docstring alone: every caller imports a module, so a flat namespace
of re-exports would be a second copy that nothing reads.  The harness is
read here, never written.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "bitprobe").glob("*.py"))
INIT = ROOT / "src" / "bitprobe" / "__init__.py"
HARNESS = sorted((ROOT / "perfbench" / "bitbench").glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def name_counts(tree: ast.AST) -> Counter:
    """How often each name is read, bare or as an attribute, under tree."""
    counts = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
    return counts


def test_every_public_name_is_used_outside_the_tests():
    modules = {path.stem: parse(path) for path in PACKAGE if path != INIT}
    assert len(modules) > 1 and HARNESS
    uses = sum((name_counts(tree) for tree in modules.values()), Counter())
    uses += sum((name_counts(parse(path)) for path in HARNESS), Counter())
    unused = [f"{mod}.{node.name}"
              for mod, tree in modules.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and uses[node.name] == name_counts(node)[node.name]]
    assert not unused, f"public names only the tests use: {unused}"


def test_package_init_binds_no_names():
    tree = parse(INIT)
    assert ast.get_docstring(tree) and len(tree.body) == 1, \
        "__init__.py must hold its docstring alone"
