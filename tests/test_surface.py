"""The library keeps only what its program uses, and each module's
underscore names stay its own.

Every public top-level function, class and assigned name in
``src/bitprobe`` must be named by the package itself (its own module
counts, its own definition does not) or by the benchmark harness in
``perfbench/bitbench``.  A name that only the tests use belongs in
``tests/helpers.py``.  The package's ``__init__.py`` is its docstring
alone: every caller imports a module, so a flat namespace of re-exports
would be a second copy that nothing reads.  No module reaches for another
module's underscore name, and only ``gf`` touches ``_clmul``: ``gf`` alone
picks the evaluation route.  Only ``graph``, which defines it, and
``reduction`` name ``neighborhood_bitmap``: a stored Gamma(A) is the one
that its acceptance check counted against.  The harness is read here,
never written.
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


def defined_names(tree: ast.Module):
    """(name, defining node) for each top-level def, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def test_every_public_name_is_used_outside_the_tests():
    modules = {path.stem: parse(path) for path in PACKAGE if path != INIT}
    assert len(modules) > 1 and HARNESS
    uses = sum((name_counts(tree) for tree in modules.values()), Counter())
    uses += sum((name_counts(parse(path)) for path in HARNESS), Counter())
    unused = [f"{mod}.{name}"
              for mod, tree in modules.items() for name, node in defined_names(tree)
              if not name.startswith("_") and uses[name] == name_counts(node)[name]]
    assert not unused, f"public names only the tests use: {unused}"


def private_reaches(mod: str, tree: ast.Module):
    """Where module ``mod`` imports or reads another package module's
    underscore name; ``_clmul`` counts as one, and is ``gf``'s alone."""
    siblings = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "bitprobe"
                                                 or (node.module or "").startswith("bitprobe.")):
            source = (node.module or "").rpartition(".")[2]
            for alias in node.names:
                if node.module in (None, "bitprobe"):
                    siblings.add(alias.asname or alias.name)
                if "_clmul" in (source, alias.name) and mod != "gf":
                    yield f"{mod} imports _clmul"
                elif alias.name.startswith("_") and alias.name != "_clmul":
                    yield f"{mod} imports {source}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("bitprobe._") and mod != "gf":
                    yield f"{mod} imports {alias.name}"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and node.attr.startswith("_")
                and (mod, node.value.id) != ("gf", "_clmul")):
            yield f"{mod} reads {node.value.id}.{node.attr}"


def test_no_module_reaches_for_another_modules_private_names():
    modules = {path.stem: parse(path) for path in PACKAGE}
    assert "gf" in modules and "oracle" in modules
    reaches = [r for mod, tree in modules.items() for r in private_reaches(mod, tree)]
    assert not reaches, f"private names used across modules: {reaches}"


def test_package_init_binds_no_names():
    tree = parse(INIT)
    assert ast.get_docstring(tree) and len(tree.body) == 1, \
        "__init__.py must hold its docstring alone"


def names_in(tree: ast.Module) -> set:
    """Every name that tree reads, imports or defines."""
    names = set(name_counts(tree))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def test_only_graph_and_reduction_name_neighborhood_bitmap():
    naming = {path.stem for path in PACKAGE if "neighborhood_bitmap" in names_in(parse(path))}
    assert naming == {"graph", "reduction"}, f"modules that build a Gamma(A) bitmap: {naming}"
