"""Every name a ``phmoea`` module imports is used in that module, and every
public name a module defines, or a class in it declares, is read somewhere."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "phmoea"
# imported only so perfbench/tracing.py can wrap them on these modules
WRAPPED = {"evaluators.py": {"build_graph", "count_params"},
           "engine.py": {"canonical_key"}}
# read only by the tests, as their refinement oracle
UNREAD_MEMBERS = {"space.py": {"RefinementState.breakpoints"}}


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


# the package's __init__ imports only to re-export
@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "__init__.py"))
def test_module_uses_every_name_it_imports(module):
    tree = ast.parse((PACKAGE / module).read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    imported = imported_names(tree)
    wrapped = WRAPPED.get(module, set())
    assert wrapped <= imported - used        # the exemption names live imports
    assert imported - used - wrapped == set()


# numpy may change Generator's draw algorithms between releases, while the
# PCG64 words WordStream reads stay fixed: every seeded draw goes through it
@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "rng.py"))
def test_only_rng_reads_numpy_random(module):
    tree = ast.parse((PACKAGE / module).read_text())
    reads = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "random"
             and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")]
    assert reads == []


def defined_names(tree: ast.Module) -> set[str]:
    """Public functions, classes and assigned names at a module's top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in names if not name.startswith("_")}


def read_names(tree: ast.Module) -> set[str]:
    """Names a module loads, reads as attributes or imports from elsewhere."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def wrapped_strings(tree: ast.Module) -> set[str]:
    """Strings in a ``wrap`` call, or in a loop that passes them to one."""
    def is_wrap(node):
        return isinstance(node, ast.Call) and "wrap" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))
    strings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.Call)) and any(map(is_wrap, ast.walk(node))):
            strings.update(n.value for n in ast.walk(node)
                           if isinstance(n, ast.Constant) and isinstance(n.value, str))
    return strings


def member_names(tree: ast.Module) -> set[str]:
    """``Class.member`` for the public methods, properties and annotated fields
    of a module's top-level classes."""
    names = set()
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for item in cls.body:
                if isinstance(item, ast.FunctionDef):
                    names.add((cls.name, item.name))
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    names.add((cls.name, item.target.id))
    return {f"{cls}.{name}" for cls, name in names if not name.startswith("_")}


def member_reads(tree: ast.Module) -> set[str]:
    """Attributes a module loads and keyword arguments it passes."""
    return {node.attr if isinstance(node, ast.Attribute) else node.arg
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.keyword)} - {None}


def test_every_public_name_is_read():
    trees = {p.name: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
    bench = set()
    members = set().union(*map(member_reads, trees.values()))
    for path in (ROOT / "perfbench").glob("*.py"):
        tree = ast.parse(path.read_text())
        bench |= read_names(tree) | wrapped_strings(tree)
        members |= member_reads(tree)
    unread = {}
    for module, tree in trees.items():
        others = set().union(*(read_names(t) for m, t in trees.items() if m != module))
        names = defined_names(tree) - read_names(tree) - others - bench
        allowed = UNREAD_MEMBERS.get(module, set())
        assert allowed <= member_names(tree)     # the exemption names live members
        names |= {m for m in member_names(tree) - allowed if m.split(".")[1] not in members}
        if names:
            unread[module] = sorted(names)
    assert unread == {}
