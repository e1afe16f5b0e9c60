"""No module under src/tabseq reads or imports an underscore-prefixed name
from another tabseq module: what modules share goes through public names."""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {module_name(p): p for p in sorted((SRC / "tabseq").rglob("*.py"))}


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def import_source(module: str, node: ast.ImportFrom) -> str:
    """The absolute module name a ``from ... import`` statement reads from."""
    if node.level == 0:
        return node.module or ""
    package = module if MODULES[module].name == "__init__.py" else module.rpartition(".")[0]
    for _ in range(node.level - 1):
        package = package.rpartition(".")[0]
    return f"{package}.{node.module}" if node.module else package


def dotted(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def reach_ins(module: str) -> list[str]:
    tree = ast.parse(MODULES[module].read_text(encoding="utf-8"))
    aliases = {}  # local name -> the tabseq module it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name in MODULES:
                    bound = a.name if a.asname else a.name.partition(".")[0]
                    aliases[a.asname or bound] = bound
        elif isinstance(node, ast.ImportFrom):
            source = import_source(module, node)
            for a in node.names:
                if f"{source}.{a.name}" in MODULES:
                    aliases[a.asname or a.name] = f"{source}.{a.name}"
                elif source in MODULES and source != module and is_private(a.name):
                    found.append(f"{module}:{node.lineno} imports {source}.{a.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and is_private(node.attr):
            base = dotted(node.value)
            if base is None:
                continue
            head, _, rest = base.partition(".")
            target = aliases.get(head)
            if target is not None and rest:
                target = f"{target}.{rest}"
            if target in MODULES and target != module:
                found.append(f"{module}:{node.lineno} reads {target}.{node.attr}")
    return found


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_private_reach_ins(module):
    assert reach_ins(module) == []


PERFBENCH = SRC.parent / "perfbench"


def public_definitions(tree: ast.Module):
    """(qualified name, node) for each public top-level function and class,
    and each public method of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


# Attributes of these modules name library functions, never a tabseq definition:
# ``np.power`` is no caller of a ``power`` defined here.
LIBRARIES = {"np", "numpy", "math", "scipy"}


def references(tree: ast.Module):
    """(name, line) for each Name, Attribute and dotted string component,
    leaving out the ``__all__`` list, whose strings only re-export, and
    attributes of ``LIBRARIES``."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            skip.update(map(id, ast.walk(node.value)))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            if (dotted(node.value) or "").partition(".")[0] not in LIBRARIES:
                yield node.attr, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skip):
            for part in node.value.split("."):
                yield part, node.lineno


def test_every_public_name_has_a_caller():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in [*MODULES.values(), *sorted(PERFBENCH.rglob("*.py"))]}
    sites = defaultdict(list)  # name -> [(file, line)] of its references
    for path, tree in trees.items():
        for name, line in references(tree):
            sites[name].append((path, line))
    uncalled = []
    for module, path in MODULES.items():
        for qualname, node in public_definitions(trees[path]):
            if all(p == path and node.lineno <= line <= node.end_lineno
                   for p, line in sites[node.name]):
                uncalled.append(f"{module}.{qualname}")
    assert not uncalled, "no caller outside tests: " + ", ".join(uncalled)


def defaulted_parameters(init: ast.FunctionDef) -> list[tuple[int | None, str]]:
    """(position or None for keyword-only, name) of each parameter of
    ``init`` that has a default, ``self`` not counted."""
    positional = [*init.args.posonlyargs, *init.args.args][1:]
    found = [(i, a.arg) for i, a in enumerate(positional)
             if i >= len(positional) - len(init.args.defaults)]
    found += [(None, a.arg) for a, d in zip(init.args.kwonlyargs, init.args.kw_defaults)
              if d is not None]
    return found


def sets(call: ast.Call, position: int | None, name: str) -> bool:
    """Whether ``call`` passes the parameter, by keyword, by position or
    through ``*``/``**`` unpacking."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


KNOB_MODULES = [m for m in MODULES if m == "tabseq.models" or m.startswith("tabseq.nn.")]


def test_every_constructor_default_is_set_by_a_caller():
    """A defaulted ``__init__`` parameter of a public class that no call in
    ``src/`` or ``perfbench/`` passes is a knob nobody turns: make it a class
    constant instead."""
    calls = defaultdict(list)  # callee name -> its calls
    for path in [*MODULES.values(), *sorted(PERFBENCH.rglob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                callee = node.func.attr if isinstance(node.func, ast.Attribute) else \
                    getattr(node.func, "id", None)
                calls[callee].append(node)
    unturned = []
    for module in KNOB_MODULES:
        for cls in ast.parse(MODULES[module].read_text(encoding="utf-8")).body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for init in cls.body:
                if isinstance(init, ast.FunctionDef) and init.name == "__init__":
                    unset = [name for position, name in defaulted_parameters(init)
                             if not any(sets(c, position, name) for c in calls[cls.name])]
                    if unset:
                        unturned.append(f"{module}.{cls.name}.__init__({', '.join(unset)})")
    assert not unturned, "defaults no caller sets: " + ", ".join(unturned)
