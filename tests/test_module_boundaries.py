"""No module under src/tabseq reads or imports an underscore-prefixed name
from another tabseq module: what modules share goes through public names."""

import ast
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
