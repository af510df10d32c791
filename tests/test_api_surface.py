"""Every public function, class and property of ``src/diagnokit`` has a user.

A user is a reference from library code other than the definition itself, or
an import or attribute use in ``perfbench/`` or in the CI workflow. Names are
resolved to what they refer to, not matched as words: perfbench defines its
own ``logit``, and that does not keep ``classifier.logit`` alive. Properties
are the exception: without types, any ``.name`` attribute read counts. What
only the tests call belongs in ``tests/oracles.py``.
"""
from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "diagnokit"


def _module_of(node: ast.ImportFrom) -> str | None:
    """The diagnokit module an import reads from ("" for the package itself),
    or None for another package."""
    if node.level:
        return (node.module or "") if node.level == 1 else None
    if node.module == "diagnokit":
        return ""
    if node.module and node.module.startswith("diagnokit."):
        return node.module[len("diagnokit."):]
    return None


def _definitions() -> tuple[dict[str, set[str]], set[str]]:
    """Per module, its public top-level functions and classes; and every
    public property, as ``module.Class.name``."""
    defs, props = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = "" if path.stem == "__init__" else path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs[module] = set()
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            defs[module].add(node.name)
            if isinstance(node, ast.ClassDef):
                props.update(
                    f"{module}.{node.name}.{m.name}" for m in node.body
                    if isinstance(m, ast.FunctionDef) and m.name[0] != "_"
                    and any(isinstance(d, ast.Name) and d.id == "property"
                            for d in m.decorator_list))
    return defs, props


def _uses(tree: ast.Module, module: str | None = None,
          local: set[str] = frozenset()) -> tuple[set[str], set[str]]:
    """The diagnokit names ``tree`` imports or reads, as ``module.name``, and
    the attribute names it reads. ``module`` is the tree's own diagnokit
    module (None outside the package), whose top-level ``local`` names it
    reads unqualified; a top-level definition's reads of itself do not count."""
    names = {n: f"{module}.{n}" for n in local}
    modules: dict[str, str] = {}
    used, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _module_of(node) is not None:
            source = _module_of(node)
            for alias in node.names:
                if source == "" and (PACKAGE / f"{alias.name}.py").is_file():
                    modules[alias.asname or alias.name] = alias.name
                else:
                    names[alias.asname or alias.name] = f"{source}.{alias.name}"
                    used.add(f"{source}.{alias.name}")
        elif isinstance(node, ast.Import):
            modules.update((a.asname, a.name[len("diagnokit."):]) for a in node.names
                           if a.name.startswith("diagnokit.") and a.asname)

    def visit(node: ast.AST, owner: str | None) -> None:
        if isinstance(node, ast.Name) and names.get(node.id, owner) != owner:
            used.add(names[node.id])
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
            if isinstance(node.value, ast.Name) and node.value.id in modules:
                used.add(f"{modules[node.value.id]}.{node.attr}")
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for stmt in tree.body:
        defines = isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and module is not None
        visit(stmt, f"{module}.{stmt.name}" if defines else None)
    return used, attrs


def _unused() -> list[str]:
    defs, props = _definitions()
    used, attrs = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = "" if path.stem == "__init__" else path.stem
        u, a = _uses(ast.parse(path.read_text(encoding="utf-8")), module, defs[module])
        used |= u
        attrs |= a
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        u, a = _uses(ast.parse(path.read_text(encoding="utf-8")))
        used |= u
        attrs |= a
    # the workflow's inline Python imports by name
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    for source, imported in re.findall(r"from diagnokit\.(\w+) import ([\w, ]+)", workflow):
        used |= {f"{source}.{n.strip()}" for n in imported.split(",")}
    unused = [f"{m}.{n}" for m, names in defs.items() for n in sorted(names)
              if f"{m}.{n}" not in used]
    unused += sorted(p for p in props if p.rsplit(".", 1)[1] not in attrs)
    return sorted(unused)


def test_every_public_name_has_a_user():
    unused = _unused()
    assert not unused, (f"public names with no user outside the tests: {unused}; "
                        "move test-only ones to tests/oracles.py")
