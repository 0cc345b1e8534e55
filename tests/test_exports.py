import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "nsklab"


def test_every_export_has_a_user():
    """Each name nsklab/__init__.py imports is used as code by another package module (the CLI included)
    or a demo, or named in the README's code; a definition alone is not a use."""
    used = set()
    for path in [*PKG.glob("*.py"), *(ROOT / "demos").glob("*.py")]:
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                used.update(a.name for a in node.names)
    readme_code = re.findall(r"```.*?```|`[^`\n]+`", (ROOT / "README.md").read_text(), flags=re.S)
    used |= set(re.findall(r"[A-Za-z_]\w*", " ".join(readme_code)))
    init = ast.parse((PKG / "__init__.py").read_text()).body
    exports = [a.asname or a.name for node in init if isinstance(node, ast.ImportFrom) for a in node.names]
    assert [name for name in exports if name not in used] == []


def test_every_private_helper_has_a_caller():
    """Each module-level function the package keeps to itself (a `_name`, or any name __init__.py does not
    export) is referenced as code somewhere in the package outside its own body; an import alone is not a use."""
    init = ast.parse((PKG / "__init__.py").read_text()).body
    exports = {a.asname or a.name for node in init if isinstance(node, ast.ImportFrom) for a in node.names}
    helpers, refs = [], set()
    for path in PKG.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            owner = getattr(stmt, "name", None)
            if isinstance(stmt, ast.FunctionDef) and stmt.name not in exports:
                helpers.append((path.stem, stmt.name))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    refs.add((path.stem, owner, node.id))
                elif isinstance(node, ast.Attribute):
                    refs.add((path.stem, owner, node.attr))
    used = {name: {(module, owner) for module, owner, n in refs if n == name} for _, name in helpers}
    assert [f"{module}.{name}" for module, name in helpers if not used[name] - {(module, name)}] == []
