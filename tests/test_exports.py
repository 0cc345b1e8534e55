import ast
import importlib
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
    export), and each method, property or cached property of a package class (bar dunder methods), is referenced
    as code somewhere in the package outside its own body; an import alone is not a use."""
    init = ast.parse((PKG / "__init__.py").read_text()).body
    exports = {a.asname or a.name for node in init if isinstance(node, ast.ImportFrom) for a in node.names}
    helpers, refs = [], set()
    for path in PKG.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            bodies = [(getattr(stmt, "name", None), stmt)]
            if isinstance(stmt, ast.FunctionDef) and stmt.name not in exports:
                helpers.append((path.stem, stmt.name, stmt.name))
            if isinstance(stmt, ast.ClassDef):
                methods = [f for f in stmt.body if isinstance(f, ast.FunctionDef) and not f.name.startswith("__")]
                helpers += [(path.stem, f"{stmt.name}.{f.name}", f.name) for f in methods]
                bodies = [(f"{stmt.name}.{f.name}" if f in methods else stmt.name, f) for f in stmt.body]
            for owner, body in bodies:
                for node in ast.walk(body):
                    if isinstance(node, ast.Name):
                        refs.add((path.stem, owner, node.id))
                    elif isinstance(node, ast.Attribute):
                        refs.add((path.stem, owner, node.attr))
    unused = [
        f"{module}.{owner}"
        for module, owner, name in helpers
        if not {(m, o) for m, o, n in refs if n == name} - {(module, owner)}
    ]
    assert unused == []


# Defaulted parameters no call passes, kept on purpose as test seams.
OPTION_SEAMS = {
    # tests hand a run its initial state instead of the seeded generator's
    ("nonlinear", "run", "initial"),
    # tests build pressure laws with a narrowed validity interval to reach ValidityExceeded
    ("model", "critical_quadratic", "validity"),
    # tests drive the CLI in-process with an argument list instead of sys.argv
    ("cli", "main", "argv"),
}


def test_every_option_has_a_caller():
    """Each defaulted parameter of a package function (a class's __init__ included) is passed, by keyword or
    by position, by some call in the package, a demo or the README's code; import aliases are resolved."""
    options = []
    for path in PKG.glob("*.py"):
        tree = ast.parse(path.read_text())
        owners = {fn: cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for fn in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            name = owners[fn] if fn.name == "__init__" and fn in owners else fn.name
            bound = fn in owners and not any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            positional = [a.arg for a in fn.args.posonlyargs + fn.args.args][int(bound):]
            defaulted = positional[len(positional) - len(fn.args.defaults) :] if fn.args.defaults else []
            defaulted += [a.arg for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
            options += [(path.stem, name, arg, positional.index(arg) if arg in positional else None) for arg in defaulted]
    sources = [p.read_text() for p in [*PKG.glob("*.py"), *(ROOT / "demos").glob("*.py")]]
    sources += re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), flags=re.S)
    passed, reach = set(), {}
    for source in sources:
        tree = ast.parse(source)
        aliases = {a.asname: a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names if a.asname}
        for call in (node for node in ast.walk(tree) if isinstance(node, ast.Call)):
            name = call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None)
            name = aliases.get(name, name)
            n_pos = float("inf") if any(isinstance(a, ast.Starred) for a in call.args) else len(call.args)
            reach[name] = max(reach.get(name, 0), n_pos)
            passed.update((name, kw.arg) for kw in call.keywords)  # kw.arg is None for a **mapping
    unset = [
        f"{module}.{name}({arg})"
        for module, name, arg, index in options
        if (name, arg) not in passed
        and (name, None) not in passed
        and (index is None or reach.get(name, 0) <= index)
        and (module, name, arg) not in OPTION_SEAMS
    ]
    assert unset == []


def test_no_unused_imports():
    """Each name a package module (bar __init__.py, whose imports are the export list) or a demo imports,
    at module level or inside a function, is used as code in that module; a mention in a docstring is not a use."""
    unused = []
    for path in [*PKG.glob("*.py"), *(ROOT / "demos").glob("*.py")]:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
                unused += [f"{path.relative_to(ROOT)}: {name}" for name in bound if name not in used]
    assert unused == []


def test_every_demo_import_exists():
    """Each name a demo imports from nsklab, or from one of its modules, is defined there."""
    missing = []
    for path in (ROOT / "demos").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "nsklab":
                module = importlib.import_module(node.module)
                missing += [f"{path.name}: {node.module}.{a.name}" for a in node.names if not hasattr(module, a.name)]
    assert missing == []
