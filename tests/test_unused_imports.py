"""No module of the package imports a name at module level that it never
uses, and no module defines a private function, class or constant at module
level that no module of the package refers to.

``__init__`` is left out of the import check: its imports are the package's
public names.
"""

import ast
import pathlib

import magneto

PACKAGE = pathlib.Path(magneto.__file__).resolve().parent


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def _unused_private_names(sources: dict) -> list:
    """The module-level private names (one leading underscore) that the
    sources, a map of module name to text, define by ``def``, ``class`` or
    assignment and that no source reads by name or as an attribute."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            defined += [(module, name, node.lineno) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(f"{module}: {name} (line {line})" for module, name, line in defined
                  if name not in used)


def test_the_guard_sees_an_unused_import():
    assert _unused_imports("import os\nfrom a import b as c, d\nd()\n") == \
        ["c (line 2)", "os (line 1)"]


def test_no_module_imports_an_unused_name():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: _unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def test_the_guard_sees_an_unused_private_name():
    sources = {
        "a": "_T = 1\n_U: int = 2\n__all__ = []\ndef _f():\n    return _T\n"
             "class _C:\n    pass\ndef g():\n    return 0\n",
        "b": "from . import a\na._f()\n",
    }
    assert _unused_private_names(sources) == ["a: _C (line 6)", "a: _U (line 2)"]


def test_no_module_defines_an_unused_private_name():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert _unused_private_names(sources) == []
