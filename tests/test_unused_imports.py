"""No module of the package imports a name at module level that it never uses.

``__init__`` is left out: its imports are the package's public names.
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


def test_the_guard_sees_an_unused_import():
    assert _unused_imports("import os\nfrom a import b as c, d\nd()\n") == \
        ["c (line 2)", "os (line 1)"]


def test_no_module_imports_an_unused_name():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: _unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}
