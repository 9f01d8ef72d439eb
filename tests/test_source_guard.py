"""Every module-level function of the package is used by the package: one
that nothing in src/ references but its own def serves only the tests,
and belongs in tests/oracles.py with the other references."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "multigroup"


def names(node):
    """The identifiers node reads, the attributes it reads and the names
    it imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rsplit(".", 1)[-1]


def unreferenced_functions(src: pathlib.Path) -> list[str]:
    """The module-level functions under src that no code under src refers
    to outside their own def, as "module.py:name"."""
    functions, used = [], set()
    for path in sorted(src.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
            if own is not None:
                functions.append((path.relative_to(src).as_posix(), own))
            used.update(name for name in names(node) if name != own)
    return [f"{path}:{name}" for path, name in functions if name not in used]


def test_every_module_level_function_is_used_in_src():
    assert unreferenced_functions(SRC) == []
