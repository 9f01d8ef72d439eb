"""Every function and method of the package is used by the package: one
that nothing in src/ references but its own def serves only the tests,
and belongs in tests/oracles.py with the other references."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "multigroup"

# Methods that only bench/tracing.py calls, by patching them
TRACED_ONLY = {"groups.py:GroupTree.masks"}


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


def unreferenced_definitions(src: pathlib.Path) -> list[str]:
    """The module-level functions, as "module.py:name", and the methods of
    module-level classes other than the special ``__x__`` ones, as
    "module.py:Class.name", that no code under src refers to outside
    their own def."""
    defs, used = [], set()
    for path in sorted(src.rglob("*.py")):
        module = path.relative_to(src).as_posix()
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            parts, prefix = [node], f"{module}:"
            if isinstance(node, ast.ClassDef):
                parts = [*node.bases, *node.keywords, *node.decorator_list, *node.body]
                prefix += f"{node.name}."
            for part in parts:
                own = part.name if isinstance(part, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    else None
                if own is not None and not (own.startswith("__") and own.endswith("__")):
                    defs.append((prefix + own, own))
                used.update(name for name in names(part) if name != own)
    return [label for label, name in defs if name not in used]


def test_every_module_level_function_is_used_in_src():
    assert [d for d in unreferenced_definitions(SRC) if "." not in d.split(":")[1]] == []


def test_every_method_is_used_in_src():
    assert [d for d in unreferenced_definitions(SRC) if "." in d.split(":")[1]
            and d not in TRACED_ONLY] == []


# The JSON number readers, and where the package may use them besides
# data.py: the codecs of arrays of numbers, and a node's depth. Every other
# JSON field is read through data.read_spec, so a hand-written reader of a
# spec's fields cannot come back. A key of None allows any key.
NUMBER_READERS = {"json_int", "json_float", "float_from_json"}
NUMBER_READS_ALLOWED = {
    ("learners.py", "predictor_from_json", None),
    ("learners.py", "_flat_forest", None),
    ("modelio.py", "rebuild_tree_predictor", "depth"),
}


def number_reads(src: pathlib.Path):
    """Each use of a JSON number reader under src outside data.py, as
    (module, module-level def, key): key is the literal key a call passes,
    else None."""
    for path in sorted(src.rglob("*.py")):
        module = path.relative_to(src).as_posix()
        if module == "data.py":
            continue
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            keys = {id(call.func): call.args[1].value for call in ast.walk(top)
                    if isinstance(call, ast.Call) and len(call.args) > 1
                    and isinstance(call.args[1], ast.Constant)}
            for sub in ast.walk(top):
                name = sub.id if isinstance(sub, ast.Name) else \
                    sub.attr if isinstance(sub, ast.Attribute) else None
                if name in NUMBER_READERS:
                    yield module, getattr(top, "name", None), keys.get(id(sub))


def test_json_numbers_are_read_only_by_the_spec_reader_and_the_array_codecs():
    assert [use for use in number_reads(SRC) if use not in NUMBER_READS_ALLOWED
            and use[:2] + (None,) not in NUMBER_READS_ALLOWED] == []
