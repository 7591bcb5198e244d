"""Every public name in `src/halp` has a caller outside the tests, and each
has one path: the package re-exports nothing.

The scan collects each public module-level name (function, class or
assigned constant) and each public method or property of a module-level
class in `src/halp/*.py`. A read is an `ast.Name` or an `ast.Attribute`
(`obj.member`) in `src/halp` or `perfbench/`, outside the name's own
definition. A module-level name counts as used through either kind of
read; a `Class.member` only through an attribute read, so a local
variable that shares a property's spelling does not keep the property.
Tests do not count: an API that only tests call is code the program does
not need.

Blind spots: the match is by spelling, not by binding, so a member that
shares its name with another object's attribute passes (`Tensor.zeros`
cannot be told apart from `np.zeros`); and a name whose only caller is
itself unused shows up only after that caller is deleted.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "halp"
CALLER_DIRS = (PACKAGE, ROOT / "perfbench")

# name -> why it stays although nothing in the program calls it
ALLOWED = {
    "fit_mobilenet_timing": "re-derives the shipped data/calibration.json (see README)",
    "Timeline.sequence": "the timestamp-free view the determinism tests compare",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public(name: str) -> bool:
    return not name.startswith("_")


def public_names() -> set[str]:
    """`name` for module-level definitions, `Class.method` for methods."""
    names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, _DEFS) and _public(node.name):
                names.add(node.name)
                if isinstance(node, ast.ClassDef):
                    names.update(
                        f"{node.name}.{item.name}" for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and _public(item.name)
                    )
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(t.id for t in targets if isinstance(t, ast.Name) and _public(t.id))
    return names


def _references(node: ast.AST, inside: tuple[str, ...], found: set[str]) -> None:
    """Add to `found` each name read (an assignment target defines, it does
    not use), unless it is the name of a definition enclosing the read: a
    bare name as `name`, an attribute read as `.name`."""
    if isinstance(node, _DEFS):
        inside = inside + (node.name,)
    if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
        spelled = node.id if isinstance(node, ast.Name) else node.attr
        if spelled not in inside:
            found.add(spelled if isinstance(node, ast.Name) else f".{spelled}")
    for child in ast.iter_child_nodes(node):
        _references(child, inside, found)


def referenced_names() -> set[str]:
    found: set[str] = set()
    for directory in CALLER_DIRS:
        for path in sorted(directory.glob("*.py")):
            _references(ast.parse(path.read_text()), (), found)
    return found


def _is_read(name: str, used: set[str]) -> bool:
    """A module-level name through either kind of read, `Class.member`
    through an attribute read only."""
    if "." in name:
        return f".{name.split('.')[-1]}" in used
    return name in used or f".{name}" in used


def test_every_public_name_has_a_caller_outside_the_tests():
    used = referenced_names()
    unused = {name for name in public_names() if not _is_read(name, used)}
    assert unused - ALLOWED.keys() == set(), "public names no program code calls"


def test_allowlisted_names_exist_and_are_unused():
    """An allowlist entry whose name went, or gained a caller, is stale."""
    used = referenced_names()
    names = public_names()
    for name in ALLOWED:
        assert name in names, name
        assert not _is_read(name, used), name


def test_the_package_re_exports_nothing():
    """Callers import each name from the submodule that defines it, so
    `halp/__init__.py` imports nothing."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports == [], [ast.unparse(node) for node in imports]
