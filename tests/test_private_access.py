"""No krylovexp module reaches into private state owned by another module.

A module may touch ``obj._name`` (one leading underscore, not a dunder)
on anything but ``self`` / ``cls`` only when a class of its own declares
``_name``.  Private caches then have a single owner: the decomposition's
A v_next and small-matrix evaluators are reached through its public
methods, never through its private attributes.

No module stores an attribute on a name other than ``self`` / ``cls``
either: an object's attributes are set by its own class, so a result
never carries a field its class does not document.
"""

import ast
from pathlib import Path

import krylovexp

PACKAGE = Path(krylovexp.__file__).parent


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _declared_privates(tree):
    """Private names declared by the classes of one module: methods and
    class-level assignments in the class body, and self._name stores."""
    names = set()
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(t.id for t in targets if isinstance(t, ast.Name))
        for node in ast.walk(cls):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"):
                names.add(node.attr)
    return {n for n in names if _private(n)}


def foreign_private_accesses(package=PACKAGE):
    """'module.py:line: .attr' for every access to a private attribute
    that only classes of other modules declare."""
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(package.glob("*.py"))}
    declared = {name: _declared_privates(tree) for name, tree in trees.items()}
    found = []
    for name, tree in trees.items():
        foreign = set().union(*(d for other, d in declared.items() if other != name))
        foreign -= declared[name]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in foreign
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id in ("self", "cls"))):
                found.append(f"{name}:{node.lineno}: .{node.attr}")
    return found


def foreign_attribute_stores(package=PACKAGE):
    """'module.py:line: name.attr' for every attribute stored on a name
    other than self / cls."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id not in ("self", "cls")):
                found.append(f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_no_module_touches_another_modules_private_attributes():
    assert foreign_private_accesses() == []


def test_no_module_stores_an_attribute_on_a_foreign_object():
    assert foreign_attribute_stores() == []


def test_lint_sees_a_foreign_private_read(tmp_path):
    (tmp_path / "owner.py").write_text(
        "class Owner:\n    def __init__(self):\n        self._cache = {}\n")
    (tmp_path / "user.py").write_text(
        "def peek(obj):\n    return obj._cache, obj.__dict__, obj._unknown\n")
    assert foreign_private_accesses(tmp_path) == ["user.py:2: ._cache"]


def test_lint_sees_a_foreign_attribute_store(tmp_path):
    (tmp_path / "owner.py").write_text(
        "class Owner:\n    def __init__(self):\n        self.cache = {}\n")
    (tmp_path / "user.py").write_text(
        "def tag(obj, view):\n    view.flags.writeable = False\n"
        "    obj.tagged = True\n    return obj.tagged\n")
    assert foreign_attribute_stores(tmp_path) == ["user.py:3: obj.tagged"]
