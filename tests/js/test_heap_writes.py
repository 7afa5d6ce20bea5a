"""Every write to the script heap happens in one place.

ROADMAP item 1a gives the script heap an undo journal beside the DOM's:
one write entry that every heap write goes through.  That is only sound
if the writes are already gathered, so this guard scans the source of
``src/repro`` for a write to a scope's ``bindings``, an object's
``properties`` or an array's ``elements`` — a subscript store, a
``del``, a mutating method call or a rebinding — anywhere but
``js/values.py`` and ``js/environment.py`` (where the write methods
live) and ``Page.snapshot``/``restore``/``close`` (which save, put back
and drop the globals wholesale).  A write elsewhere would slip past the
journal: a rollback would leave it in place, silently.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

HEAP_FIELDS = {"bindings", "properties", "elements"}

MUTATING_METHODS = {
    "append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse",
    "update", "setdefault", "popitem", "__setitem__", "__delitem__", "__iadd__",
}

ALLOWED_MODULES = {"js/values.py", "js/environment.py"}

ALLOWED_FUNCTIONS = {"Page.snapshot", "Page.restore", "Page.close"}


def _heap_field(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr in HEAP_FIELDS


def _written(target: ast.AST) -> bool:
    """Whether assigning to (or deleting) ``target`` writes the heap."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return any(_written(element) for element in target.elts)
    if isinstance(target, ast.Starred):
        return _written(target.value)
    return _heap_field(target) or (
        isinstance(target, ast.Subscript) and _heap_field(target.value)
    )


def _writes(node: ast.AST) -> bool:
    if isinstance(node, ast.Assign):
        return any(_written(target) for target in node.targets)
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return _written(node.target)
    if isinstance(node, ast.Delete):
        return any(_written(target) for target in node.targets)
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in MUTATING_METHODS
        and _heap_field(node.func.value)
    )


def heap_writes(source: str) -> list[str]:
    """Every heap write in ``source`` as ``line:Function.name`` (the
    innermost enclosing class and function, ``<module>`` at top level)."""
    found = []

    def visit(node: ast.AST, scope: str, cls: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, scope, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = getattr(child, "name", "<lambda>")
                visit(child, f"{cls}.{name}" if cls else name, "")
            else:
                if _writes(child):
                    found.append(f"{child.lineno}:{scope}")
                visit(child, scope, cls)

    visit(ast.parse(source), "<module>", "")
    return found


def test_heap_writes_stay_in_values_environment_and_page_rollback():
    allowed_seen = set()
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        if module in ALLOWED_MODULES:
            continue
        for write in heap_writes(path.read_text()):
            function = write.split(":", 1)[1]
            assert module == "browser/page.py" and function in ALLOWED_FUNCTIONS, (
                f"{module}:{write} writes the script heap outside js/values.py, "
                "js/environment.py and Page.snapshot/restore/close"
            )
            allowed_seen.add(function)
    # The exemptions are live: restore and close do write the globals.
    assert allowed_seen == {"Page.restore", "Page.close"}


def test_the_guard_sees_every_kind_of_write():
    sample = (
        "env.bindings[name] = value\n"          # 1: subscript store
        "del obj.properties[key]\n"             # 2: del
        "array.elements.append(item)\n"         # 3: mutating call
        "env.bindings = {}\n"                   # 4: rebinding
        "array.elements += more\n"              # 5: augmented assignment
        "first, array.elements[0] = pair\n"     # 6: unpacking
        "value = env.bindings[name]\n"          # read
        "merged = list(array.elements)\n"       # read
        "merged.extend(array.elements)\n"       # read: the list written is a copy
        "class Page:\n"
        "    def restore(self):\n"
        "        self.env.bindings = dict(saved)\n"  # 12
        "    def other(self):\n"
        "        f = lambda: obj.properties.clear()\n"  # 14
    )
    assert heap_writes(sample) == [
        "1:<module>", "2:<module>", "3:<module>", "4:<module>", "5:<module>",
        "6:<module>", "12:Page.restore", "14:<lambda>",
    ]
