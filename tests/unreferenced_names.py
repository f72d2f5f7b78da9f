"""Print the names defined in ``src/`` that nothing in ``src/``, ``perf/``
or ``examples/`` references: candidates for deletion (ROADMAP item 4).

A definition is a module-level function, class or assignment, or a method
or class attribute.  A reference is any identifier, attribute, import or
short string that names it outside its own definition; ``__all__`` lists,
and the export tables and relative re-imports of package ``__init__``
files, do not count.  Names
something else calls are skipped: dunders, asyncio protocol callbacks and
functions registered by a decorator.  Tests are not searched, so a name
only tests use is listed.

    python tests/unreferenced_names.py
"""

from __future__ import annotations

import ast
import re
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "perf", "examples")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
#: Called by asyncio, not by name.
_CALLBACKS = {"connection_made", "data_received", "connection_lost",
              "eof_received", "error_received", "datagram_received"}


def _registered(node) -> bool:
    """Handed to something that calls it (``@atexit.register``)."""
    return any(isinstance(deco, ast.Attribute) and deco.attr == "register"
               for deco in node.decorator_list)


def _assigned(node):
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def definitions(tree):
    """``(name, line)`` for each module-level and class-level definition."""
    found = []

    def scan(body):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not _registered(node):
                    found.append((node.name, node.lineno))
            elif isinstance(node, ast.ClassDef):
                found.append((node.name, node.lineno))
                scan(node.body)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                found.extend((name, node.lineno) for name in _assigned(node))

    scan(tree.body)
    return [(n, line) for n, line in found
            if not (n.startswith("__") and n.endswith("__"))
            and n not in _CALLBACKS]


def references(tree, is_init):
    """Every identifier the module uses, definitions excluded."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and (
            "__all__" in _assigned(node)
            or (is_init and isinstance(node.value, ast.Dict))
        ):
            skip.update(id(sub) for sub in ast.walk(node.value))
        elif is_init and isinstance(node, ast.ImportFrom) and node.level:
            skip.update(id(alias) for alias in node.names)
    used = Counter()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.alias):
            used[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if len(node.value) <= 80:
                used.update(_IDENT.findall(node.value))
    return used


def main() -> int:
    defined = []
    used = Counter()
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            used.update(references(tree, path.name == "__init__.py"))
            if top == "src":
                rel = path.relative_to(ROOT)
                defined.extend((name, f"{rel}:{line}")
                               for name, line in definitions(tree))
    unused = [(where, name) for name, where in defined if not used[name]]
    for where, name in unused:
        print(f"{where}: {name}")
    print(f"{len(unused)} of {len(defined)} names defined in src/ are "
          "referenced nowhere in src/, perf/ or examples/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
