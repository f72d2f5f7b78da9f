"""Import structure: every module stands alone, and a memory node loads
only the code it runs.

Package ``__init__``s resolve their exports on first use
(``repro._exports``), so nothing imports a sibling by accident any more.
That also stops hiding import cycles: an eager ``__init__`` used to load
a cycle's far end first.  The first test imports every ``repro`` module
from a clean state; the second holds the memory-node process to its
import budget; the next ones check the public names still resolve; the
last two find module-level imports that their module never reads, and
client code that touches a memory node's bytes without a verb.
"""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

_SRC = os.path.dirname(os.path.dirname(repro.__file__))

_EACH_MODULE_ALONE = r"""
import importlib, json, pkgutil, sys
import repro

failures = []
names = [info.name for info in pkgutil.walk_packages(
    repro.__path__, "repro.", onerror=lambda name: failures.append(name)
)]
for name in names:
    for loaded in [m for m in sys.modules
                   if m == "repro" or m.startswith("repro.")]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception as exc:
        failures.append(f"{name}: {exc!r}")
print(json.dumps({"modules": names, "failures": failures}))
"""

#: What ``import repro.runtime.server`` must not load: the heavy third-party
#: and event-loop modules, and the client-side halves of the protocol.
_NOT_IN_A_NODE = {
    "numpy",
    "asyncio",
    "repro.core.cache",
    "repro.core.client",
    "repro.runtime.client",
}

_LAZY_PACKAGES = [
    "repro", "repro.core", "repro.runtime", "repro.memory", "repro.rdma",
    "repro.sim", "repro.obs",
]


def _python(*argv):
    env = dict(os.environ, PYTHONPATH=_SRC)
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env,
        timeout=120,
    )


def test_every_module_imports_on_its_own():
    done = _python("-c", _EACH_MODULE_ALONE)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert "repro.runtime.server" in report["modules"]
    assert report["failures"] == []


def test_memory_node_import_budget():
    """A node is forked from the launcher, so what the launcher imports
    every node carries too."""
    for module in ("repro.runtime.server", "repro.runtime.launcher"):
        done = _python(
            "-c",
            f"import json, sys, {module}; "
            "print(json.dumps(sorted(sys.modules)))",
        )
        assert done.returncode == 0, done.stderr
        loaded = set(json.loads(done.stdout))
        assert loaded & _NOT_IN_A_NODE == set(), module


def test_server_entry_point_runs_once():
    """``-m repro.runtime.server`` must not find its own module already
    imported by its package (runpy's double-import ``RuntimeWarning``)."""
    done = _python("-W", "error::RuntimeWarning", "-m",
                   "repro.runtime.server", "--help")
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


@pytest.mark.parametrize("package", _LAZY_PACKAGES)
def test_package_exports_resolve(package):
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(dir(module))
    for name in module.__all__:
        assert getattr(module, name) is not None
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        module.missing


def test_public_names_keep_their_homes():
    from repro import DittoCache
    from repro.core.cache import DittoCache as defined
    from repro.core.policies import POLICY_REGISTRY
    from repro.runtime.cluster import RealCluster

    assert DittoCache is defined is repro.DittoCache
    assert repro.runtime.RealCluster is RealCluster
    assert repro.core.POLICY_REGISTRY is POLICY_REGISTRY
    namespace = {}
    exec("from repro.core import *", namespace)
    assert {*repro.core.__all__} <= namespace.keys()


def _module_imports(body):
    """``(line, bound name)`` of each import at module level, ``if``
    (``TYPE_CHECKING``) and ``try`` blocks included."""
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name
        elif isinstance(node, (ast.If, ast.Try)):
            for block in (node.body, node.orelse,
                          *(h.body for h in getattr(node, "handlers", ())),
                          getattr(node, "finalbody", ())):
                yield from _module_imports(block)


def _names_read(tree):
    """Every name the module loads, string annotations and ``__all__``
    entries included."""
    roots = [tree]
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [node.returns]
        else:
            continue
        roots.extend(
            ast.parse(sub.value, mode="eval")
            for annotation in annotations if annotation is not None
            for sub in ast.walk(annotation)
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
        )
    read = {
        node.id for root in roots for node in ast.walk(root)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            read.update(
                elt.value for elt in ast.walk(node.value)
                if isinstance(elt, ast.Constant)
            )
    return read


def test_no_unused_module_imports():
    """A deleted use must take its import along; ``__init__`` re-exports
    are exempt."""
    unused = []
    for path in sorted(pathlib.Path(_SRC).rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        read = _names_read(tree)
        unused.extend(
            f"{path.relative_to(_SRC)}:{line}: {name}"
            for line, name in _module_imports(tree.body) if name not in read
        )
    assert unused == []


#: Modules that run on both substrates: they reach node memory only
#: through an endpoint's verbs, never through a simulated node's methods.
_VERBS_ONLY = ("repro/core/client.py", "repro/core/elasticity.py",
               "repro/memory/allocator.py")
_NODE_MEMORY = {"read_bytes", "write_bytes", "compare_and_swap",
                "fetch_and_add"}


def test_clients_reach_node_memory_only_through_verbs():
    """A direct call would read the sim's memory and have no real twin."""
    calls = []
    for name in _VERBS_ONLY:
        path = pathlib.Path(_SRC, name)
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        calls.extend(
            f"{name}:{node.lineno}: {ast.unparse(node.func)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _NODE_MEMORY
        )
    assert calls == []
