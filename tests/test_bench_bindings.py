"""The names the benchmark binds must still resolve in `condmeasure`.

`bench/tracing.py` wraps functions by module and qualified name, and the
bench modules import from `condmeasure` by name.  Both are read here
with `ast`, without importing the bench, so that moving or deleting one
of those names fails this suite and not only a benchmark run.
"""

import ast
import contextlib
import importlib
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _assigned(tree: ast.Module, name: str):
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"bench/tracing.py assigns no {name}")


def _traced() -> list[tuple[str, str]]:
    tree = ast.parse((BENCH / "tracing.py").read_text())
    aliases = _assigned(tree, "_ALIASES")
    return [(module, aliases.get((module, name), name)) for module, name, _ in _assigned(tree, "TRACED")]


def _imported() -> list[tuple[str, str]]:
    names = []
    for path in sorted([*BENCH.glob("*.py"), *BENCH.glob("selftest/*.py")]):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and not node.level and node.module.partition(".")[0] == "condmeasure":
                names += [(node.module, alias.name) for alias in node.names]
    return sorted(set(names))


def _resolve(module: str, dotted: str) -> None:
    owner = importlib.import_module(module)
    for part in dotted.split("."):
        if not hasattr(owner, part) and inspect.ismodule(owner):
            # a submodule is a name too: `from condmeasure import classical`
            with contextlib.suppress(ModuleNotFoundError):
                importlib.import_module(f"{owner.__name__}.{part}")
        assert hasattr(owner, part), f"{module} has no {dotted}"
        owner = getattr(owner, part)


@pytest.mark.parametrize("module, name", _traced())
def test_traced_function_exists(module, name):
    _resolve(f"condmeasure.{module}", name)


@pytest.mark.parametrize("module, name", _imported())
def test_bench_import_resolves(module, name):
    _resolve(module, name)


def test_the_lists_are_read():
    assert ("sigma", "SetRing.from_members") in _traced()
    assert ("sigma", "_PerAtomFamily.members") in _traced()
    assert ("condmeasure.sigma", "generate_dynkin") in _imported()
