"""The demos import only names the package still exports, and call them
with arguments their signatures accept.

The demos are parsed, not run: together they take close to a minute.
"""

import ast
import inspect
from pathlib import Path

import pytest

import latbabai

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    names = _imported_names(_parse(demo))
    assert names, f"{demo.name} imports nothing from latbabai"
    missing = [name for name in names if not hasattr(latbabai, name)]
    assert not missing, f"{demo.name} imports missing names {missing}"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_calls_bind_to_signatures(demo):
    # a keyword or positional argument that a function no longer takes would
    # pass the import check and fail only when the demo runs
    tree = _parse(demo)
    names = set(_imported_names(tree))
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in names
    ]
    assert calls, f"{demo.name} calls nothing it imports from latbabai"
    for call in calls:
        if any(isinstance(a, ast.Starred) for a in call.args):
            continue
        keywords = {kw.arg: None for kw in call.keywords if kw.arg is not None}
        signature = inspect.signature(getattr(latbabai, call.func.id))
        try:
            signature.bind_partial(*[None] * len(call.args), **keywords)
        except TypeError as exc:
            pytest.fail(f"{demo.name}:{call.lineno} {call.func.id}: {exc}")


def _parse(demo):
    return ast.parse(demo.read_text(), filename=str(demo))


def _imported_names(tree):
    return [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "latbabai"
        for alias in node.names
    ]
