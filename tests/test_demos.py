"""The demos import only names the package still exports.

The demos are parsed, not run: together they take close to a minute.
"""

import ast
from pathlib import Path

import pytest

import latbabai

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    tree = ast.parse(demo.read_text(), filename=str(demo))
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "latbabai"
        for alias in node.names
    ]
    assert names, f"{demo.name} imports nothing from latbabai"
    missing = [name for name in names if not hasattr(latbabai, name)]
    assert not missing, f"{demo.name} imports missing names {missing}"
