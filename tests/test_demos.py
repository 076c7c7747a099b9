import ast
import importlib
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_karate_demo_runs(capsys):
    # the demo goes through the public API only, so a renamed or deleted
    # public name fails here
    runpy.run_path(str(DEMOS / "01_karate_pair_tests.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "estimated community count: 0" in out
    assert "example pair (3, 27)" in out


def _package_names(tree):
    """(module, dotted name) of every package name a demo reads: each
    attribute chain on an imported package module and each name of a
    ``from netpairtest... import``."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "netpairtest":
                    aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and \
                (node.module or "").split(".")[0] == "netpairtest":
            for alias in node.names:
                yield node.module, alias.name
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in aliases:
            yield aliases[node.id], ".".join(reversed(chain))


@pytest.mark.parametrize("demo", sorted(DEMOS.glob("*.py")),
                         ids=lambda path: path.stem)
def test_demos_use_existing_names(demo):
    # demos 02-04 run for minutes, so only their names are checked
    names = list(_package_names(ast.parse(demo.read_text(), str(demo))))
    assert names
    for module, dotted in names:
        obj = importlib.import_module(module)
        for part in dotted.split("."):
            assert not part.startswith("_"), f"{module}.{dotted} is private"
            assert hasattr(obj, part), f"{demo.name}: no {module}.{dotted}"
            obj = getattr(obj, part)
