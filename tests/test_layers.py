"""The command line reads configs and runs queries; it builds no spaces,
actions or walls of its own.  Those come from ``constructions``, ``walls``,
``amalgam`` and ``examples``, where the tests and the scripts reach them too."""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "labparts" / "cli.py"

# constructors of the layers below the command line; a sampled pullback's
# PointUniverse is the preimage of a config's map and stays in cli.py
BUILDERS = {"Action", "Space", "MeasuredWalls", "finite_walls"}


def builder_calls(source: str) -> list:
    """The calls in ``source`` to a name in BUILDERS, bare or as an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if name in BUILDERS:
                found.append(f"{name} (line {node.lineno})")
    return found


def test_cli_builds_no_space_action_or_walls():
    assert builder_calls(CLI.read_text()) == []


def test_the_guard_sees_a_construction():
    source = "from .core import Action\n\n\ndef f(g):\n    return Action(g, None), walls_mod.finite_walls(u, [], m)\n"
    assert builder_calls(source) == ["Action (line 5)", "finite_walls (line 5)"]
