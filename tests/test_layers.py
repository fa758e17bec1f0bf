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


# A space carries its exponent in ``space.norm.q``, so a function that takes
# a space, or a function that returns one per index, reads q off it instead
# of taking q again.  The closed-form amalgam energy keeps its q, which it
# checks against its structures: bench/verify.py calls it with q positionally.
RESTATED_Q_ALLOWED = {"amalgam_energy_formula"}
SPACE_ANNOTATIONS = {"Space", "Sequence[Space]", "Callable[[Any], Space]"}


def restated_exponents(source: str) -> list:
    """The functions in ``source`` that take a parameter with an annotation
    in ``SPACE_ANNOTATIONS`` together with a parameter named ``q``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            annotations = {ast.unparse(p.annotation) for p in params if p.annotation is not None}
            if annotations & SPACE_ANNOTATIONS and any(p.arg == "q" for p in params):
                found.append(node.name)
    return found


def test_no_function_takes_a_space_and_its_exponent_again():
    found = [name for path in sorted(CLI.parent.glob("*.py")) for name in restated_exponents(path.read_text())]
    assert [name for name in found if name not in RESTATED_Q_ALLOWED] == []


def test_the_exponent_guard_sees_a_restated_q():
    source = ("def glue(factor: Space, q):\n    pass\n\n\n"
              "def naive(points, q):\n    pass\n\n\n"
              "def product(factors: Sequence[Space], *, q=2):\n    pass\n\n\n"
              "def direct_sum(factor_at: Callable[[Any], Space], basepoint, q, index_window):\n    pass\n")
    assert restated_exponents(source) == ["glue", "product", "direct_sum"]
