"""Every definition in the package is read somewhere.

Each module-level function and class, and each method other than a dunder,
is read as a name or an attribute in ``src/``, ``scripts/`` or ``bench/``
outside its own definition, is exported in ``labparts.__all__``, or is
listed in ``ALLOWED`` with the reason it stays.
"""

import ast
from pathlib import Path

import labparts

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "labparts"
READERS = ("src", "scripts", "bench")

# definitions that only tests read, each with the reason it stays; ROADMAP's
# item on test-only code decides for each whether it gets a CLI caller or moves to tests
ALLOWED = {
    "averaging_eta": "the drift vector of the paper's 2||eta|| bound for quotient averaging",
    "wreath_support_evidence": "finite-ball evidence for the properness of the wreath gluing",
    "proper_amalgam_from_factors": "the paper's pipeline from factor structures to an amalgam",
    "cocycle_from_space": "the paper's bridge from a space to its cocycle",
    "check_walls": "the axioms of a measured walls structure, checked on finite universes",
    "check_antisymmetry": "the antisymmetry c(x, y) = -c(y, x) of a difference oracle",
    "FiniteGroup.save": "the round trip of the table-file format that FiniteGroup.load reads",
    "gromov_product": "the Gromov product behind the free tree's hyperbolicity",
    "metric_to_csv": "the writer of the finite-metric CSV format that the tests round-trip",
    "AmalgamGroup.normal_form": "the reduced word of a letter sequence, the amalgam's normal-form contract",
}


def definitions(tree: ast.Module):
    """(qualified name, name, first line, last line) of each module-level
    function and class, and of each non-dunder method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name, item.lineno, item.end_lineno


def reads(tree: ast.Module):
    """(name, line) of each name or attribute that ``tree`` reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno


def unreached(package: dict, readers: dict, exported) -> list:
    """The qualified names of the definitions in ``package`` (path -> source)
    that no source in ``readers`` (path -> source) reads outside their own
    lines, and that are not in ``exported``."""
    read_at: dict = {}
    for path, source in readers.items():
        for name, line in reads(ast.parse(source)):
            read_at.setdefault(name, []).append((path, line))
    found = []
    for path, source in package.items():
        for qualname, name, first, last in definitions(ast.parse(source)):
            if name in exported:
                continue
            if not any(p != path or not first <= line <= last for p, line in read_at.get(name, ())):
                found.append(qualname)
    return found


def sources(paths) -> dict:
    return {str(p): p.read_text() for p in paths}


def test_every_definition_is_read_exported_or_allowed():
    package = sources(sorted(PACKAGE.glob("*.py")))
    readers = sources(sorted(p for d in READERS for p in (ROOT / d).rglob("*.py")))
    found = unreached(package, readers, set(labparts.__all__))
    assert sorted(set(found) - ALLOWED.keys()) == [], "unread definitions: delete them or give a reason in ALLOWED"
    assert sorted(ALLOWED.keys() - set(found)) == [], "allowed definitions that are now read: drop them from ALLOWED"


def test_the_guard_sees_a_planted_unread_definition():
    module = ("def planted(n):\n    return planted(n - 1) if n else 0\n\n\n"
              "class Kept:\n    def used(self):\n        return 1\n\n    def unused(self):\n        return self.used()\n")
    reader = "from m import Kept\n\nKept().used()\n"
    assert unreached({"m.py": module}, {"m.py": module, "r.py": reader}, set()) == ["planted", "Kept.unused"]
    assert unreached({"m.py": module}, {"m.py": module, "r.py": reader + "planted(3)\n"}, {"unused"}) == []
