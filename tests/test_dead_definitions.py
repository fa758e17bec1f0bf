"""Every definition in the package is read somewhere.

Each module-level function and class, and each method other than a dunder,
is read in ``src/``, ``scripts/`` or ``bench/`` outside its own definition,
is exported in ``labparts.__all__``, or is listed in ``ALLOWED`` with the
reason it stays.  A function or class is read as a name or an attribute; a
method only as an attribute (``.name``), since a bare name of the same
spelling is some other variable.  A read inside an ``ALLOWED`` definition
does not count: code that only tests reach cannot keep other code alive.
README's "Python API" list names each exported name once.

The guard matches names, so a method passes when another class's method of
the same name is read.  ``DirectSumGroup.elements``, ``ProductGroup.elements``
and ``DirectSumGroup.support`` pass this way, as ``FiniteGroup.elements`` and
``SparseVec.support`` are read, though nothing in ``src/``, ``scripts/`` or
``bench/`` calls them: only tests do, and ``wreath_support_evidence``, itself
allowed, calls ``support`` (ROADMAP item 3).
"""

import ast
import re
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
    "FiniteGroup.save": "the round trip of the table-file format that FiniteGroup.load reads",
    "gromov_product": "the Gromov product behind the free tree's hyperbolicity",
    "metric_to_csv": "the writer of the finite-metric CSV format that the tests round-trip",
    "AmalgamGroup.normal_form": "the reduced word of a letter sequence, the amalgam's normal-form contract",
    "NormSpec.exact": "whether a node's energies are exact, which ROADMAP's planned 'explain' command prints",
    "MeasuredWalls.wall_distance": "the tests' reference for q-energy = wall distance; else read only by "
                                   "wreath_support_evidence, itself allowed",
}


def definitions(tree: ast.Module):
    """(qualified name, name, is a method, first line, last line) of each
    module-level function and class, and of each non-dunder method of a
    module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, False, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name, True, item.lineno, item.end_lineno


def reads(tree: ast.Module):
    """(name, is an attribute, line) of each name or attribute that ``tree`` reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, False, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, True, node.lineno


def unreached(package: dict, readers: dict, exported, allowed=()) -> list:
    """The qualified names of the definitions in ``package`` (path -> source)
    that no source in ``readers`` (path -> source) reads outside their own
    lines and outside the ``allowed`` definitions, and that are not in
    ``exported``."""
    defined = {path: list(definitions(ast.parse(source))) for path, source in package.items()}
    skipped = {path: [(first, last) for qualname, _, _, first, last in found if qualname in allowed]
               for path, found in defined.items()}
    read_at: dict = {}
    for path, source in readers.items():
        for name, attribute, line in reads(ast.parse(source)):
            if not any(first <= line <= last for first, last in skipped.get(path, ())):
                read_at.setdefault(name, []).append((path, attribute, line))
    found = []
    for path, definitions_here in defined.items():
        for qualname, name, method, first, last in definitions_here:
            if name in exported:
                continue
            if not any((attribute or not method) and (p != path or not first <= line <= last)
                       for p, attribute, line in read_at.get(name, ())):
                found.append(qualname)
    return found


def sources(paths) -> dict:
    return {str(p): p.read_text() for p in paths}


def test_every_definition_is_read_exported_or_allowed():
    package = sources(sorted(PACKAGE.glob("*.py")))
    readers = sources(sorted(p for d in READERS for p in (ROOT / d).rglob("*.py")))
    found = unreached(package, readers, set(labparts.__all__), ALLOWED)
    assert sorted(set(found) - ALLOWED.keys()) == [], "unread definitions: delete them or give a reason in ALLOWED"
    assert sorted(ALLOWED.keys() - set(found)) == [], "allowed definitions that are now read: drop them from ALLOWED"


def test_the_guard_sees_a_planted_unread_definition():
    module = ("def planted(n):\n    return planted(n - 1) if n else 0\n\n\n"
              "class Kept:\n    def used(self):\n        return 1\n\n    def unused(self):\n        return self.used()\n")
    reader = "from m import Kept\n\nKept().used()\n"
    assert unreached({"m.py": module}, {"m.py": module, "r.py": reader}, set()) == ["planted", "Kept.unused"]
    assert unreached({"m.py": module}, {"m.py": module, "r.py": reader + "planted(3)\n"}, {"unused"}) == []
    # a bare name does not read a method, and a read inside an allowed definition does not count
    module = ("def helper():\n    return 1\n\n\n" "def test_only():\n    return helper()\n\n\n"
              "class Kept:\n    def shadowed(self):\n        return 1\n")
    reader = "from m import Kept\n\nshadowed = Kept()\nprint(shadowed)\n"
    readers = {"m.py": module, "r.py": reader}
    assert unreached({"m.py": module}, readers, set()) == ["test_only", "Kept.shadowed"]
    assert unreached({"m.py": module}, readers, set(), {"test_only"}) == ["helper", "test_only", "Kept.shadowed"]
    assert unreached({"m.py": module}, {**readers, "r.py": reader + "shadowed.shadowed()\n"}, set()) == ["test_only"]


def test_readme_names_each_exported_name_once():
    section = (ROOT / "README.md").read_text().split("## Python API\n", 1)[1].split("\n## ", 1)[0]
    assert f"exports {len(labparts.__all__)} names" in section
    listed = re.findall(r"`(\w+)`", section.split("\n- ", 1)[1])
    assert sorted(listed) == sorted(labparts.__all__)
