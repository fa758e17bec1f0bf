"""Output checks for the benchmark's CLI commands.

Seed-independent outputs (``table``, ``growth``, ``export``) are compared with
SHA-256 references taken from the program; see ``make_references.py``.  Each
output is also checked against an identity that needs no stored value:

* free-tree ``table`` rows: energy = 2(d + 1) for x != y, 0 on the diagonal;
* ``walls_zn`` ``table`` rows: energy = l1 distance of the two points;
* amalgam ``growth``: min_energy = minimum of ``amalgam_energy_formula`` over
  each sphere;
* ``dist``: energy = ``core.pair_energy`` on the same points, in process;
* ``check``: the report says ``"passed": true``.
"""

from __future__ import annotations

import ast
import csv
import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path

REFERENCES = Path(__file__).with_name("references.json")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def _rational(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def _free_distance(x: tuple, y: tuple) -> int:
    word: list[int] = []
    for letter in [-v for v in reversed(x)] + list(y):
        if word and word[-1] == -letter:
            word.pop()
        else:
            word.append(letter)
    return len(word)


class Verifier:
    """Checks CLI outputs of one session; builds each config once, in process."""

    def __init__(self, references: dict):
        self.references = references
        self._built: dict = {}
        self._points: dict = {}
        self._growth_minima: dict = {}

    def built(self, config: str):
        from labparts import cli

        if config not in self._built:
            path = Path(config)
            self._built[config] = cli.build_space(json.loads(path.read_text()), path.parent)
        return self._built[config]

    def kind(self, config: str) -> str:
        return json.loads(Path(config).read_text())["kind"]

    def problem(self, argv: list[str], code: int, out: str, err: str) -> str | None:
        """A description of what is wrong with one command's result, or None."""
        if code != 0:
            return f"exit code {code}"
        if "Traceback" in err:
            return "traceback on stderr"
        command, config = argv[0], argv[1]
        if command in ("table", "growth", "export"):
            key = " ".join(argv)
            if key not in self.references:
                return "no reference hash"
            if sha256(out) != self.references[key]:
                return "output differs from its reference hash"
        try:
            if command == "table":
                return self._table(config, out)
            if command == "growth" and self.kind(config) == "amalgam":
                return self._amalgam_growth(config, int(argv[argv.index("--radius") + 1]), out)
            if command == "check":
                return None if json.loads(out).get("passed") is True else "check report not passed"
            if command == "dist":
                return self._dist(config, argv[2], argv[3], out)
        except (ValueError, KeyError, IndexError, SyntaxError) as exc:
            return f"unreadable output: {exc!r}"
        return None

    def _table(self, config: str, out: str) -> str | None:
        kind = self.kind(config)
        if kind not in ("free_tree_mineyev", "walls_zn"):
            return None
        rows = list(csv.reader(io.StringIO(out)))[1:]
        if not rows:
            return "empty table"
        for x_text, y_text, energy, _ in rows:
            x, y = ast.literal_eval(x_text), ast.literal_eval(y_text)
            if kind == "free_tree_mineyev":
                want = 2 * (_free_distance(x, y) + 1) if x != y else 0
            else:
                want = sum(abs(a - b) for a, b in zip(x, y))
            if _rational(energy) != want:
                return f"table row {x_text} {y_text}: energy {energy}, identity gives {want}"
        return None

    def _amalgam_growth(self, config: str, radius: int, out: str) -> str | None:
        from labparts.amalgam import amalgam_energy_formula
        from labparts.groups import sphere_list

        key = (config, radius)
        if key not in self._growth_minima:
            built = self.built(config)
            tree, sgc, shc = built.extras["tree"], built.extras["struct_gc"], built.extras["struct_hc"]
            q = built.space.norm.q
            self._growth_minima[key] = [min(amalgam_energy_formula(tree, sgc, shc, q, g) for g in sphere)
                                        for sphere in sphere_list(built.group, radius)]
        rows = list(csv.DictReader(io.StringIO(out)))
        got = [_rational(row["min_energy"]) for row in rows]
        if got != self._growth_minima[key]:
            return "growth min_energy differs from the closed-form formula"
        return None

    def _point(self, config: str, text: str):
        built = self.built(config)
        if text.startswith("#"):
            index = int(text[1:])
            if (config, index) not in self._points:
                self._points[config, index] = built.points(index + 1)[index]
            return self._points[config, index]
        return built.coerce(json.loads(text))

    def _dist(self, config: str, x_text: str, y_text: str, out: str) -> str | None:
        from labparts.core import pair_energy

        first = out.splitlines()[0]
        if not first.startswith("energy "):
            return "dist printed no energy line"
        built = self.built(config)
        want = pair_energy(built.space, self._point(config, x_text), self._point(config, y_text))
        if _rational(first.split()[1]) != want:
            return f"dist energy {first.split()[1]} differs from pair_energy {want}"
        return None
