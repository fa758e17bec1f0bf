"""The ``table`` subcommand against a direct ordered-pair table.

``table`` computes each unordered pair once and, on an orbit node, reads the
energy of (g x0, h x0) off the cached energy of the element g^-1 h.  These
tests rebuild the table the direct way, one oracle call per ordered pair,
and compare the two entry by entry.
"""

import csv
import dataclasses
import io
import json
import math
from pathlib import Path

import pytest

from labparts import cli
from labparts.cli import build_space, main, rational_str
from labparts.core import energy_to_dist, pair_energy

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
ORBIT_CONFIGS = ("amalgam_q1", "amalgam_q2", "dihedral", "free_tree", "proper_sum", "wreath", "z_walls", "z2_walls")


def built_of(config: Path):
    return build_space(json.loads(config.read_text()), config.parent)


def table_cells(capsys, config: Path, limit: int) -> list[list[str]]:
    """The rows of ``table config --limit limit``, header checked and dropped."""
    assert main(["table", str(config), "--limit", str(limit)]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["x", "y", "energy", "dist"]
    return rows[1:]


def direct_cells(built, limit: int) -> list[list[str]]:
    """The same table with one oracle call per ordered pair, diagonal included."""
    points = built.points(limit)
    out = []
    for x in points:
        for y in points:
            e = pair_energy(built.space, x, y)
            out.append([repr(x), repr(y), rational_str(e), f"{energy_to_dist(built.space.norm, e):.12g}"])
    return out


def mismatches(table, direct) -> list:
    assert len(table) == len(direct)
    return [(t, d) for t, d in zip(table, direct) if t != d]


@pytest.mark.parametrize("name", ORBIT_CONFIGS)
def test_orbit_table_equals_the_direct_table(capsys, name):
    config = CONFIGS / f"{name}.json"
    built = built_of(config)
    assert built.orbit
    reached = built.orbit_elements(30)
    action = built.actions["main"]
    assert all(action.point_map(g, built.basepoint) == p for p, g in reached.items())
    assert built.points(30) == list(reached)
    assert mismatches(table_cells(capsys, config, 30), direct_cells(built, 30)) == []


@pytest.mark.parametrize("second, limit", [
    ({"kind": "free_tree_mineyev", "rank": 2, "q": 2}, 20),
    ({"kind": "naive", "group": {"cyclic": 3}, "q": 2}, 20),
    ({"kind": "cocycle", "group": "Z", "file": "c.txt", "radius": 3}, 30),
], ids=["free_tree", "naive", "cocycle"])
def test_a_product_of_acting_factors_lists_its_orbit(tmp_path, capsys, second, limit):
    """A product whose factors all act and whose points are not enumerated lists
    its orbit, as a ``semidirect`` node does, and its table is the direct one.
    A ``cocycle`` factor's translations end at its evaluated ball of radius 3,
    so that orbit ends at Z x Z's sphere of radius 4, after 25 points, and the
    table says so in a last line."""
    (tmp_path / "c.txt").write_text("q 2\ngen 1 | 1 0 ; 0 1 | 1 0\n")
    config = tmp_path / "acting_product.json"
    factors = [{"kind": "walls_zn", "dim": 1, "q": 2}, second]
    config.write_text(json.dumps({"kind": "product", "q": 2, "factors": factors}))
    built = built_of(config)
    listed = built.listing(limit)
    assert built.orbit and built.points(limit) == list(built.orbit_elements(limit)) == list(listed)
    cells = table_cells(capsys, config, limit)
    if second["kind"] == "cocycle":
        assert len(listed) == 25
        assert cells.pop() == ["# listed 25 of 30 points: the orbit leaves the space at radius 4"]
    else:
        assert len(listed) == limit and listed.note is None
    assert mismatches(cells, direct_cells(built, limit)) == []


def test_a_point_map_that_is_no_isometry_is_caught(capsys, monkeypatch):
    # x -> x + t|t| per coordinate: the energy of (g x0, h x0) then depends on
    # more than g^-1 h.  (A map like x -> 2x + t would not do: on the orbit of
    # the basepoint it is still a translation, so the cached table stays exact.)
    def squared(t, x):
        return tuple(xi + ti * abs(ti) for xi, ti in zip(x, t))

    def mutated(node, base_dir, path="root"):
        built = build_space(node, base_dir, path)
        built.actions["main"] = dataclasses.replace(built.actions["main"], point_map=squared)
        return built

    config = CONFIGS / "z2_walls.json"
    direct = direct_cells(mutated(json.loads(config.read_text()), config.parent), 30)
    monkeypatch.setattr(cli, "build_space", mutated)
    assert mismatches(table_cells(capsys, config, 30), direct)


@pytest.mark.parametrize(
    "node",
    [{"kind": "naive", "q": "3/2", "points": 4}, {"kind": "walls_zn", "q": "3/2", "dim": 2}],
    ids=["naive", "walls_zn"],
)
def test_non_integer_exponent_diagonal_prints_as_the_direct_table(tmp_path, capsys, node):
    config = tmp_path / "space.json"
    config.write_text(json.dumps(node))
    table = table_cells(capsys, config, 6)
    assert mismatches(table, direct_cells(built_of(config), 6)) == []
    diagonal = [row[2:] for row in table if row[0] == row[1]]
    assert diagonal and all(cells == ["0.0", "0"] for cells in diagonal)


def oracle_calls(monkeypatch, capsys, config: Path, limit: int) -> tuple[int, int]:
    """Calls of the root node's ``diff`` made by one ``table`` run, and the
    number of points the table lists."""
    calls = 0

    def counted_build(node, base_dir, path="root"):
        built = build_space(node, base_dir, path)
        if path == "root":
            diff = built.space.diff

            def counted(x, y):
                nonlocal calls
                calls += 1
                return diff(x, y)

            built.space = dataclasses.replace(built.space, diff=counted)
        return built

    monkeypatch.setattr(cli, "build_space", counted_build)
    n = math.isqrt(len(table_cells(capsys, config, limit)))
    return calls, n


@pytest.mark.parametrize("name", ["naive", "product", "quotient_average"])
def test_table_computes_each_pair_once_off_an_orbit(monkeypatch, capsys, name):
    config = CONFIGS / f"{name}.json"
    assert not built_of(config).orbit
    calls, n = oracle_calls(monkeypatch, capsys, config, 30)
    assert n > 1 and calls <= n * (n + 1) // 2


def test_amalgam_table_reads_energies_off_the_group_action(monkeypatch, capsys):
    calls, n = oracle_calls(monkeypatch, capsys, CONFIGS / "amalgam_q2.json", 20)
    assert n == 20 and calls <= 100  # one call per ordered pair would be 400


def test_a_short_sampled_table_ends_with_a_comment(capsys):
    assert main(["table", str(CONFIGS / "product.json"), "--limit", "100"]) == 0
    lines = capsys.readouterr().out.splitlines()
    n = len({line.split('","')[0] for line in lines[1:-1]})
    assert n < 100 and len(lines) == 1 + n * n + 1
    assert lines[-1] == f"# listed {n} of 100 points: seeded sampling found no more"


@pytest.mark.parametrize("config, limit", [("product.json", 6), ("naive.json", 100), ("wreath.json", 100)])
def test_full_finite_and_orbit_tables_end_without_a_comment(capsys, config, limit):
    assert main(["table", str(CONFIGS / config), "--limit", str(limit)]) == 0
    assert not any(line.startswith("#") for line in capsys.readouterr().out.splitlines())


def test_a_short_sampled_export_notes_it_on_stderr(capsys, tmp_path):
    argv = ["export", str(CONFIGS / "product.json"), "--what", "labels", "--limit", "100"]
    assert main(argv + ["--out", str(tmp_path / "labels.json")]) == 0
    n = len(built_of(CONFIGS / "product.json").points(100))
    assert n < 100 and capsys.readouterr().err == f"# listed {n} of 100 points: seeded sampling found no more\n"
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out == (tmp_path / "labels.json").read_text() and json.loads(out)  # stdout holds the JSON alone
    assert err.startswith(f"# listed {n} of 100")


@pytest.mark.parametrize("config, limit", [("product.json", 6), ("naive.json", 100), ("wreath.json", 100)])
@pytest.mark.parametrize("what", ["labels", "vectors"])
def test_full_finite_and_orbit_exports_print_no_note(capsys, config, limit, what):
    assert main(["export", str(CONFIGS / config), "--what", what, "--limit", str(limit)]) == 0
    assert capsys.readouterr().err == ""
