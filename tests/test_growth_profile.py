"""``growth_profile`` against a direct profile.

``growth_profile`` computes the energy of each pair {g, g^-1} of a word
sphere once: the action is by isometries, so d(g x0, x0) = d(x0, g^-1 x0).
These tests rebuild the profile the direct way, one oracle call per sphere
element, and compare the two.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from labparts import cli
from labparts.cli import build_space, growth_profile, main
from labparts.core import energy_to_dist, pair_energy
from labparts.groups import sphere_list, spheres

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
ACTION_CONFIGS = ("amalgam_q1", "amalgam_q2", "dihedral", "free_tree", "proper_sum", "quotient_average",
                  "wreath", "z2_walls", "z_walls")


def built_of(config: Path):
    return build_space(json.loads(config.read_text()), config.parent)


def direct_profile(built, radius: int) -> dict:
    """The profile with one oracle call per sphere element."""
    action = built.actions["main"]
    rows = []
    for r, sphere in enumerate(s for s in sphere_list(action.group, radius) if s):
        energies = [pair_energy(built.space, action.point_map(g, built.basepoint), built.basepoint) for g in sphere]
        dists = [energy_to_dist(built.space.norm, e) for e in energies]
        rows.append(
            {
                "radius": r,
                "sphere_size": len(sphere),
                "min_energy": min(energies),
                "min_dist": min(dists),
                "max_dist": max(dists),
                "mean_dist": sum(dists) / len(dists),
            }
        )
    return {"rows": rows, "partial": False, "radius": radius, "reached": len(rows) - 1}


@pytest.mark.parametrize("name", ACTION_CONFIGS)
def test_growth_profile_equals_the_direct_profile(name):
    built = built_of(CONFIGS / f"{name}.json")
    assert growth_profile(built, 4) == direct_profile(built, 4)


def test_a_point_map_that_moves_g_and_its_inverse_apart_is_caught():
    # x -> x + 2t on positive coordinates of t and x + t on the others: g
    # and g^-1 then move the basepoint by different distances
    def lopsided(t, x):
        return tuple(xi + ti * (2 if ti > 0 else 1) for xi, ti in zip(x, t))

    built = built_of(CONFIGS / "z2_walls.json")
    built.actions["main"] = dataclasses.replace(built.actions["main"], point_map=lopsided)
    assert growth_profile(built, 4) != direct_profile(built, 4)


def test_free_tree_growth_makes_one_oracle_call_per_inverse_pair(monkeypatch, capsys):
    # F2 spheres of radius 0..4 hold 1 + 4 + 12 + 36 + 108 = 161 elements;
    # the identity is its own inverse and the other 160 pair up
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
    assert main(["growth", str(CONFIGS / "free_tree.json"), "--radius", "4"]) == 0
    assert capsys.readouterr().out.startswith("radius,sphere_size")
    assert calls == 81


def test_growth_converts_each_distinct_energy_to_a_distance_once(monkeypatch):
    built = built_of(CONFIGS / "free_tree.json")
    expected = growth_profile(built, 5)
    converted = []

    def counted(norm, energy):
        converted.append(energy)
        return energy_to_dist(norm, energy)

    monkeypatch.setattr(cli, "energy_to_dist", counted)
    assert growth_profile(built, 5) == expected
    assert len(converted) == len(set(converted)) == 6


def test_a_spent_budget_stops_the_sphere_search(monkeypatch, capsys):
    # F2's radius-10 ball holds 88,573 elements; a budget of 10 profiles the
    # first three spheres (1 + 4 + 5 of 12) and draws no sphere past them
    drawn = []

    def counted(group, generators=None):
        for sphere in spheres(group, generators):
            drawn.append(len(sphere))
            yield sphere

    monkeypatch.setattr(cli, "spheres", counted)
    assert main(["growth", str(CONFIGS / "free_tree.json"), "--radius", "10", "--budget", "10"]) == 0
    assert capsys.readouterr().out == (
        "radius,sphere_size,min_energy,min_dist,max_dist,mean_dist\n"
        "0,1,0/1,0,0,0\n"
        "1,4,4/1,2,2,2\n"
        "2,5,6/1,2.44948974278,2.44948974278,2.44948974278\n"
        "# partial: enumeration budget exceeded\n"
    )
    assert len(drawn) <= 4


@pytest.mark.parametrize("name", ACTION_CONFIGS)
def test_a_budget_that_holds_every_sphere_changes_nothing(name):
    built = built_of(CONFIGS / f"{name}.json")
    elements = sum(map(len, sphere_list(built.actions["main"].group, 4)))
    assert growth_profile(built, 4, budget=elements) == growth_profile(built, 4)
    short = growth_profile(built, 4, budget=elements - 1)
    assert short["partial"] and short["radius"] == short["reached"] == 4
    assert sum(row["sphere_size"] for row in short["rows"]) == elements - 1


def test_a_budget_spent_before_a_finite_groups_last_sphere_leaves_its_diameter_unknown(capsys):
    # quotient_average acts by Z4, whose spheres hold 1, 2 and 1 elements: a budget spent on the
    # first sphere leaves the others unseen, and one spent exactly on the last sphere is not partial
    config = str(CONFIGS / "quotient_average.json")
    sizes = [len(s) for s in sphere_list(built_of(CONFIGS / "quotient_average.json").actions["main"].group, 9) if s]
    diameter = len(sizes) - 1
    lines = {}
    for budget in (sizes[0], sum(sizes)):
        assert main(["growth", config, "--radius", "9", "--budget", str(budget)]) == 0
        lines[budget] = capsys.readouterr().out.splitlines()
    assert lines[sizes[0]][-2:] == ["0,1,0/1,0,0,0", "# partial: enumeration budget exceeded"]
    assert lines[sum(sizes)][-1] == f"# radius 9 requested; spheres past radius {diameter} are empty"
    assert not any(line.startswith("# partial") for line in lines[sum(sizes)])
