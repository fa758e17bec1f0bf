import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from labparts.cli import build_space, main
from labparts.core import DomainError, check_equivariance, check_pseudo_metric, pair_energy, sep
from labparts.groups import DirectSumGroup, FiniteGroup, ball_enumerate, coset_table
from labparts.walls import (
    MeasuredWalls,
    PointUniverse,
    coset_walls,
    coset_walls_action,
    custom_walls_load,
    finite_walls,
    walls_to_labelled,
    wreath_walls,
    z_line_walls_space,
    zn_half_space_walls,
    zn_translation_action,
)
from oracles import l1_distance

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


points2 = st.tuples(st.integers(-6, 6), st.integers(-6, 6))


def test_z_line_separating_walls():
    walls = zn_half_space_walls(1)
    assert sorted(walls.separating((0,), (3,))) == [(0, 0), (0, 1), (0, 2)]
    assert walls.separating((2,), (2,)) == []
    assert walls.wall_distance((0,), (3,)) == 3


@settings(max_examples=150, deadline=None)
@given(points2, points2)
def test_z2_wall_distance_is_l1(x, y):
    walls = zn_half_space_walls(2)
    assert walls.wall_distance(x, y) == l1_distance(x, y)


def test_z2_example_pair():
    walls = zn_half_space_walls(2)
    assert walls.wall_distance((0, 0), (2, 3)) == 5


@pytest.mark.parametrize("q", [1, 2, 3])
def test_energy_equals_wall_distance_for_all_q(q, rng):
    walls = zn_half_space_walls(2)
    space = walls_to_labelled(walls, q)
    for _ in range(40):
        x, y = walls.universe.sample(rng, 2)
        assert pair_energy(space, x, y) == walls.wall_distance(x, y)


def test_wall_values_are_signed_units():
    space, _ = z_line_walls_space(2)
    v = sep(space, (5,), (1,))
    assert {abs(val) for _, val in v.items()} == {1}
    assert sep(space, (1,), (5,)) == -v


def test_weighted_walls_scale_energy(rng):
    base = zn_half_space_walls(1)
    walls = MeasuredWalls(
        universe=base.universe,
        weight=lambda h: Fraction(2, 3),
        member=base.member,
        separating=base.separating,
    )
    space = walls_to_labelled(walls, 1)
    assert pair_energy(space, (0,), (4,)) == Fraction(8, 3)


def test_translation_equivariance(rng):
    space, action = z_line_walls_space(1)
    samples = [(rng.randrange(-6, 7), (rng.randrange(-8, 9),), (rng.randrange(-8, 9),)) for _ in range(150)]
    report = check_equivariance(space, action, samples)
    assert report.passed, report.failures[:2]


@pytest.mark.parametrize("n", [2, 3])
def test_zn_translation_action_is_equivariant(n, rng):
    walls = zn_half_space_walls(n)
    space, action = walls_to_labelled(walls, 2), zn_translation_action(n)
    ball = [g for g, _ in ball_enumerate(action.group, 2)]
    assert len(ball) == 2 * n * n + 2 * n + 1
    samples = [(rng.choice(ball), *walls.universe.sample(rng, 2)) for _ in range(150)]
    report = check_equivariance(space, action, samples)
    assert report.passed and report.total == 150, report.failures[:2]
    t = tuple(range(1, n + 1))
    assert action.point_map(t, (0,) * n) == t


def test_zn_translation_action_checks_on_a_three_dimensional_walls_node(tmp_path, capsys):
    config = tmp_path / "z3.json"
    config.write_text(json.dumps({"kind": "walls_zn", "dim": 3, "q": 1}))
    assert main(["check", str(config), "--suite", "equivariance", "--samples", "60"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] and report["suites"][0]["samples"] == 60


def test_each_translation_node_keeps_its_group():
    """walls_zn acts by n copies of Z, so a 1-dimensional node's elements are
    1-tuples; the integer line and the dihedral group act by Z itself."""
    built = {name: build_space({"kind": name, **keys}, Path("."))
             for name, keys in [("walls_zn", {"dim": 1, "q": 2}), ("semidirect", {"q": 2})]}
    assert repr(built["walls_zn"].group) == "ProductGroup([ZGroup()])"
    assert repr(built["semidirect"].group) == "SemidirectGroup(ZGroup(), FiniteGroup(Z2, n=2))"
    _, line = z_line_walls_space(2)
    assert repr(line.group) == "ZGroup()" and line.point_map(3, (1,)) == (4,)


def test_check_walls_passes_on_grid(rng):
    walls = zn_half_space_walls(2)
    triples = [tuple(walls.universe.sample(rng, 3)) for _ in range(60)]
    assert check_pseudo_metric(walls_to_labelled(walls, 1), triples).passed


def test_check_walls_flags_asymmetric_oracle(rng):
    base = zn_half_space_walls(1)

    def broken_separating(x, y):
        # drops a wall in one direction only
        out = list(base.separating(x, y))
        return out[1:] if x < y and out else out

    broken = MeasuredWalls(
        universe=base.universe,
        weight=base.weight,
        member=base.member,
        separating=broken_separating,
    )
    triples = [((0,), (3,), (1,)), ((2,), (5,), (0,))]
    assert not check_pseudo_metric(walls_to_labelled(broken, 1), triples).passed


def test_single_wall_system_passes():
    universe = PointUniverse(contains=lambda x: x in ("in", "out"), points=("in", "out"))
    walls = MeasuredWalls(
        universe=universe,
        weight=lambda h: Fraction(1),
        member=lambda h, x: x == "in",
        separating=lambda x, y: ["w"] if x != y else [],
    )
    assert check_pseudo_metric(walls_to_labelled(walls, 1), [("in", "out", "in")]).passed
    space = walls_to_labelled(walls, 2)
    assert pair_energy(space, "in", "out") == 1


def test_coset_walls_on_s3(rng):
    s3 = FiniteGroup.symmetric(3)
    subgroups = [tuple(sorted({s3.identity, g})) for g in range(6) if s3.mul(g, g) == s3.identity and g != s3.identity]
    walls = coset_walls(s3, subgroups)
    triples = [tuple(walls.universe.sample(rng, 3)) for _ in range(40)]
    assert check_pseudo_metric(walls_to_labelled(walls, 1), triples).passed
    space = walls_to_labelled(walls, 1)
    action = coset_walls_action(s3, subgroups)
    samples = [(rng.randrange(6), rng.randrange(6), rng.randrange(6)) for _ in range(120)]
    assert check_equivariance(space, action, samples).passed


def test_custom_walls_file(tmp_path):
    path = tmp_path / "walls.txt"
    path.write_text(
        "points a b c\n"
        "wall w1 1 1 0 0\n"
        "wall w2 2/3 1 1 0\n"
    )
    walls = custom_walls_load(path)
    assert walls.wall_distance("a", "b") == 1
    assert walls.wall_distance("b", "c") == Fraction(2, 3)
    assert walls.wall_distance("a", "c") == Fraction(5, 3)
    space = walls_to_labelled(walls, 2)
    assert pair_energy(space, "a", "c") == Fraction(5, 3)


def test_custom_walls_rejects_bad_files(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("wall w1 1 0 1\n")
    with pytest.raises(DomainError):
        custom_walls_load(bad)
    bad.write_text("points a b\nwall w1 1 0\n")
    with pytest.raises(DomainError):
        custom_walls_load(bad)


@pytest.mark.parametrize("table,subgroup", [("Z4.tbl", [0]), ("S3.tbl", [0, 1])])
def test_wreath_walls_separate_as_the_finite_walls_reference(table, subgroup):
    # Z/4 over the trivial subgroup is configs/wreath.json's G/L; S3 over an order-2 subgroup has 3 cosets
    cosets = coset_table(FiniteGroup.load(CONFIGS / table), subgroup)
    lamps = FiniteGroup.cyclic(2)
    walls = wreath_walls(DirectSumGroup(lamps, cosets.reps))
    index_set = cosets.reps
    reference = finite_walls(walls.universe, [("supp", j) for j in index_set] + [("pos", j) for j in index_set],
                             walls.member)
    words = [tuple((j, 1) for j in sorted(support))
             for k in range(len(index_set) + 1) for support in itertools.combinations(index_set, k)]
    points = [(w, i) for w in words for i in index_set]
    assert all(walls.universe.contains(p) for p in points)
    for p in points:
        for r in points:
            assert list(walls.separating(p, r)) == reference.separating(p, r)
