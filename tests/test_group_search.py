"""The lazy sphere-by-sphere search and the one-pass amalgam inverse."""

import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from labparts.cli import build_space
from labparts.groups import (
    AmalgamGroup,
    DirectSumGroup,
    FiniteGroup,
    FreeGroup,
    ProductGroup,
    ZGroup,
    ball_enumerate,
    infinite_dihedral,
    sphere_list,
    spheres,
    z4_z6_amalgam,
)
from oracles import rewrite_normal_form


def reference_ball(group, radius, generators=None):
    """One breadth-first search to the full radius, sorted once at the end."""
    gens = list(generators if generators is not None else group.generators)
    gens += [group.inv(g) for g in gens]
    lengths = {group.identity: 0}
    frontier = [group.identity]
    for r in range(1, radius + 1):
        nxt = []
        for x in frontier:
            for s in gens:
                y = group.mul(x, s)
                if y not in lengths:
                    lengths[y] = r
                    nxt.append(y)
        frontier = nxt
    return sorted(lengths.items(), key=lambda kv: (kv[1], group.element_key(kv[0])))


def s3_amalgam():
    """S3 amalgamated with S3 over Z/2, through two different transpositions."""
    s3 = FiniteGroup.symmetric(3)
    involutions = [g for g in s3.elements() if g != s3.identity and s3.mul(g, g) == s3.identity]
    return AmalgamGroup(s3, s3, FiniteGroup.cyclic(2), (s3.identity, involutions[0]), (s3.identity, involutions[1]))


def z6_z9_amalgam():
    """Z/6 amalgamated with Z/9 over Z/3, where a tail and its inverse differ."""
    return AmalgamGroup(FiniteGroup.cyclic(6), FiniteGroup.cyclic(9), FiniteGroup.cyclic(3), (0, 2, 4), (0, 3, 6))


GROUPS = {
    "S3": (FiniteGroup.symmetric(3), 5),
    "Z": (ZGroup(), 6),
    "F2": (FreeGroup(2), 4),
    "Z3^(3)": (DirectSumGroup(FiniteGroup.cyclic(3), range(3)), 7),
    "D_inf": (infinite_dihedral(), 5),
    "Z^2": (ProductGroup([ZGroup(), ZGroup()]), 4),
    "Z4*Z6": (z4_z6_amalgam(), 5),
    "S3*S3": (s3_amalgam(), 4),
    "Z6*Z9": (z6_z9_amalgam(), 3),
}


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_ball_and_spheres_match_one_full_search(name):
    group, radius = GROUPS[name]
    ball = ball_enumerate(group, radius)
    assert ball == reference_ball(group, radius)
    by_sphere = sphere_list(group, radius)
    assert len(by_sphere) == radius + 1
    assert [(x, r) for r, sphere in enumerate(by_sphere) for x in sphere] == ball
    assert list(itertools.islice(spheres(group), radius + 1)) == [s for s in by_sphere if s]


def test_sphere_search_runs_only_as_far_as_asked():
    z46 = z4_z6_amalgam()
    products = []

    class Counting:
        identity, generators, element_key, inv = z46.identity, z46.generators, z46.element_key, z46.inv

        def mul(self, a, b):
            products.append(1)
            return z46.mul(a, b)

    search = spheres(Counting())
    assert next(search) == [z46.identity] and not products
    first = next(search)
    assert len(products) == 2 * len(z46.generators) == len(first)
    next(search)
    assert len(products) == 2 * len(z46.generators) * (1 + len(first))


def spheres_with_repeats(group, generators=None):
    """The sphere search over the symmetrised generators with repeats kept,
    so that an involution is multiplied twice per element."""
    gens = list(generators if generators is not None else group.generators)
    gens = gens + [group.inv(g) for g in gens]
    seen = {group.identity}
    sphere = [group.identity]
    while sphere:
        yield sphere
        nxt = []
        for x in sphere:
            for s in gens:
                y = group.mul(x, s)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        sphere = sorted(nxt, key=group.element_key)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
BUILT = {path.name: build_space(json.loads(path.read_text()), CONFIGS) for path in sorted(CONFIGS.glob("*.json"))}
ACTING = {name: built.group for name, built in BUILT.items() if built.group is not None}


@pytest.mark.parametrize("name", sorted(ACTING))
def test_spheres_equal_the_search_with_repeated_generators(name):
    group = ACTING[name]
    # radii 0 to 6, or fewer where a finite group runs out
    assert list(itertools.islice(spheres(group), 7)) == list(itertools.islice(spheres_with_repeats(group), 7))


def test_an_involution_costs_one_product_per_sphere_element():
    group = ACTING["proper_sum.json"]  # seven generators, each its own inverse
    products = []

    class Counting:
        identity, generators, element_key, inv = group.identity, group.generators, group.element_key, group.inv

        def mul(self, a, b):
            products.append(1)
            return group.mul(a, b)

    search = spheres(Counting())
    sizes = [len(next(search)) for _ in range(4)]
    assert sizes == [1, 7, 21, 35]
    assert len(products) == 7 * (1 + 7 + 21)


def test_spheres_of_a_finite_group_stop_after_its_diameter():
    z4 = FiniteGroup.cyclic(4)
    assert list(spheres(z4)) == [[0], [1, 3], [2]]
    assert sphere_list(z4, 4) == [[0], [1, 3], [2], [], []]


any_letters = st.lists(st.tuples(st.sampled_from(["L", "R"]), st.integers(0, 8)), max_size=20)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["Z4*Z6", "S3*S3", "Z6*Z9"]), any_letters)
def test_one_pass_inverse_matches_letter_by_letter_rewrite(name, letters):
    am = GROUPS[name][0]
    letters = [(side, x % am._side(side)[0].size) for side, x in letters]
    u = am.normal_form(letters)
    inverse = am.inv(u)
    assert inverse == rewrite_normal_form(am, [(side, am._side(side)[0].inv(x)) for side, x in reversed(am.letters(u))])
    assert am.is_reduced(inverse)
    assert am.mul(u, inverse) == am.identity == am.mul(inverse, u)
