"""The signed label-map contract, the factor-tagging combinator and the
weighted naive sum expressed as a direct sum."""

import dataclasses
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from labparts.cli import build_space
from labparts.constructions import weighted_naive_sum_space
from labparts.core import (
    DomainError,
    InvalidInput,
    SparseVec,
    check_equivariance,
    dirac,
    factor,
    factor_label_map,
    q_energy,
    relabel,
    wall,
)
from labparts.groups import DirectSumGroup, FiniteGroup, ball_enumerate

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_factor_label_map_moves_the_inner_label_and_keeps_tag_and_sign():
    def flip(g, label):
        return label, -1 if g else 1

    def shift(t, label):
        ((tag, k),) = label
        return wall(k - t), 1

    label_map = factor_label_map(lambda g, i: ((flip, shift)[i], g[i]))
    assert label_map((1, 3), factor(0, wall(5))) == (factor(0, wall(5)), -1)
    assert label_map((0, 3), factor(0, wall(5))) == (factor(0, wall(5)), 1)
    assert label_map((1, 3), factor(1, wall(5))) == (factor(1, wall(2)), 1)
    # nested tags: the outer map hands the still-tagged inner label to the inner one
    nested = factor_label_map(lambda g, i: (label_map, g))
    assert nested((1, 3), factor(1, factor(1, wall(5)))) == (factor(1, factor(1, wall(2))), 1)


def test_relabel_reads_signed_images():
    v = SparseVec(((dirac(0), 2), (dirac(1), -2)))
    assert relabel(v, lambda l: (l, -1)) == -v
    assert relabel(v, lambda l: (l, 1)) == v


def test_every_config_action_returns_signed_label_pairs():
    rng = random.Random(11)
    covered = []
    for config in sorted(CONFIGS.glob("*.json")):
        built = build_space(json.loads(config.read_text()), CONFIGS)
        for name, action in sorted(built.actions.items()):
            images = []

            def recording(g, label, inner=action.label_map):
                images.append(inner(g, label))
                return images[-1]

            ball = [g for g, _ in ball_enumerate(action.group, 2)]
            samples = [(rng.choice(ball), *built.space.universe.sample(rng, 2)) for _ in range(25)]
            report = check_equivariance(built.space, dataclasses.replace(action, label_map=recording), samples)
            assert report.passed, (config.stem, name, report.failures)
            assert images, (config.stem, name)
            for image in images:
                assert isinstance(image, tuple) and len(image) == 2, (config.stem, name, image)
                label, sign = image
                assert type(sign) is int and sign in (1, -1), (config.stem, name, image)
                assert label and all(isinstance(c, tuple) for c in label), (config.stem, name, image)
            covered.append(f"{config.stem}:{name}")
    assert covered == [
        "amalgam_q1:main", "amalgam_q2:main", "dihedral:main", "free_tree:main", "proper_sum:main",
        "quotient_average:main", "wreath:main", "wreath:shift", "z2_walls:main", "z_walls:main",
    ]


def test_moving_by_g_inverse_then_by_g_gives_the_vector_back():
    """On every action of every shipped config, relabelling c(x, y) by the
    label map of g^-1 gives c(gx, gy), and relabelling that by the label map
    of g gives c(x, y) back."""
    rng = random.Random(23)
    covered = []
    for config in sorted(CONFIGS.glob("*.json")):
        built = build_space(json.loads(config.read_text()), CONFIGS)
        for name, action in sorted(built.actions.items()):
            ball = [g for g, _ in ball_enumerate(action.group, 2)]
            for _ in range(25):
                g = rng.choice(ball)
                inv = action.group.inv(g)
                x, y = built.space.universe.sample(rng, 2)
                vec = built.space.diff(x, y)
                moved = relabel(vec, lambda l: action.label_map(inv, l))
                assert moved == built.space.diff(action.point_map(g, x), action.point_map(g, y)), (config.stem, g)
                assert relabel(moved, lambda l: action.label_map(g, l)) == vec, (config.stem, g)
            covered.append(f"{config.stem}:{name}")
    assert covered == [
        "amalgam_q1:main", "amalgam_q2:main", "dihedral:main", "free_tree:main", "proper_sum:main",
        "quotient_average:main", "wreath:main", "wreath:shift", "z2_walls:main", "z_walls:main",
    ]


def test_a_label_map_returning_a_bare_label_raises_domain_error_naming_it():
    """check_equivariance reads an image's weight only once it is a (label, +-1)
    pair: on dihedral and wreath the weight function used to raise TypeError
    on a bare label before relabel could name it."""
    rng = random.Random(5)
    covered = []
    for config in sorted(CONFIGS.glob("*.json")):
        built = build_space(json.loads(config.read_text()), CONFIGS)
        for name, action in sorted(built.actions.items()):
            bare = dataclasses.replace(action, label_map=lambda g, l, inner=action.label_map: inner(g, l)[0])
            ball = [g for g, _ in ball_enumerate(action.group, 2)]
            samples = []
            while len(samples) < 5:
                x, y = built.space.universe.sample(rng, 2)
                if len(built.space.diff(x, y)):
                    samples.append((rng.choice(ball), x, y))
            with pytest.raises(DomainError, match="not to a \\(label, \\+-1\\) pair"):
                check_equivariance(built.space, bare, samples)
            covered.append(f"{config.stem}:{name}")
    assert len(covered) == 10 and {"dihedral:main", "wreath:main", "z_walls:main", "amalgam_q2:main"} <= set(covered)


# ---------------------------------------------------------------------------
# the weighted naive sum


def phi_abs(i):
    return Fraction(1 + abs(i))


def test_weighted_naive_sum_vectors_are_the_phi_weighted_dirac_pairs():
    group = DirectSumGroup(FiniteGroup.cyclic(3), range(-2, 2))
    space, _ = weighted_naive_sum_space(group, phi_abs, 2)
    elements = list(group.elements())
    for w in elements:
        for wp in elements:
            expected = []
            for i in group.index_window:
                a, b = group.component(w, i), group.component(wp, i)
                if a != b:
                    expected += [(factor(i, dirac(a)), phi_abs(i)), (factor(i, dirac(b)), -phi_abs(i))]
            vec = space.diff(w, wp)
            assert vec == SparseVec(expected)
            assert all(space.norm.weight(label) == Fraction(1, 2) for label in vec.support())


def test_weighted_naive_sum_points_follow_direct_sum_membership():
    group = DirectSumGroup(FiniteGroup.cyclic(3), range(-2, 3))
    space, _ = weighted_naive_sum_space(group, phi_abs, 2)
    contains = space.universe.contains
    assert all(contains(w) for w in group.elements())
    assert not contains(((1, 1), (-1, 2)))  # unsorted entries
    assert not contains(((0, 1), (0, 2)))  # a repeated index
    assert not contains(((0, 0),))  # an identity entry
    assert not contains(((0, 3),))  # a value outside the lamp factor Z/3
    assert not contains([(0, 1)])  # not a tuple


def test_weighted_naive_sum_rejects_a_negative_weight():
    # factors are built on first use, so the index with weight -1 fails there
    group = DirectSumGroup(FiniteGroup.cyclic(2), range(3))
    space, _ = weighted_naive_sum_space(group, lambda i: Fraction(1 - i), 2)
    assert q_energy(space.norm, space.diff(((0, 1),), group.identity)) == 1
    with pytest.raises(InvalidInput):
        space.diff(((2, 1),), group.identity)
