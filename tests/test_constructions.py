import math
from fractions import Fraction

import pytest

from labparts.core import (
    InvalidInput,
    check_equivariance,
    check_pseudo_metric,
    dist,
    energy_to_dist,
    pair_energy,
    q_energy,
    sep,
)
from labparts.constructions import (
    averaging_eta,
    direct_sum_space,
    group_naive_space,
    infinite_dihedral_space,
    naive_space,
    product_action,
    product_space,
    proper_sum_basepoint,
    proper_sum_space,
    pullback,
    quotient_average,
    weighted_naive_space,
    weighted_naive_sum_space,
    wreath_glue,
)
from labparts.groups import DirectSumGroup, FiniteGroup
from labparts.walls import walls_to_labelled, wreath_walls, z_line_walls_space, zn_half_space_walls


# ---------------------------------------------------------------------------
# naive families


@pytest.mark.parametrize("q", [1, 2, 3])
def test_naive_metric_is_discrete(q):
    space = naive_space(range(5), q)
    for x in range(5):
        for y in range(5):
            expected = Fraction(0 if x == y else 1)
            assert pair_energy(space, x, y) == expected
            assert dist(space, x, y) == float(x != y)


def test_weighted_naive_energy():
    space = weighted_naive_space(range(3), 3, 2)
    assert pair_energy(space, 0, 1) == 9
    zero = weighted_naive_space(range(3), 0, 2)
    assert pair_energy(zero, 0, 1) == 0
    with pytest.raises(InvalidInput):
        weighted_naive_space(range(3), -1, 2)


def test_naive_group_translation(rng):
    z6 = FiniteGroup.cyclic(6)
    space, action = group_naive_space(z6, 2)
    samples = [(rng.randrange(6), rng.randrange(6), rng.randrange(6)) for _ in range(120)]
    assert check_equivariance(space, action, samples).passed


# ---------------------------------------------------------------------------
# pull-backs


def test_pullback_preserves_distances_exactly(rng):
    target, _ = z_line_walls_space(2)
    doubled = pullback(lambda y: (2 * y[0],), target, target.universe)
    for _ in range(60):
        a, b = rng.randrange(-6, 7), rng.randrange(-6, 7)
        assert pair_energy(doubled, (a,), (b,)) == pair_energy(target, (2 * a,), (2 * b,))
    assert pair_energy(doubled, (0,), (3,)) == 6


# ---------------------------------------------------------------------------
# products


def test_product_energy_additivity(rng):
    f1 = naive_space(range(4), 2)
    f2 = walls_to_labelled(zn_half_space_walls(1), 2)
    f3 = weighted_naive_space(range(3), 2, 2)
    space = product_space([f1, f2, f3], 2)
    for _ in range(100):
        x = (rng.randrange(4), (rng.randrange(-5, 6),), rng.randrange(3))
        y = (rng.randrange(4), (rng.randrange(-5, 6),), rng.randrange(3))
        total = pair_energy(space, x, y)
        parts = (
            pair_energy(f1, x[0], y[0])
            + pair_energy(f2, x[1], y[1])
            + pair_energy(f3, x[2], y[2])
        )
        assert total == parts


def test_product_requires_matching_exponent():
    with pytest.raises(InvalidInput):
        product_space([naive_space(range(2), 1), naive_space(range(2), 2)], 2)


def test_two_naive_factors_distance_sqrt2():
    space = product_space([naive_space(range(2), 2), naive_space(range(2), 2)], 2)
    assert pair_energy(space, (0, 0), (1, 1)) == 2
    assert math.isclose(dist(space, (0, 0), (1, 1)), math.sqrt(2), rel_tol=1e-12)
    assert pair_energy(space, (1, 0), (1, 0)) == 0


def test_product_action_coordinatewise(rng):
    z2, z3 = FiniteGroup.cyclic(2), FiniteGroup.cyclic(3)
    s1, a1 = group_naive_space(z2, 2)
    s2, a2 = group_naive_space(z3, 2)
    space, action = product_action([s1, s2], [a1, a2], 2)
    samples = []
    for _ in range(100):
        g = (rng.randrange(2), rng.randrange(3))
        x = (rng.randrange(2), rng.randrange(3))
        y = (rng.randrange(2), rng.randrange(3))
        samples.append((g, x, y))
    assert check_equivariance(space, action, samples).passed
    # factorwise distance of a translated point
    g = (1, 2)
    x = (0, 0)
    assert pair_energy(space, action.point_map(g, x), x) == 2


# ---------------------------------------------------------------------------
# weighted naive sums and the proper sum


def phi_abs(i):
    return Fraction(1 + abs(i))


def test_weighted_naive_sum_energies_all_elements():
    group = DirectSumGroup(FiniteGroup.cyclic(2), range(-3, 4))
    space, _ = weighted_naive_sum_space(group, phi_abs, 2)
    for w in group.elements():
        expected = sum(phi_abs(i) ** 2 for i in group.support(w))
        assert pair_energy(space, w, group.identity) == expected


def test_weighted_naive_sum_spec_example():
    group = DirectSumGroup(FiniteGroup.cyclic(2), range(-3, 4))
    space, _ = weighted_naive_sum_space(group, phi_abs, 2)
    w = group.mul(((-1, 1),), ((2, 1),))
    assert pair_energy(space, w, group.identity) == 13


def test_weighted_naive_sum_general_pairs(rng):
    group = DirectSumGroup(FiniteGroup.cyclic(3), range(-2, 3))
    space, action = weighted_naive_sum_space(group, phi_abs, 2)
    elements = list(group.elements())
    for _ in range(80):
        w, wp = rng.choice(elements), rng.choice(elements)
        expected = sum(phi_abs(i) ** 2 for i in group.support(group.mul(group.inv(w), wp)))
        assert pair_energy(space, w, wp) == expected
    samples = [(rng.choice(elements), rng.choice(elements), rng.choice(elements)) for _ in range(60)]
    assert check_equivariance(space, action, samples).passed


def test_direct_sum_space_chasles(rng):
    factor = naive_space(range(3), 2)
    space = direct_sum_space(lambda i: factor, 0, 2, index_window=range(4))
    pts = [space.universe.sample(rng, 1)[0] for _ in range(30)]
    triples = [(rng.choice(pts), rng.choice(pts), rng.choice(pts)) for _ in range(40)]
    report = check_pseudo_metric(space, triples)
    assert report.passed and report.total == 40


def test_proper_sum_orbital_energy_and_lower_bound():
    factor_group = FiniteGroup.cyclic(2)
    fs, fa = group_naive_space(factor_group, 2)
    group = DirectSumGroup(factor_group, range(-3, 4))
    space, action = proper_sum_space(fs, fa, group, 2, phi_abs)
    y0 = proper_sum_basepoint(group)
    for w in group.elements():
        e = pair_energy(space, action.point_map(w, y0), y0)
        expected = sum(1 + phi_abs(i) ** 2 for i in group.support(w))
        assert e == expected
        if w != group.identity:
            assert e >= max(phi_abs(i) ** 2 for i in group.support(w))


def test_semidirect_action_is_group_homomorphism(rng):
    from labparts.groups import ball_enumerate

    space, action = infinite_dihedral_space(2)
    group = action.group
    ball = [g for g, _ in ball_enumerate(group, 3)]
    for _ in range(150):
        g, gp = rng.choice(ball), rng.choice(ball)
        x = space.universe.sample(rng, 1)[0]
        assert action.point_map(g, action.point_map(gp, x)) == action.point_map(group.mul(g, gp), x)
    assert action.point_map(group.identity, ((5,), 1)) == ((5,), 1)


def test_semidirect_orbital_energy_dihedral():
    # orbital energy of (n, s) at ((0,), e): |n| wall crossings plus the flip
    space, action = infinite_dihedral_space(2)
    x0 = ((0,), 0)
    for n in range(-5, 6):
        for s in (0, 1):
            e = pair_energy(space, action.point_map((n, s), x0), x0)
            assert e == abs(n) + (1 if s else 0)


def test_semidirect_rejects_incompatible_twist():
    from labparts.core import Action, InvalidInput
    from labparts.constructions import semidirect_space
    from labparts.groups import FiniteGroup, infinite_dihedral
    from labparts.walls import z_line_walls_space

    space1, action1 = z_line_walls_space(2)
    flip_group = FiniteGroup.cyclic(2)
    space2, action2 = group_naive_space(flip_group, 2)
    broken_twist = Action(group=flip_group, point_map=lambda s, x: (x[0] + 1,) if s == 1 else x)
    with pytest.raises(InvalidInput):
        semidirect_space(space1, action1, space2, action2, broken_twist, infinite_dihedral(), 2)


def test_wreath_support_evidence():
    from labparts.constructions import wreath_support_evidence
    from labparts.groups import coset_table

    cosets = coset_table(FiniteGroup.cyclic(4), (0,))
    group_w = DirectSumGroup(FiniteGroup.cyclic(2), cosets.reps)
    evidence = wreath_support_evidence(wreath_walls(group_w), group_w, cosets.reps[0], 3)
    assert set(evidence) == set(cosets.reps)
    assert all(v >= 1 for v in evidence.values())


def test_wreath_glue_rejects_lamps_not_of_order_2():
    """The support walls' label map flips a sign, which is the lamp
    translation's only for order-2 lamps: Z/3 lamps used to glue without
    error, and the lamp action then failed its equivariance check."""
    with pytest.raises(InvalidInput, match="order 2"):
        wreath_glue(FiniteGroup.cyclic(4), (0,), *group_naive_space(FiniteGroup.cyclic(3), 2), 2)


def swapping_lamps(a, b):
    """Z/2 swapping points a and b of a 3-point naive space: a lamp factor
    that is not its group under left translation."""
    from labparts.constructions import naive_group_action

    swap = {a: b, b: a}
    factor_action = naive_group_action(FiniteGroup.cyclic(2), lambda s, x: swap.get(x, x) if s else x)
    return weighted_naive_space(range(3), 1, 2), factor_action


def toy_wreath(factor_space, factor_action):
    """The wreath gluing over Z/4 with the lamp factor: walls, space, both actions, i0."""
    space, action_w, action_g = wreath_glue(FiniteGroup.cyclic(4), (0,), factor_space, factor_action, 2)
    return wreath_walls(action_w.group), space, action_w, action_g, 0


def assert_equivariant(space, action, rng):
    from labparts.groups import ball_enumerate

    ball = [g for g, _ in ball_enumerate(action.group, 2)]
    samples = [(rng.choice(ball), *space.universe.sample(rng, 2)) for _ in range(60)]
    report = check_equivariance(space, action, samples)
    assert report.passed, report.failures


def test_wreath_lamps_move_by_the_factor_action(rng):
    """Lamps swapping points 1 and 2.  The lamp group used to move lamp points
    by its own product, which raised IndexError on the point 2."""
    factor_space, factor_action = swapping_lamps(1, 2)
    pairs = [(s, x, y) for s in range(2) for x in range(3) for y in range(3)]
    assert check_equivariance(factor_space, factor_action, pairs).passed

    _, space, action_w, action_g, i0 = toy_wreath(factor_space, factor_action)
    lamp = ((i0, 1),)
    assert action_w.point_map(lamp, (((), i0), ((i0, 2),))) == ((lamp, i0), ((i0, 1),))
    assert action_w.point_map(lamp, (((), i0), ())) == ((lamp, i0), ())
    for action in (action_w, action_g):
        assert_equivariant(space, action, rng)


def test_sums_move_the_lamp_base_point_by_the_factor_action(rng):
    """Lamps swapping points 0 and 1, so the lamps' base point, the identity 0,
    moves.  The proper sum and the wreath gluing both move lamps by that
    action, and their orbital energies keep their closed forms: one per lamp
    plus phi(i)**q, and the wall distance plus one per lamp."""
    factor_space, factor_action = swapping_lamps(0, 1)
    assert factor_action.point_map(1, 0) == 1

    group = DirectSumGroup(factor_action.group, range(-2, 3))
    sum_space, sum_action = proper_sum_space(factor_space, factor_action, group, 2, phi_abs)
    y0 = proper_sum_basepoint(group)
    for w in group.elements():
        expected = sum(1 + phi_abs(i) ** 2 for i in group.support(w))
        assert pair_energy(sum_space, sum_action.point_map(w, y0), y0) == expected

    walls, wreath_space, action_w, action_g, i0 = toy_wreath(factor_space, factor_action)
    x0 = (((), i0), ())
    for w in action_w.group.elements():
        expected = walls.wall_distance((w, i0), ((), i0)) + len(w)
        assert pair_energy(wreath_space, action_w.point_map(w, x0), x0) == expected

    for space, action in ((sum_space, sum_action), (wreath_space, action_w), (wreath_space, action_g)):
        assert_equivariant(space, action, rng)


# ---------------------------------------------------------------------------
# quotient averaging


def quotient_setups():
    z4 = FiniteGroup.cyclic(4)
    s3 = FiniteGroup.symmetric(3)
    transposition = next(g for g in range(6) if g != s3.identity and s3.mul(g, g) == s3.identity)
    return [
        (z4, (0, 2)),
        (s3, tuple(sorted((s3.identity, transposition)))),
    ]


@pytest.mark.parametrize("group,subgroup", quotient_setups())
@pytest.mark.parametrize("q", [1, 2])
def test_quotient_average_norm_bound(group, subgroup, q):
    space, action = group_naive_space(group, q)
    quotient, qaction = quotient_average(space, group, subgroup, action)
    eta = averaging_eta(space, group, subgroup)
    rep_of = {g: qaction.point_map(g, quotient.universe.points[0]) for g in group.elements()}
    base = quotient.universe.points[0]
    if q == 1:
        bound = 2 * q_energy(space.norm, eta)
        for g in group.elements():
            lhs = pair_energy(quotient, rep_of[g], base)
            rhs = pair_energy(space, g, group.identity)
            assert abs(lhs - rhs) <= bound
    else:
        bound = 2 * energy_to_dist(space.norm, q_energy(space.norm, eta))
        for g in group.elements():
            lhs = dist(quotient, rep_of[g], base)
            rhs = dist(space, g, group.identity)
            assert abs(lhs - rhs) <= bound + 1e-9


def test_quotient_average_trivial_subgroup_is_identity(rng):
    z4 = FiniteGroup.cyclic(4)
    space, action = group_naive_space(z4, 1)
    quotient, _ = quotient_average(space, z4, (0,), action)
    for _ in range(20):
        x, y = rng.randrange(4), rng.randrange(4)
        assert pair_energy(quotient, x, y) == pair_energy(space, x, y)


def test_quotient_average_z4_example():
    z4 = FiniteGroup.cyclic(4)
    space, action = group_naive_space(z4, 1)
    quotient, _ = quotient_average(space, z4, (0, 2), action)
    assert quotient.universe.points == (0, 1)
    v = sep(quotient, 1, 0)
    assert len(v) == 4
    assert all(abs(value) == Fraction(1, 2) for _, value in v.items())
    assert pair_energy(quotient, 1, 0) == 1
    eta = averaging_eta(space, z4, (0, 2))
    assert 2 * q_energy(space.norm, eta) == 1


def test_quotient_average_equivariance(rng):
    s3 = FiniteGroup.symmetric(3)
    transposition = next(g for g in range(6) if g != s3.identity and s3.mul(g, g) == s3.identity)
    space, action = group_naive_space(s3, 2)
    quotient, qaction = quotient_average(space, s3, (s3.identity, transposition), action)
    pts = quotient.universe.points
    samples = [(rng.randrange(6), rng.choice(pts), rng.choice(pts)) for _ in range(150)]
    assert check_equivariance(quotient, qaction, samples).passed


def test_quotient_average_rejects_non_subgroup():
    z4 = FiniteGroup.cyclic(4)
    space, action = group_naive_space(z4, 1)
    with pytest.raises(InvalidInput):
        quotient_average(space, z4, (0, 1), action)
