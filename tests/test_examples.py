import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from labparts.core import (
    InvalidInput,
    check_equivariance,
    SparseVec,
    dist,
    pair_energy,
    pair_label,
    q_energy,
    sep,
)
from labparts.constructions import group_naive_space
from labparts.examples import (
    FiniteMetric,
    cocycle_action,
    cocycle_from_space,
    cocycle_from_text,
    cocycle_space,
    free_tree_space,
    geodesic,
    gromov_product,
    is_orthogonal,
    is_signed_permutation,
    metric_from_csv,
    metric_realization_space,
    metric_to_csv,
    tree_neighbour,
)
from labparts.groups import FiniteGroup, FreeGroup, ZGroup, ball_enumerate
from oracles import (
    free_first_step,
    free_steps_toward,
    mineyev_brute_energy,
    mineyev_disjoint_count,
    random_rational_metric,
)


# ---------------------------------------------------------------------------
# metric realization


def test_metric_validation():
    with pytest.raises(InvalidInput):
        FiniteMetric(("a", "b"), ((0, 1), (2, 0)))  # asymmetric
    with pytest.raises(InvalidInput):
        FiniteMetric(("a", "b", "c"), ((0, 1, 5), (1, 0, 1), (5, 1, 0)))  # triangle fails


def test_two_point_metric_realized():
    m = FiniteMetric(("a", "b"), ((0, 5), (5, 0)))
    space = metric_realization_space(m)
    assert pair_energy(space, "a", "b") == 5
    assert dist(space, "a", "b") == 5.0
    assert pair_energy(space, "b", "b") == 0


def test_segment_metric_realized():
    pts = tuple(range(6))
    m = FiniteMetric(pts, tuple(tuple(Fraction(abs(i - j)) for j in pts) for i in pts))
    space = metric_realization_space(m)
    assert pair_energy(space, 1, 4) == 3
    v = sep(space, 1, 4)
    # the sup is attained at the label of the far endpoint
    assert v[(("dirac", 4),)] == 3


def test_random_rational_metrics_realized_exactly(rng):
    for _ in range(5):
        n = rng.randrange(3, 9)
        d = random_rational_metric(rng, n)
        m = FiniteMetric(tuple(range(n)), d)
        space = metric_realization_space(m)
        for i in range(n):
            for j in range(n):
                assert pair_energy(space, i, j) == d[i][j]


def test_metric_csv_round_trip(tmp_path, rng):
    d = random_rational_metric(rng, 5)
    m = FiniteMetric(tuple(f"x{i}" for i in range(5)), d)
    path = tmp_path / "metric.csv"
    metric_to_csv(m, path)
    loaded = metric_from_csv(path)
    assert loaded.points == m.points
    assert loaded.d == m.d


# ---------------------------------------------------------------------------
# the free-group tree family


def test_neighbour_function():
    free = FreeGroup(2)
    assert tree_neighbour(free, (), ()) == ()
    assert tree_neighbour(free, (), (1, 2)) == (1,)
    assert tree_neighbour(free, (1,), ()) == ()
    assert tree_neighbour(free, (1,), (1, 2, 2)) == (1, 2)


def test_neighbour_matches_bfs_oracle(rng):
    free = FreeGroup(2)
    ball = [w for w, _ in ball_enumerate(free, 3)]
    for _ in range(60):
        a, x = rng.choice(ball), rng.choice(ball)
        assert tree_neighbour(free, a, x) == free_first_step(free, a, x)


def test_energy_identity_2_d_plus_1(rng):
    space, action, free = free_tree_space(2, 2)
    ball = [w for w, _ in ball_enumerate(free, 4)]
    for _ in range(80):
        x, y = rng.choice(ball), rng.choice(ball)
        d = len(free.mul(free.inv(x), y))
        expected = 0 if x == y else 2 * (d + 1)
        assert pair_energy(space, x, y) == expected


def test_spec_example_e_to_st():
    space, action, free = free_tree_space(2, 2)
    assert pair_energy(space, (), (1, 2)) == 6
    assert mineyev_disjoint_count(free, (), (1, 2), 4) == 3


def test_support_clause_radius_one():
    # every label in a separation vector is a pair (a, b) with d(a, b) <= 1
    space, action, free = free_tree_space(2, 1)
    v = sep(space, (1, 2, -1), (-2, 1))
    for label in v.support():
        (tag, a, b) = label[0]
        assert len(free.mul(free.inv(a), b)) <= 1


def test_difference_clause_constants(rng):
    # || h(x, a) - h(x', a) ||_1 <= 2 exp(-(x|x')_a ln 2): zero as soon as the
    # Gromov product is >= 1, equal to 2 on the geodesic
    free = FreeGroup(2)
    ball = [w for w, _ in ball_enumerate(free, 3)]
    for _ in range(120):
        x, y, a = rng.choice(ball), rng.choice(ball), rng.choice(ball)
        l1 = 0 if tree_neighbour(free, a, x) == tree_neighbour(free, a, y) else 2
        gp = gromov_product(free, x, y, a)
        assert l1 <= 2 * math.exp(-float(gp) * math.log(2)) + 1e-12
        if gp >= 1:
            assert l1 == 0


def test_disjoint_support_count_equals_d_plus_1(rng):
    free = FreeGroup(2)
    ball = [w for w, _ in ball_enumerate(free, 3)]
    for _ in range(40):
        x, y = rng.choice(ball), rng.choice(ball)
        if x == y:
            continue
        d = len(free.mul(free.inv(x), y))
        assert mineyev_disjoint_count(free, x, y, 4) == d + 1


def test_brute_force_energy_matches(rng):
    space, action, free = free_tree_space(2, 2)
    ball = [w for w, _ in ball_enumerate(free, 3)]
    for _ in range(25):
        x, y = rng.choice(ball), rng.choice(ball)
        assert pair_energy(space, x, y) == mineyev_brute_energy(free, x, y, 4, 2)


def test_free_tree_diff_matches_brute_force_at_odd_q(rng):
    space, action, free = free_tree_space(2, 3)
    ball = [w for w, _ in ball_enumerate(free, 2)]
    for _ in range(20):
        x, y = rng.choice(ball), rng.choice(ball)
        assert pair_energy(space, x, y) == mineyev_brute_energy(free, x, y, 3, 3)


FREE3_SPACE, _, FREE3 = free_tree_space(3, 2)
reduced_words = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=30).map(
    lambda letters: FREE3.mul((), tuple(letters))
)


@given(reduced_words, reduced_words)
def test_free_tree_energy_is_two_d_plus_two_on_random_words(x, y):
    d = len(FREE3.mul(FREE3.inv(x), y))
    assert pair_energy(FREE3_SPACE, x, y) == (0 if x == y else 2 * (d + 1))


def test_translation_equivariance(rng):
    space, action, free = free_tree_space(2, 2)
    ball = [w for w, _ in ball_enumerate(free, 3)]
    samples = [(rng.choice(ball), rng.choice(ball), rng.choice(ball)) for _ in range(150)]
    assert check_equivariance(space, action, samples).passed


def bfs_path(free, x, y):
    """The vertices from x to y, read off the parents of one breadth-first
    search rooted at y."""
    toward_y = free_steps_toward(free, y, max(len(x), len(y)))
    path = [x]
    while path[-1] != y:
        path.append(toward_y[path[-1]])
    return path


def test_geodesic_equals_the_bfs_parent_path(rng):
    free = FreeGroup(2)
    ball = [w for w, _ in ball_enumerate(free, 3)]
    pairs = [((), ()), ((2, 1), (2, 1)), ((), (1, -2)), ((1, -2), ()), ((1,), (1, 2, 2)), ((1, 2, 2), (1,))]
    pairs += [(rng.choice(ball), rng.choice(ball)) for _ in range(80)]
    for x, y in pairs:
        assert geodesic(free, x, y) == bfs_path(free, x, y)


def mul_based_diff(free, x, y):
    """The free-tree separation vector with each geodesic vertex and each
    neighbour rebuilt by group multiplication."""

    def neighbour(a, x):
        return a if x == a else free.mul(a, (free.mul(free.inv(a), x)[0],))

    path = [x]
    for letter in free.mul(free.inv(x), y):
        path.append(free.mul(path[-1], (letter,)))
    entries = []
    for a in path:
        bx, by = neighbour(a, x), neighbour(a, y)
        if bx != by:
            entries += [(pair_label(a, bx), 1), (pair_label(a, by), -1)]
    return SparseVec(entries)


def random_reduced_word(rng, length, prefix=()):
    word = list(prefix)
    while len(word) < length:
        letter = rng.choice([1, -1, 2, -2, 3, -3])
        if not word or letter != -word[-1]:
            word.append(letter)
    return tuple(word)


def test_diff_equals_the_mul_based_construction(rng):
    for _ in range(300):
        x = random_reduced_word(rng, rng.randrange(61))
        # half the pairs share a prefix of x, so the geodesic turns below the identity
        prefix = x[: rng.randrange(len(x) + 1)] if rng.random() < 0.5 else ()
        y = random_reduced_word(rng, rng.randrange(len(prefix), 61), prefix)
        got, want = sep(FREE3_SPACE, x, y), mul_based_diff(FREE3, x, y)
        assert got == want and list(got.items()) == list(want.items())


# ---------------------------------------------------------------------------
# cocycle spaces


def test_matrix_predicates():
    flip = ((Fraction(0), Fraction(-1)), (Fraction(1), Fraction(0)))
    assert is_signed_permutation(flip)
    assert is_orthogonal(flip)
    rot = ((Fraction(3, 5), Fraction(-4, 5)), (Fraction(4, 5), Fraction(3, 5)))
    assert not is_signed_permutation(rot)
    assert is_orthogonal(rot)


def test_translation_cocycle_on_z():
    z = ZGroup()
    action = cocycle_action(z, 2, {1: ((1,),)}, {1: (1,)}, radius=7)
    space, act = cocycle_space(action, point_radius=4)
    for m in range(-4, 5):
        for n in range(-4, 5):
            assert pair_energy(space, m, n) == (m - n) ** 2
            assert dist(space, m, n) == float(abs(m - n))


def test_linear_action_gives_single_point_quotient():
    z4 = FiniteGroup.cyclic(4)
    swap = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
    action = cocycle_action(z4, 3, {1: swap}, {1: (0, 0)}, radius=5)
    space, act = cocycle_space(action)
    for g in range(4):
        for h in range(4):
            assert pair_energy(space, g, h) == 0


def test_signed_permutation_cocycle_on_dihedral_flavour():
    # Z with the order-2 sign flip on one coordinate cannot support b(n) = n,
    # so check the consistency validator fires
    z4 = FiniteGroup.cyclic(4)
    with pytest.raises(InvalidInput):
        cocycle_action(z4, 2, {1: ((1,),)}, {1: (1,)}, radius=6)  # b(a^4) = 4 != 0


def test_non_isometry_matrices_rejected():
    z = ZGroup()
    with pytest.raises(InvalidInput):
        cocycle_action(z, 3, {1: ((2,),)}, {1: (1,)}, radius=3)
    rot = ((Fraction(3, 5), Fraction(-4, 5)), (Fraction(4, 5), Fraction(3, 5)))
    with pytest.raises(InvalidInput):
        cocycle_action(z, 3, {1: rot}, {1: (1, 0)}, radius=3)
    # ... but the same rotation is fine at q = 2
    action = cocycle_action(z, 2, {1: rot}, {1: (1, 0)}, radius=5)
    space, act = cocycle_space(action, point_radius=3)
    assert pair_energy(space, 1, 0) == 1


def test_rotation_cocycle_preserves_energy_exactly(rng):
    rot = ((Fraction(3, 5), Fraction(-4, 5)), (Fraction(4, 5), Fraction(3, 5)))
    action = cocycle_action(ZGroup(), 2, {1: rot}, {1: (1, 0)}, radius=8)
    space, act = cocycle_space(action, point_radius=5)
    samples = [(rng.randrange(-2, 3), rng.randrange(-3, 4), rng.randrange(-3, 4)) for _ in range(100)]
    assert check_equivariance(space, act, samples).passed


def test_cocycle_round_trip_from_cocycle_space(rng):
    # build a space from a signed-permutation cocycle, extract (pi, b), verify
    flip = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
    z2 = FiniteGroup.cyclic(2)
    action = cocycle_action(z2, 3, {1: flip}, {1: (1, -1)}, radius=3)
    space, act = cocycle_space(action)
    pairs = [(rng.randrange(2), rng.randrange(2)) for _ in range(40)]
    report = cocycle_from_space(space, act, 0, pairs)
    assert report.passed, report.failures[:2]
    # distances reproduce the cocycle differences
    assert pair_energy(space, 1, 0) == q_energy(space.norm, sep(space, 1, 0))


def test_cocycle_identity_on_naive_group_space(rng):
    z6 = FiniteGroup.cyclic(6)
    space, action = group_naive_space(z6, 2)
    pairs = [(rng.randrange(6), rng.randrange(6)) for _ in range(100)]
    report = cocycle_from_space(space, action, 0, pairs)
    assert report.passed, report.failures[:2]


def test_cocycle_identity_on_amalgam_space(z46_spaces, z46_tree, rng):
    space, action = z46_spaces[2]["space"], z46_spaces[2]["action"]
    words = [w for w, _ in ball_enumerate(z46_tree.am, 2)]
    pairs = [(rng.choice(words), rng.choice(words)) for _ in range(60)]
    report = cocycle_from_space(space, action, z46_tree.base_point, pairs)
    assert report.passed, report.failures[:2]


def test_cocycle_text_loader(tmp_path):
    path = tmp_path / "cocycle.txt"
    path.write_text("q 2\ngen 1 | 0 -1 ; 1 0 | 1 0\n")
    action = cocycle_from_text(path, ZGroup(), radius=6)
    assert action.dim == 2
    space, act = cocycle_space(action, point_radius=3)
    assert pair_energy(space, 1, 0) == 1
    # b(2) = pi(1) b(1) + b(1) = (0,1)+(1,0) = (1,1)
    assert action.cocycle(2) == (1, 1)
