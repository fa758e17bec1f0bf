from labparts.amalgam import (
    TotalPoint,
    amalgam_energy_formula,
    naive_quotient_structures,
    proper_amalgam_from_factors,
    syllable_lower_bound,
    tree_induced_space,
    vertex_induced_space,
)
from labparts.constructions import group_naive_space
from labparts.core import check_equivariance, check_pseudo_metric, pair_energy, sep
from labparts.groups import ball_enumerate
from oracles import bfs_tree_distance, bfs_tree_vertices, brute_projection_sum_energy, power_tree_term_formula


def ball_words(am, radius):
    return [w for w, _ in ball_enumerate(am, radius)]


def long_word(am, rng, n):
    """A reduced word of exactly n genuine syllables, built letter by letter."""
    side = rng.choice("LR")
    letters = []
    for _ in range(n):
        group, table, _, _ = am._side(side)
        letters.append((side, rng.choice([g for g in table.reps if g != group.identity])))
        side = "R" if side == "L" else "L"
    return am.normal_form(letters)


def base_points(t):
    return [t.base_point, TotalPoint(("R", t.am.identity), t.am.identity)]


# ---------------------------------------------------------------------------
# value types


def test_words_and_points_keep_their_repr_and_field_tuple_hash(z46_tree, rng):
    t = z46_tree
    assert repr(t.base_point) == ("TotalPoint(vertex=('L', ReducedWord(pairs=(), tail=0)), "
                                  "coset=ReducedWord(pairs=(), tail=0))")
    for w in ball_words(t.am, 3) + [long_word(t.am, rng, 6)]:
        assert hash(w) == hash((w.pairs, w.tail))
        x = t.act_point(w, t.base_point)
        assert hash(x) == hash((x.vertex, x.coset))


def test_membership_rejects_plain_tuples_equal_to_words_and_points(z46_tree):
    t = z46_tree
    vertex = t.act_vertex(t.am.normal_form([("L", 1), ("R", 1)]), t.base_vertex)
    assert t.contains_point(t.base_point) and t.is_vertex(vertex)
    # a word or point equals the plain tuple of its fields, so membership tests the type
    plain_point, plain_vertex = tuple(t.base_point), ("L", tuple(vertex[1]))
    assert plain_point == t.base_point and plain_vertex == vertex
    assert not t.contains_point(plain_point) and not t.is_vertex(plain_vertex)
    assert not t.is_vertex(vertex[1]) and not t.contains_point(vertex)


# ---------------------------------------------------------------------------
# tree geometry


def test_base_vertices_and_distance_one(z46_tree):
    t = z46_tree
    right_base = ("R", t.am.identity)
    assert t.tree_distance(t.base_vertex, right_base) == 1
    assert t.edge_between(t.base_vertex, right_base) == t.am.identity


def test_vertex_path_spec_example(z46_tree):
    t = z46_tree
    ab = t.am.normal_form([("L", 1), ("R", 1)])
    v = t.act_vertex(ab, t.base_vertex)
    path = t.vertex_path(t.base_vertex, v)
    assert len(path) == 3  # G, aH, abG
    assert path[0] == t.base_vertex
    assert path[1][0] == "R" and path[2][0] == "L"
    assert t.tree_distance(t.base_vertex, v) == 2


def test_vertex_path_is_geodesic_against_bfs(z46_tree, rng):
    t = z46_tree
    words = ball_words(t.am, 4)
    for _ in range(60):
        v = t.act_vertex(rng.choice(words), t.base_vertex)
        w = t.act_vertex(rng.choice(words), ("R", t.am.identity))
        path = t.vertex_path(v, w)
        assert path[0] == v and path[-1] == w
        assert len(set(path)) == len(path)
        for a, b in zip(path, path[1:]):
            t.edge_between(a, b)
        assert len(path) - 1 == bfs_tree_distance(t, v, w)


def test_long_word_paths_and_energies_against_brute_force(z46_spaces, z46_tree, rng):
    # words of 6-8 syllables, beyond the balls the other tests enumerate
    t = z46_tree
    am = t.am
    short = ball_words(am, 2)
    for _ in range(12):
        gamma = long_word(am, rng, rng.randint(6, 8))
        x = t.act_point(gamma, rng.choice(base_points(t)))
        y = t.act_point(am.mul(gamma, rng.choice(short)), rng.choice(base_points(t)))
        for v, w in ((x.vertex, y.vertex), (x.vertex, t.base_vertex), (t.base_vertex, y.vertex)):
            assert len(t.vertex_path(v, w)) - 1 == bfs_tree_distance(t, v, w)
        radius = max(bfs_tree_distance(t, t.base_vertex, p.vertex) for p in (x, y))
        d_t = bfs_tree_distance(t, x.vertex, y.vertex)
        for q in (1, 2):
            data = z46_spaces[q]
            vertex_space = vertex_induced_space(t, data["struct_gc"], data["struct_hc"], q)
            brute = brute_projection_sum_energy(t, data["struct_gc"], data["struct_hc"], q, x, y, radius)
            assert pair_energy(vertex_space, x, y) + d_t == brute
            assert pair_energy(data["space"], x, y) == brute


def test_vertex_path_singleton(z46_tree):
    assert z46_tree.vertex_path(z46_tree.base_vertex, z46_tree.base_vertex) == [z46_tree.base_vertex]


def test_tree_distance_parity(z46_tree, rng):
    t = z46_tree
    words = ball_words(t.am, 3)
    for _ in range(40):
        v = t.act_vertex(rng.choice(words), t.base_vertex)
        w = t.act_vertex(rng.choice(words), t.base_vertex)
        assert t.tree_distance(v, w) % 2 == 0  # same side: even distance


# ---------------------------------------------------------------------------
# projections


def test_projection_fixes_own_vertex(z46_tree):
    t = z46_tree
    assert t.project(t.base_vertex, t.base_point) == t.base_point.coset


def test_projection_spec_example(z46_tree):
    t = z46_tree
    # the projection of the base coset C in X_G to the vertex aH is the edge aC
    a = t.am.letter_word("L", 1)
    v = t.vertex_of_word("R", a)
    projected = t.project(v, t.base_point)
    assert projected == t.tail_free(a)


def test_projection_support_bound(z46_tree, rng):
    t = z46_tree
    uni = t.universe()
    for _ in range(50):
        x = uni.sample(rng, 1)[0]
        y = uni.sample(rng, 1)[0]
        path = set(t.vertex_path(x.vertex, y.vertex))
        for v in bfs_tree_vertices(t, 5):
            if t.project(v, x) != t.project(v, y):
                assert v in path


def test_projection_action_equivariance(z46_tree, rng):
    t = z46_tree
    words = ball_words(t.am, 3)
    uni = t.universe()
    for _ in range(150):
        gamma = rng.choice(words)
        x = uni.sample(rng, 1)[0]
        v = t.act_vertex(rng.choice(words), t.base_vertex)
        lhs = t.act_point(gamma, TotalPoint(v, t.project(v, x)))
        moved = t.act_vertex(gamma, v)
        rhs = TotalPoint(moved, t.project(moved, t.act_point(gamma, x)))
        assert lhs == rhs


def test_edge_point_correspondence(z46_tree, rng):
    # gamma maps the edge point of {u, v} to the edge point of {gamma u, gamma v}
    t = z46_tree
    words = ball_words(t.am, 3)
    for _ in range(80):
        gamma = rng.choice(words)
        v = t.act_vertex(rng.choice(words), t.base_vertex)
        w = t.act_vertex(rng.choice(words), ("R", t.am.identity))
        path = t.vertex_path(v, w)
        edge = t.edge_between(path[0], path[1])
        moved = t.edge_between(t.act_vertex(gamma, path[0]), t.act_vertex(gamma, path[1]))
        assert moved == t.tail_free(t.am.mul(gamma, edge))


def test_separating_vertex_set_translates(z46_tree, rng):
    # {v : pi_v(gx) != pi_v(gy)} is the gamma-translate of {v : pi_v(x) != pi_v(y)}
    t = z46_tree
    words = ball_words(t.am, 3)
    uni = t.universe()
    vertices = list(bfs_tree_vertices(t, 5))
    for _ in range(25):
        gamma = rng.choice(words)
        x, y = uni.sample(rng, 2)
        before = {v for v in vertices if t.project(v, x) != t.project(v, y)}
        gx, gy = t.act_point(gamma, x), t.act_point(gamma, y)
        after = {v for v in vertices if t.project(v, gx) != t.project(v, gy)}
        translated = {t.act_vertex(gamma, v) for v in before}
        # compare within the enumerated window
        window = set(vertices)
        assert after & window == translated & window


def test_coset_map_equivariance(z46_tree, rng):
    # f_{gamma_2 G}(gamma x) = g f_{gamma_1 G}(x) whenever gamma gamma_1 = gamma_2 g
    t = z46_tree
    am = t.am
    words = ball_words(am, 3)
    uni = t.universe()
    for _ in range(120):
        gamma = rng.choice(words)
        x = uni.sample(rng, 1)[0]
        v1 = x.vertex
        v2 = t.act_vertex(gamma, v1)
        side = v1[0]
        connector = am.mul(am.inv(v2[1]), am.mul(gamma, v1[1]))
        g = am.as_side_element(side, connector)
        assert g is not None
        group, table, _, _ = am._side(side)
        lhs = t.side_point(v2, t.act_point(gamma, x).coset)
        rhs = table.rep_of[group.mul(g, t.side_point(v1, x.coset))]
        assert lhs == rhs


def test_side_point_matches_the_coset_arithmetic(z46_tree, rng):
    # reference: the G/C or H/C representative of rep^-1 * coset
    t = z46_tree
    am = t.am
    for _ in range(40):
        x = t.act_point(long_word(am, rng, rng.randint(0, 8)), rng.choice(base_points(t)))
        for v in t.vertex_path(t.base_vertex, x.vertex):
            coset = t.project(v, x)
            side, rep = v
            _, table, _, _ = am._side(side)
            element = am.as_side_element(side, am.mul(am.inv(rep), coset))
            assert t.side_point(v, coset) == table.rep_of[element]


def test_a_coset_outside_the_vertex_is_not_a_point(z46_tree, rng):
    t = z46_tree
    far = t.act_point(long_word(t.am, rng, 6), t.base_point)
    assert t.tree_distance(far.vertex, t.base_vertex) >= 2
    assert t.contains_point(far)
    for v in (t.base_vertex, ("R", t.am.identity)):
        assert not t.contains_point(TotalPoint(v, far.coset))


# ---------------------------------------------------------------------------
# induced structures


def test_tree_induced_energy_is_tree_distance(z46_tree, rng):
    t = z46_tree
    for q in (1, 2, 3):
        space = tree_induced_space(t, q)
        uni = t.universe()
        for _ in range(40):
            x, y = uni.sample(rng, 2)
            assert pair_energy(space, x, y) == t.tree_distance(x.vertex, y.vertex)


def test_vertex_induced_same_vertex_contribution(z46_tree):
    t = z46_tree
    sgc, _, shc, _ = naive_quotient_structures(t, 1)
    space = vertex_induced_space(t, sgc, shc, 1)
    # two distinct cosets inside X_G: only the G vertex contributes
    a = t.am.letter_word("L", 1)
    x = TotalPoint(t.base_vertex, t.am.identity)
    y = TotalPoint(t.base_vertex, t.tail_free(a))
    assert pair_energy(space, x, y) == 1
    labels = {label[0] for label in sep(space, x, y).support()}
    assert labels == {("vertex", t.base_vertex)}


def test_amalgam_formula_equals_oracle_and_brute_force(z46_spaces, z46_tree):
    t = z46_tree
    for q in (1, 2):
        data = z46_spaces[q]
        for gamma, _ in ball_enumerate(t.am, 3):
            x = t.act_point(gamma, t.base_point)
            oracle = pair_energy(data["space"], x, t.base_point)
            formula = amalgam_energy_formula(t, data["struct_gc"], data["struct_hc"], q, gamma)
            brute = brute_projection_sum_energy(t, data["struct_gc"], data["struct_hc"], q, x, t.base_point)
            assert oracle == formula == brute
            assert oracle >= syllable_lower_bound(gamma)


def test_formula_spec_example(z46_tree):
    t = z46_tree
    sgc, _, shc, _ = naive_quotient_structures(t, 1)
    ab = t.am.normal_form([("L", 1), ("R", 1)])
    assert amalgam_energy_formula(t, sgc, shc, 1, ab) == 4
    tail_only = t.am.normal_form([("L", 2)])
    assert amalgam_energy_formula(t, sgc, shc, 1, tail_only) == 0


def test_formula_degenerate_words(z46_spaces, z46_tree):
    # words with trivial leading G-syllable or trivial trailing H-syllable
    t = z46_tree
    data = z46_spaces[2]
    for letters in ([("R", 1)], [("R", 1), ("L", 1)], [("R", 2), ("L", 3), ("R", 3)]):
        gamma = t.am.normal_form(letters)
        x = t.act_point(gamma, t.base_point)
        oracle = pair_energy(data["space"], x, t.base_point)
        formula = amalgam_energy_formula(t, data["struct_gc"], data["struct_hc"], 2, gamma)
        assert oracle == formula


def test_statement_tree_term_differs_at_q2(z46_spaces, z46_tree):
    t = z46_tree
    data = z46_spaces[2]
    mismatch = False
    for gamma, _ in ball_enumerate(t.am, 3):
        x = t.act_point(gamma, t.base_point)
        oracle = pair_energy(data["space"], x, t.base_point)
        wrong = power_tree_term_formula(t, data["struct_gc"], data["struct_hc"], 2, gamma)
        d_t = t.tree_distance(x.vertex, t.base_vertex)
        if d_t >= 2:
            assert wrong != oracle
            mismatch = True
        else:
            assert wrong == oracle
    assert mismatch


def test_amalgam_equivariance_exact(z46_spaces, z46_tree, rng):
    t = z46_tree
    words = ball_words(t.am, 3)
    uni = t.universe()
    for q in (1, 2):
        space, action = z46_spaces[q]["space"], z46_spaces[q]["action"]
        samples = [(rng.choice(words), uni.sample(rng, 1)[0], uni.sample(rng, 1)[0]) for _ in range(150)]
        report = check_equivariance(space, action, samples)
        assert report.passed, report.failures[:2]


def test_amalgam_chasles(z46_spaces, z46_tree, rng):
    uni = z46_tree.universe()
    triples = [tuple(uni.sample(rng, 1)[0] for _ in range(3)) for _ in range(50)]
    report = check_pseudo_metric(z46_spaces[1]["space"], triples)
    assert report.passed and report.total == 50


# ---------------------------------------------------------------------------
# the full pipeline from factor structures


def test_proper_amalgam_matches_direct_construction(z46, rng):
    space_g, action_g = group_naive_space(z46.left, 1)
    space_h, action_h = group_naive_space(z46.right, 1)
    space, action, tree, sgc, shc = proper_amalgam_from_factors(
        space_g, action_g, space_h, action_h, z46, 1
    )
    # averaged naive quotient structures still separate distinct cosets
    for gamma, _ in ball_enumerate(z46, 3):
        x = tree.act_point(gamma, tree.base_point)
        oracle = pair_energy(space, x, tree.base_point)
        formula = amalgam_energy_formula(tree, sgc, shc, 1, gamma)
        assert oracle == formula
        assert oracle >= syllable_lower_bound(gamma)
    words = ball_words(z46, 2)
    uni = tree.universe()
    samples = [(rng.choice(words), uni.sample(rng, 1)[0], uni.sample(rng, 1)[0]) for _ in range(80)]
    assert check_equivariance(space, action, samples).passed


def full_letter_generators(am):
    """Every nontrivial factor element; the natural generating set of an
    amalgam.  With shorter generating sets the sphere minimum dips to zero
    wherever an element of C (base-point stabiliser) has word length >= 2."""
    return [am.letter_word("L", g) for g in range(1, am.left.size)] + [
        am.letter_word("R", h) for h in range(1, am.right.size)
    ]


def test_growth_profile_nondecreasing_minimum(z46_spaces, z46_tree):
    from labparts.groups import sphere_list

    t = z46_tree
    space, action = z46_spaces[1]["space"], z46_spaces[1]["action"]
    minima = []
    for sphere in sphere_list(t.am, 5, generators=full_letter_generators(t.am)):
        energies = [
            pair_energy(space, t.act_point(g, t.base_point), t.base_point) for g in sphere
        ]
        minima.append(min(energies))
    assert all(a <= b for a, b in zip(minima, minima[1:]))
    assert minima[5] > minima[1]
