import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from labparts.cli import At, finite_group
from labparts.core import InvalidInput
from labparts.groups import (
    AmalgamGroup,
    DirectSumGroup,
    FiniteGroup,
    FreeGroup,
    ProductGroup,
    ReducedWord,
    ZGroup,
    ball_enumerate,
    coset_table,
    infinite_dihedral,
    is_subgroup,
    sphere_list,
    z4_z6_amalgam,
)
from oracles import rewrite_normal_form, sl2_of_letters


# ---------------------------------------------------------------------------
# finite groups


def test_cyclic_group_structure():
    g = FiniteGroup.cyclic(6)
    assert g.identity == 0
    assert g.mul(4, 5) == 3
    assert g.inv(2) == 4
    assert len(g) == 6


def test_symmetric_group_has_order_six():
    s3 = FiniteGroup.symmetric(3)
    assert len(s3) == 6
    assert len(s3.generators) == 2
    # generators generate: ball saturates
    assert len(ball_enumerate(s3, 5)) == 6


def reference_symmetric(n: int) -> tuple:
    """The table and generators of S_n as a generic permutation-group
    constructor composed them, p(q(.)) over the sorted permutations."""
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = []
    for p in perms:
        row = []
        for q in perms:
            row.append(index[tuple(p[q[k]] for k in range(len(p)))])
        table.append(tuple(row))
    gens = []
    if n >= 2:
        gens.append(perms.index(tuple([1, 0] + list(range(2, n)))))
    if n >= 3:
        gens.append(perms.index(tuple(list(range(1, n)) + [0])))
    return tuple(table), tuple(gens)


@pytest.mark.parametrize("n", range(1, 6))
def test_symmetric_matches_the_permutation_composition(n):
    group = FiniteGroup.symmetric(n)
    assert (group.table, group.generators) == reference_symmetric(n)
    assert repr(group) == f"FiniteGroup(S{n}, n={len(group.table)})"


def test_the_symmetric_6_preset_builds():
    group = finite_group({"symmetric": 6}, At("root", "group", Path(".")))
    assert len(group) == 720 and len(group.generators) == 2


def test_bad_tables_rejected():
    with pytest.raises(InvalidInput):
        FiniteGroup([[0, 1], [0, 1]])  # no identity/inverses
    with pytest.raises(InvalidInput):
        FiniteGroup([[0, 1], [1, 0], [0, 1]])  # not square
    # non-associative magma with identity: e=0; 1*1=2,1*2=1,2*1=1,2*2=1 etc.
    with pytest.raises(InvalidInput):
        FiniteGroup([[0, 1, 2], [1, 2, 1], [2, 1, 1]])


def test_declared_generators_must_generate():
    with pytest.raises(InvalidInput):
        FiniteGroup.cyclic(4).__class__(
            FiniteGroup.cyclic(4).table, generators=(2,)
        )  # <a^2> is proper in Z/4


def test_table_file_round_trip(tmp_path):
    s3 = FiniteGroup.symmetric(3)
    path = tmp_path / "S3.tbl"
    s3.save(path)
    loaded = FiniteGroup.load(path)
    assert loaded.table == s3.table
    assert loaded.generators == s3.generators
    loaded.save(tmp_path / "S3b.tbl")
    assert (tmp_path / "S3.tbl").read_text() == (tmp_path / "S3b.tbl").read_text()


# ---------------------------------------------------------------------------
# coset tables


def test_coset_table_z4_over_z2():
    g = FiniteGroup.cyclic(4)
    table = coset_table(g, (0, 2))
    assert table.reps == (0, 1)
    for x in range(4):
        assert g.mul(table.rep_of[x], table.factor_of[x]) == x
        assert table.factor_of[x] in (0, 2)


def test_coset_table_z6_over_z2():
    h = FiniteGroup.cyclic(6)
    table = coset_table(h, (0, 3))
    assert table.reps == (0, 1, 2)


def test_coset_table_full_subgroup():
    g = FiniteGroup.cyclic(5)
    table = coset_table(g, tuple(range(5)))
    assert table.reps == (0,)


def test_coset_table_rejects_non_subgroup():
    g = FiniteGroup.cyclic(4)
    assert not is_subgroup(g, (0, 1))
    with pytest.raises(InvalidInput):
        coset_table(g, (0, 1))


@given(st.integers(min_value=2, max_value=10), st.integers(min_value=1, max_value=9))
def test_coset_decomposition_unique(n, d):
    g = FiniteGroup.cyclic(n)
    sub = tuple(sorted({(d * k) % n for k in range(n)}))
    table = coset_table(g, sub)
    seen = {}
    for x in range(n):
        key = table.rep_of[x]
        seen.setdefault(key, set()).add(x)
        assert g.mul(table.rep_of[x], table.factor_of[x]) == x
    assert sorted(seen) == sorted(table.reps)
    assert table.rep_of[g.identity] == g.identity


# ---------------------------------------------------------------------------
# ball enumeration


def test_ball_radius_zero_and_one():
    g = FiniteGroup.cyclic(4)
    assert ball_enumerate(g, 0) == [(0, 0)]
    ball1 = dict(ball_enumerate(g, 1))
    assert ball1 == {0: 0, 1: 1, 3: 1}


def test_ball_against_brute_force_products(z46):
    ball = dict(ball_enumerate(z46, 2))
    letters = [("L", 1), ("L", 3), ("R", 1), ("R", 5)]
    brute = {z46.identity}
    for k in (1, 2):
        for seq in itertools.product(letters, repeat=k):
            brute.add(rewrite_normal_form(z46, list(seq)))
    assert set(ball) == brute


def test_word_length_subadditive(z46, rng):
    ball = ball_enumerate(z46, 3)
    lengths = dict(ball)
    elems = list(lengths)
    for _ in range(200):
        u, v = rng.choice(elems), rng.choice(elems)
        uv = z46.mul(u, v)
        if uv in lengths:
            assert lengths[uv] <= lengths[u] + lengths[v]


def test_sphere_list_shapes():
    g = ZGroup()
    spheres = sphere_list(g, 3)
    assert spheres[0] == [0]
    assert sorted(spheres[2]) == [-2, 2]


# ---------------------------------------------------------------------------
# generic handles


def test_free_group_arithmetic():
    f = FreeGroup(2)
    s, t = f.generators
    st_ = f.mul(s, t)
    assert st_ == (1, 2)
    assert f.mul(st_, f.inv(st_)) == ()
    assert f.mul((1, -2), (2, 1)) == (1, 1)
    assert f.is_reduced((1, 2, -1))
    assert not f.is_reduced((1, -1))


def test_direct_sum_group():
    w = DirectSumGroup(FiniteGroup.cyclic(2), range(-2, 3))
    a = ((-1, 1),)
    b = ((2, 1),)
    ab = w.mul(a, b)
    assert w.support(ab) == (-1, 2)
    assert w.mul(ab, ab) == w.identity
    assert len(list(w.elements())) == 2 ** 5


def test_semidirect_infinite_dihedral_relations():
    d = infinite_dihedral()
    r = (1, 0)  # translation
    s = (0, 1)  # flip
    assert d.mul(s, s) == d.identity
    # s r s^-1 = r^-1
    conj = d.mul(d.mul(s, r), d.inv(s))
    assert conj == d.inv(r)
    assert d.mul(r, d.inv(r)) == d.identity


def test_product_group():
    p = ProductGroup([FiniteGroup.cyclic(2), FiniteGroup.cyclic(3)])
    assert p.identity == (0, 0)
    assert p.mul((1, 2), (1, 2)) == (0, 1)
    assert len(list(p.elements())) == 6


# ---------------------------------------------------------------------------
# amalgam normal forms


def test_normal_form_spec_examples(z46):
    assert z46.normal_form([]) == ReducedWord((), 0)
    assert z46.normal_form([("L", 1), ("L", 1)]) == ReducedWord((), 1)
    assert z46.normal_form([("R", 2), ("R", 2)]) == ReducedWord(((0, 1),), 1)
    abab = z46.normal_form([("L", 1), ("R", 1)] * 2)
    assert abab == ReducedWord(((1, 1), (1, 1)), 0)


def test_embeddings_validated():
    z4 = FiniteGroup.cyclic(4)
    z6 = FiniteGroup.cyclic(6)
    z2 = FiniteGroup.cyclic(2)
    with pytest.raises(InvalidInput):
        AmalgamGroup(z4, z6, z2, (0, 1), (0, 3))  # a is not an involution
    with pytest.raises(InvalidInput):
        AmalgamGroup(z4, z6, z2, (0, 0), (0, 3))  # not injective


letter_lists = st.lists(
    st.tuples(st.sampled_from(["L", "R"]), st.integers(min_value=1, max_value=5)),
    max_size=10,
).map(lambda ls: [(s, x % 4 if s == "L" else x) for s, x in ls]).map(
    lambda ls: [(s, x) for s, x in ls if x != 0]
)


@settings(max_examples=300, deadline=None)
@given(letter_lists)
def test_normal_form_matches_sl2(letters):
    am = z4_z6_amalgam()
    word = am.normal_form(letters)
    assert am.is_reduced(word)
    # idempotence: the reduced word's letters reproduce it
    assert am.normal_form(am.letters(word)) == word
    # faithfulness: the word's letters and the input letters have equal matrices
    assert sl2_of_letters(letters) == sl2_of_letters(am.letters(word))


@settings(max_examples=120, deadline=None)
@given(letter_lists, letter_lists)
def test_uniqueness_equal_products_equal_words(l1, l2):
    am = z4_z6_amalgam()
    if sl2_of_letters(l1) == sl2_of_letters(l2):
        assert am.normal_form(l1) == am.normal_form(l2)
    else:
        assert am.normal_form(l1) != am.normal_form(l2)


any_letters = st.lists(
    st.one_of(st.tuples(st.just("L"), st.integers(0, 3)), st.tuples(st.just("R"), st.integers(0, 5))),
    max_size=20,
)


@settings(max_examples=300, deadline=None)
@given(any_letters, any_letters)
def test_junction_mul_matches_letter_by_letter_rewrite(l1, l2):
    # mul splices at the junction; the letter-by-letter normal form is the reference
    am = z4_z6_amalgam()
    u, v = am.normal_form(l1), am.normal_form(l2)
    product = am.mul(u, v)
    assert product == rewrite_normal_form(am, am.letters(u) + am.letters(v))
    assert product == rewrite_normal_form(am, l1 + l2)


def test_multiply_associative_and_inverses(z46, rng):
    ball = [w for w, _ in ball_enumerate(z46, 3)]
    for _ in range(250):
        u, v, w = (rng.choice(ball) for _ in range(3))
        assert z46.mul(z46.mul(u, v), w) == z46.mul(u, z46.mul(v, w))
        assert z46.mul(u, z46.inv(u)) == z46.identity
        assert z46.mul(z46.identity, u) == u


def test_as_side_element(z46):
    a2 = z46.normal_form([("L", 2)])
    assert z46.as_side_element("L", a2) == 2
    assert z46.as_side_element("R", a2) == 3  # a^2 = b^3 through C
    ab = z46.normal_form([("L", 1), ("R", 1)])
    assert z46.as_side_element("L", ab) is None
