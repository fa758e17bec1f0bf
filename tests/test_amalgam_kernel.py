"""The amalgam product on pair tuples, the orbit walk built on it, and Light's
associativity test for finite group tables."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from labparts.amalgam import TotalPoint
from labparts.cli import build_space
from labparts.core import InvalidInput
from labparts.groups import AmalgamGroup, FiniteGroup, ReducedWord, ball_enumerate, z4_z6_amalgam
from oracles import rewrite_normal_form, sl2_of_letters
from test_group_search import s3_amalgam, z6_z9_amalgam

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
AMALGAMS = {"Z4*Z6": z4_z6_amalgam(), "S3*S3": s3_amalgam(), "Z6*Z9": z6_z9_amalgam()}

long_letters = st.lists(st.tuples(st.sampled_from(["L", "R"]), st.integers(0, 17)), max_size=40)


# a reduced word written down directly: first side, picks of nontrivial representatives, tail
direct_words = st.tuples(st.sampled_from(["L", "R"]), st.lists(st.integers(0, 17), max_size=20), st.integers(0, 8))


def word(am, letters):
    return am.normal_form([(side, x % am._side(side)[0].size) for side, x in letters])


def direct_word(am, start, picks, c):
    """The reduced word with the given syllables, its pairs built by hand."""
    reps = {side: [r for r in am._side(side)[1].reps if r != am._side(side)[0].identity] for side in "LR"}
    syllables = [am.left.identity] if start == "R" and picks else []
    side = start
    for k in picks:
        syllables.append(reps[side][k % len(reps[side])])
        side = "R" if side == "L" else "L"
    if len(syllables) % 2:
        syllables.append(am.right.identity)
    out = ReducedWord(tuple(zip(syllables[::2], syllables[1::2])), c % am.common.size)
    assert am.is_reduced(out)
    return out


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(AMALGAMS)), long_letters, long_letters, direct_words, st.integers(0, 8))
def test_mul_matches_the_letter_by_letter_rewrite(name, l1, l2, d, c):
    am = AMALGAMS[name]
    u, v, w = word(am, l1), word(am, l2), direct_word(am, *d)
    pure_c = ReducedWord((), c % am.common.size)
    cases = [(u, v), (v, u), (u, w), (w, u), (u, pure_c), (pure_c, u), (w, pure_c), (pure_c, w),
             (am.identity, v), (v, am.identity), (u, am.inv(u)), (w, am.inv(w))]
    for a, b in cases:
        product = am.mul(a, b)
        assert product == rewrite_normal_form(am, am.letters(a) + am.letters(b))
        assert am.is_reduced(product)
    assert am.mul(u, am.inv(u)) == am.identity == am.mul(w, am.inv(w))


@settings(max_examples=200, deadline=None)
@given(long_letters, direct_words, direct_words)
def test_mul_matches_sl2_matrices(l1, d1, d2):
    # Z4*Z6 is SL2(Z): an oracle that shares no code with the coset tables
    am = AMALGAMS["Z4*Z6"]
    u, w1, w2 = word(am, l1), direct_word(am, *d1), direct_word(am, *d2)
    for a, b in ((u, w1), (w1, u), (w1, w2)):
        product = am.mul(a, b)
        assert sl2_of_letters(am.letters(product)) == sl2_of_letters(am.letters(a) + am.letters(b))


def test_words_that_start_on_the_right_keep_their_identity_slot():
    am = AMALGAMS["Z4*Z6"]
    b, a = am.letter_word("R", 1), am.letter_word("L", 1)
    assert am.mul(b, a) == ReducedWord(((0, 1), (1, 0)), 0)
    assert am.mul(am.mul(b, a), am.inv(a)) == b == ReducedWord(((0, 1),), 0)


@pytest.mark.parametrize("name", sorted(AMALGAMS))
def test_mul_matches_the_rewrite_on_every_pair_from_two_balls(name):
    """Every product of the radius-3 ball with the radius-2 ball, both ways:
    the balls hold words that start on either side, pure C words and the
    inverse of every word of the radius-2 ball, so each kind of cancellation
    in ``mul`` is reached."""
    am = AMALGAMS[name]
    big = [w for w, _ in ball_enumerate(am, 3)]
    small = [w for w, _ in ball_enumerate(am, 2)]
    assert any(not w.pairs and w != am.identity for w in small)
    assert any(w.pairs and w.pairs[0][0] == am.left.identity for w in small)
    for u in big:
        for v in small:
            for a, b in ((u, v), (v, u)):
                product = am.mul(a, b)
                assert product == rewrite_normal_form(am, am.letters(a) + am.letters(b))
                assert am.is_reduced(product)


@pytest.mark.parametrize("name", sorted(AMALGAMS))
def test_inv_and_side_elements_on_every_word_of_the_radius_5_ball(name):
    """``inv`` against the rewrite of the inverted letters in reverse order,
    and ``as_side_element`` against ``letter_word``: the radius-5 ball holds
    words that start and end on either side, so both end pairs that ``inv``
    may drop are reached."""
    am = AMALGAMS[name]
    ball = [w for w, _ in ball_enumerate(am, 5)]
    ends = {(w.pairs[0][0] == am.left.identity, w.pairs[-1][1] == am.right.identity) for w in ball if w.pairs}
    assert ends == {(True, True), (True, False), (False, True), (False, False)}
    side_elements = {}
    for side in "LR":
        for x in range(am._side(side)[0].size):
            letter = am.letter_word(side, x)
            assert letter == rewrite_normal_form(am, [(side, x)])
            side_elements[side, letter] = x
    for u in ball:
        inverse = am.inv(u)
        assert inverse == rewrite_normal_form(am, [(s, am._side(s)[0].inv(x)) for s, x in reversed(am.letters(u))])
        assert am.is_reduced(inverse)
        for side in "LR":
            assert am.as_side_element(side, u) == side_elements.get((side, u))


@pytest.mark.parametrize("name", sorted(AMALGAMS))
def test_the_rewrite_never_reads_the_product_it_checks(name, monkeypatch):
    am = AMALGAMS[name]
    ball = [w for w, _ in ball_enumerate(am, 3)]

    def no_mul(*args):
        raise AssertionError("the reference rewrite called AmalgamGroup.mul")

    monkeypatch.setattr(AmalgamGroup, "mul", no_mul)
    monkeypatch.delattr(am, "_tables")
    for w in ball:
        assert rewrite_normal_form(am, am.letters(w)) == w


def reference_orbit(built, limit):
    """The orbit walk of ``Built.orbit_elements`` with every product taken
    through ``rewrite_normal_form`` and every vertex moved on its own word."""
    am, tree, x0 = built.group, built.extras["tree"], built.basepoint

    def mul(u, v):
        return rewrite_normal_form(am, am.letters(u) + am.letters(v))

    gens = list(am.generators) + [rewrite_normal_form(am, reversed([(s, am._side(s)[0].inv(x)) for s, x in am.letters(g)]))
                                  for g in am.generators]
    out, seen, sphere = {}, {am.identity}, [am.identity]
    while sphere:
        for g in sphere:
            point = TotalPoint(tree.vertex_of_word(x0.vertex[0], mul(g, x0.vertex[1])), tree.tail_free(mul(g, x0.coset)))
            out.setdefault(point, g)
            if len(out) == limit:
                return out
        nxt = []
        for x in sphere:
            for s in gens:
                y = mul(x, s)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        sphere = sorted(nxt, key=am.element_key)
    return out


@pytest.mark.parametrize("config", ["amalgam_q1.json", "amalgam_q2.json"])
def test_orbit_walk_matches_a_normal_form_walk(config):
    built = build_space(json.loads((CONFIGS / config).read_text()), CONFIGS)
    assert list(built.orbit_elements(120).items()) == list(reference_orbit(built, 120).items())


# ---------------------------------------------------------------------------
# Light's associativity test

# a loop of order 5: a Latin square with identity 0, not associative
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def test_the_loop_is_a_latin_square_with_identity_that_is_not_associative():
    columns = [[row[j] for row in LOOP5] for j in range(5)]
    assert all(sorted(line) == list(range(5)) for line in LOOP5 + columns)
    assert LOOP5[0] == columns[0] == list(range(5))
    t = LOOP5
    assert any(t[t[a][b]][c] != t[a][t[b][c]] for a in range(5) for b in range(5) for c in range(5))


@pytest.mark.parametrize("generators", [(), (1, 2), (1, 2, 3, 4)])
def test_a_non_associative_loop_is_rejected(generators):
    with pytest.raises(InvalidInput, match="not associative"):
        FiniteGroup(LOOP5, generators)


def test_lights_test_accepts_groups_with_and_without_generators():
    for group in (FiniteGroup.symmetric(4), FiniteGroup.cyclic(12)):
        assert FiniteGroup(group.table, group.generators).size == FiniteGroup(group.table).size == group.size
