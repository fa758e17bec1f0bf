import dataclasses
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from labparts.core import (
    MINUS_ONE,
    ONE,
    Action,
    DomainError,
    InvalidInput,
    NormSpec,
    SUP,
    Space,
    SparseVec,
    check_equivariance,
    check_homomorphism,
    check_pseudo_metric,
    constant_weight,
    dirac,
    dist,
    factor,
    finite_universe,
    pair_energy,
    pair_label,
    q_energy,
    relabel,
    sep,
    values_match,
    wall,
)
from labparts.constructions import naive_space, product_space, pullback, weighted_naive_space
from labparts.groups import FiniteGroup
from labparts.walls import z_line_walls_space, zn_half_space_walls, walls_to_labelled


labels = st.sampled_from([dirac(i) for i in range(6)])
rationals = st.fractions(min_value=-8, max_value=8, max_denominator=12)
vectors = st.lists(st.tuples(labels, rationals), max_size=8).map(SparseVec)


@given(vectors, vectors, vectors)
def test_vector_space_axioms(u, v, w):
    assert (u + v) + w == u + (v + w)
    assert u + v == v + u
    assert u + SparseVec() == u
    assert u + (-u) == SparseVec()


@given(vectors, rationals, rationals)
def test_scaling_is_linear(v, a, b):
    assert v.scaled(a) + v.scaled(b) == v.scaled(a + b)
    assert v.scaled(0) == SparseVec()


@given(vectors)
def test_no_zero_entries_stored(v):
    assert all(value != 0 for _, value in v.items())


def test_a_vector_is_not_iterable():
    # iter is checked first: through __getitem__ the sequence fallback of
    # list and ``in`` would never end
    vec = SparseVec(((dirac(0), 2),))
    with pytest.raises(TypeError):
        iter(vec)
    with pytest.raises(TypeError):
        list(vec)
    with pytest.raises(TypeError):
        dirac(0) in vec
    assert vec[dirac(0)] == 2 and list(vec.support()) == [dirac(0)]


def test_combine_examples():
    v = SparseVec(((dirac(0), 2),))
    assert v + v.scaled(-1) == SparseVec()
    assert v + SparseVec(((dirac(0), 3),)) == SparseVec(((dirac(0), 5),))


@given(vectors, st.integers(min_value=1, max_value=4), rationals)
def test_energy_homogeneity(v, q, lam):
    spec = NormSpec(q)
    assert q_energy(spec, v.scaled(lam)) == abs(Fraction(lam)) ** q * q_energy(spec, v)


def test_energy_examples():
    spec = NormSpec(2)
    v = SparseVec(((dirac(0), 1), (dirac(1), -1)))
    assert q_energy(spec, v) == 2
    assert q_energy(spec, SparseVec()) == 0
    assert q_energy(NormSpec(SUP), v) == 1
    weighted = NormSpec(1, lambda label: Fraction(1, 3))
    assert q_energy(weighted, v) == Fraction(2, 3)


def test_non_integer_exponent_is_float():
    spec = NormSpec(Fraction(3, 2))
    v = SparseVec(((dirac(0), 2),))
    value = q_energy(spec, v)
    assert isinstance(value, float)
    assert math.isclose(value, 2 ** 1.5, rel_tol=1e-12)


def test_invalid_exponent_rejected():
    with pytest.raises(InvalidInput):
        NormSpec(Fraction(1, 2))
    with pytest.raises(InvalidInput):
        NormSpec(0)


def test_sup_energy_is_weighted_max():
    spec = NormSpec(SUP, weight=lambda label: Fraction(2) if label == dirac(0) else Fraction(1))
    v = SparseVec(((dirac(0), 3), (dirac(1), 5)))
    assert q_energy(spec, v) == 6


# ---------------------------------------------------------------------------
# the exact kernel against straightforward reference arithmetic


@st.composite
def entry_lists(draw):
    """(label, int | Fraction) pairs with repeated labels, some of them
    followed later by their negation so that entries cancel to 0."""
    pairs = draw(st.lists(st.tuples(labels, st.one_of(st.integers(-6, 6), rationals)), max_size=10))
    cancelled = draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
    return draw(st.permutations(pairs + [(label, -value) for label, value in cancelled]))


def reference_entries(pairs) -> dict:
    acc = {}
    for label, value in pairs:
        acc[label] = acc.get(label, 0) + value
    return {label: Fraction(value) for label, value in acc.items() if value}


def entries_of(vec: SparseVec) -> dict:
    assert all(type(value) is Fraction and value for _, value in vec.items())
    return dict(vec.items())


@given(entry_lists(), entry_lists(), st.one_of(st.integers(-3, 3), rationals), rationals)
def test_kernel_vector_ops_match_reference(a, b, lam, mu):
    u, v = SparseVec(a), SparseVec(b)
    assert entries_of(u) == reference_entries(a)
    assert entries_of(SparseVec(dict(a))) == reference_entries(dict(a).items())
    assert entries_of(u + v) == reference_entries(a + b)
    assert entries_of(-u) == reference_entries([(label, -value) for label, value in a])
    assert entries_of(u - v) == reference_entries(a + [(label, -value) for label, value in b])
    scaled = [(label, lam * value) for label, value in a] + [(label, mu * value) for label, value in b]
    assert entries_of(u.scaled(lam) + v.scaled(mu)) == reference_entries(scaled)


def int_weight(label):
    return label[0][1] % 3


def fraction_weight(label):
    return Fraction(label[0][1] + 1, 3)


@given(entry_lists(), st.sampled_from([1, 2, 3]), st.sampled_from([int_weight, fraction_weight]))
def test_integer_q_energy_matches_reference(pairs, q, weight):
    vec = SparseVec(pairs)
    energy = q_energy(NormSpec(q, weight), vec)
    assert type(energy) is Fraction
    assert energy == sum(weight(label) * abs(value) ** q for label, value in vec.items())


# the shared +-1 objects, equal values that are other objects, and other rationals
unit_or_rational = st.one_of(st.sampled_from([ONE, MINUS_ONE, Fraction(1), Fraction(-1)]), rationals)


@given(st.dictionaries(labels, unit_or_rational), st.sampled_from([1, 2, 3]),
       st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(3, 7)]))
def test_integer_q_energy_under_a_constant_weight_matches_reference(entries, q, c):
    vec = SparseVec(entries)
    energy = q_energy(NormSpec(q, constant_weight(c)), vec)
    assert type(energy) is Fraction
    assert energy == sum(c * abs(value) ** q for _, value in vec.items())
    assert energy == q_energy(NormSpec(q, lambda label: c), vec)


@given(entry_lists(), st.sampled_from([int_weight, fraction_weight]))
def test_sup_and_fractional_q_energies_unchanged(pairs, weight):
    vec = SparseVec(pairs)
    best = Fraction(0)
    for label, value in vec.items():
        best = max(best, weight(label) * abs(value))
    assert q_energy(NormSpec(SUP, weight), vec) == best
    expected = math.fsum(float(weight(label)) * float(abs(value)) ** 1.5 for label, value in vec.items())
    assert q_energy(NormSpec(Fraction(3, 2), weight), vec) == expected


def test_sep_validates_points():
    space = naive_space(range(3), 1)
    with pytest.raises(DomainError):
        sep(space, 0, 7)
    assert sep(space, 1, 1) == SparseVec()


def test_naive_sep_vector_and_metric():
    space = naive_space(["a", "b"], 1)
    v = sep(space, "a", "b")
    assert v == SparseVec(((dirac("a"), 1), (dirac("b"), -1)))
    assert pair_energy(space, "a", "b") == 1
    assert dist(space, "a", "b") == 1.0


def test_relabel_identity_and_translation():
    space = naive_space(range(5), 2)
    v = sep(space, 0, 3)
    assert relabel(v, lambda l: (l, 1)) == v

    # the pull-back map of the translation by +1 sends Dirac(z) to Dirac(z-1),
    # and moving sep(x, y) by its inverse Dirac(z) -> Dirac(z+1) yields
    # sep(x+1, y+1); moving that by the pull-back map gives sep(x, y) back
    def pull_back(l):
        return dirac((l[0][1] - 1) % 5), 1

    def push(l):
        return dirac((l[0][1] + 1) % 5), 1

    assert relabel(v, push) == sep(space, 1, 4)
    assert relabel(sep(space, 1, 4), pull_back) == v


def test_relabel_undefined_label_raises():
    v = SparseVec(((dirac(0), 1),))

    def boom(label):
        raise KeyError(label)

    with pytest.raises(DomainError):
        relabel(v, boom)


@pytest.mark.parametrize("image", [
    None, wall(5), factor(0, wall(5)), (wall(5), 2), (wall(5), 0), (wall(5), 1, 1),
], ids=["none", "bare-1", "bare-2", "sign-2", "sign-0", "triple"])
def test_relabel_rejects_an_image_that_is_not_a_signed_pair(image):
    # a two-component bare label would unpack as (label, sign): its "sign" is a tuple
    v = SparseVec(((dirac(0), 1), (dirac(1), -1)))
    with pytest.raises(DomainError, match=re.escape(repr(dirac(0)))):
        relabel(v, lambda l: image)


def test_relabel_preserves_energy_for_weight_preserving_maps(rng):
    space, action = z_line_walls_space(2)
    v = sep(space, (-2,), (4,))
    for t in range(-3, 4):
        moved = relabel(v, lambda l: action.label_map(action.group.inv(t), l))
        assert q_energy(space.norm, moved) == q_energy(space.norm, v)


def test_chasles_and_antisymmetry_on_walls(rng):
    space, _ = z_line_walls_space(1)
    triples = [tuple((rng.randrange(-8, 9),) for _ in range(3)) for _ in range(60)]
    report = check_pseudo_metric(space, triples + [((0,), (2,), (5,))])
    assert report.passed and report.total == 61


def test_check_homomorphism_pullback_and_composition(rng):
    target, _ = z_line_walls_space(2)

    doubled = pullback(lambda y: (2 * y[0],), target, target.universe)
    pairs = [((rng.randrange(-5, 6),), (rng.randrange(-5, 6),)) for _ in range(40)]
    report = check_homomorphism(lambda y: (2 * y[0],), doubled, target, pairs)
    assert report.passed

    # dist on the pulled-back line doubles the wall count
    assert pair_energy(doubled, (0,), (3,)) == pair_energy(target, (0,), (6,))

    quadrupled = pullback(lambda y: (2 * y[0],), doubled, doubled.universe)
    report = check_homomorphism(lambda y: (4 * y[0],), quadrupled, target, pairs)
    assert report.passed


def test_check_homomorphism_detects_failure():
    source = naive_space(range(4), 1)
    target = weighted_naive_space(range(4), 2, 1)
    report = check_homomorphism(lambda x: x, source, target, [(0, 1), (2, 3)])
    assert not report.passed


def test_constant_pullback_is_degenerate():
    target, _ = z_line_walls_space(1)
    collapsed = pullback(lambda y: (0,), target, target.universe)
    assert pair_energy(collapsed, (-3,), (5,)) == 0


def test_pseudo_metric_axioms_on_product_like_space(rng):
    space = walls_to_labelled(zn_half_space_walls(2), 2)
    triples = [tuple(space.universe.sample(rng, 3)) for _ in range(50)]
    report = check_pseudo_metric(space, triples)
    assert report.passed, report.failures[:2]


def test_values_match_modes():
    assert values_match(Fraction(1, 3), Fraction(1, 3))
    assert not values_match(Fraction(1, 3), Fraction(1, 2))
    assert values_match(1.0, 1.0 + 1e-12)


# ---------------------------------------------------------------------------
# negative controls: check_pseudo_metric on broken oracles


def broken_space(diff) -> Space:
    return Space(universe=finite_universe(range(4)), diff=diff, norm=NormSpec(2))


def naive_diff(x, y):
    return SparseVec(((dirac(x), 1), (dirac(y), -1)))


DISTINCT_TRIPLES = [(0, 1, 2), (1, 3, 0), (2, 0, 3), (3, 2, 1)]


def test_pseudo_metric_detects_nonzero_self_separation():
    space = broken_space(lambda x, y: SparseVec(((dirac(x), 1),)) if x == y else naive_diff(x, y))
    report = check_pseudo_metric(space, DISTINCT_TRIPLES)
    assert len(report.failures) == len(DISTINCT_TRIPLES)


def test_pseudo_metric_detects_symmetric_separation_vectors():
    # c(y, x) == c(x, y) != 0: the energies agree, so only the vector test can see it
    space = broken_space(lambda x, y: naive_diff(min(x, y), max(x, y)) if x != y else SparseVec())
    assert pair_energy(space, 0, 1) == pair_energy(space, 1, 0) == 2
    report = check_pseudo_metric(space, DISTINCT_TRIPLES)
    assert len(report.failures) == len(DISTINCT_TRIPLES)


def test_pseudo_metric_detects_broken_chasles():
    # one label per unordered pair: antisymmetric, unit energies, not additive
    def diff(x, y):
        if x == y:
            return SparseVec()
        return SparseVec(((pair_label(min(x, y), max(x, y)), 1 if x < y else -1),))

    space = broken_space(diff)
    report = check_pseudo_metric(space, DISTINCT_TRIPLES)
    assert len(report.failures) == len(DISTINCT_TRIPLES)
    assert check_pseudo_metric(space, [(0, 0, 0), (1, 1, 2)]).passed


def test_pseudo_metric_evaluates_each_ordered_pair_once():
    calls = []

    def diff(x, y):
        calls.append((x, y))
        return naive_diff(x, y) if x != y else SparseVec()

    assert check_pseudo_metric(broken_space(diff), DISTINCT_TRIPLES).passed
    expected = [pair for x, y, z in DISTINCT_TRIPLES for pair in ((x, x), (x, y), (y, x), (x, z), (y, z))]
    assert calls == expected


def test_a_weight_changing_label_map_is_reported_under_mixed_weights():
    # two line-walls factors, the second of weight 2: swapping the factors keeps c(x, y)'s shape
    # and, for (0, 0) and (1, 1), its energy 1 + 2, but not the weight of any label
    line = walls_to_labelled(zn_half_space_walls(1), 2)
    heavy = walls_to_labelled(dataclasses.replace(zn_half_space_walls(1), weight=constant_weight(2)), 2)

    def swap(g, label):
        return (factor(1 - label[0][1], label[1:]) if g else label), 1

    action = Action(FiniteGroup.cyclic(2), lambda g, x: (x[1], x[0]) if g else x, swap)
    sample = [(1, ((0,), (0,)), ((1,), (1,)))]
    report = check_equivariance(product_space([line, heavy]), action, sample)
    assert [f["reason"] for f in report.failures] == ["weight not preserved"]
    assert check_equivariance(product_space([line, line]), action, sample).passed
