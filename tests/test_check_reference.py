"""The check kernels and the factor-tagged and wall oracles against their
straightforward reference forms: every oracle pair through ``sep`` with all
five energies computed, the equivariance check with both energies computed
and weights tested under g, and every factor-tagged, wall or tree vector
canonicalised by ``SparseVec``."""

import dataclasses
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from labparts import amalgam as amalgam_mod
from labparts import constructions as cons
from labparts import core
from labparts import examples as examples_mod
from labparts import walls as walls_mod
from labparts.cli import build_space
from labparts.core import (
    REL_TOL,
    SUP,
    Action,
    CheckReport,
    DomainError,
    NormSpec,
    PointUniverse,
    Space,
    SparseVec,
    check_equivariance,
    check_pseudo_metric,
    dirac,
    energy_to_dist,
    factor,
    finite_universe,
    pair_label,
    q_energy,
    relabel,
    sep,
    values_match,
    vertex_tag,
    wall,
)
from labparts.groups import FiniteGroup, ball_enumerate

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
CONFIG_NAMES = sorted(p.stem for p in CONFIGS.glob("*.json"))


def reference_check_pseudo_metric(space, triples) -> CheckReport:
    """The pseudo-metric check with each ordered pair taken through ``sep``,
    which tests both points on every call, and all five energies computed."""
    report = CheckReport("pseudo-metric")
    norm = space.norm
    for x, y, z in triples:
        cxx, cxy, cyx = sep(space, x, x), sep(space, x, y), sep(space, y, x)
        exx, exy, eyx = q_energy(norm, cxx), q_energy(norm, cxy), q_energy(norm, cyx)
        ok = (not exx) and exy == eyx and cxy == -cyx
        if ok:
            cxz, cyz = sep(space, x, z), sep(space, y, z)
            ok = cxz == cxy + cyz
        if ok:
            exz, eyz = q_energy(norm, cxz), q_energy(norm, cyz)
            if norm.q != SUP and norm.q == 1:
                ok = exz <= exy + eyz
            else:
                dxz, dxy, dyz = (energy_to_dist(norm, e) for e in (exz, exy, eyz))
                ok = dxz <= dxy + dyz + REL_TOL * (dxy + dyz + 1.0)
        report.record(ok, None if ok else {"triple": (x, y, z)})
    return report


def assert_same_reports(space, triples):
    report, reference = check_pseudo_metric(space, triples), reference_check_pseudo_metric(space, triples)
    assert (report.total, report.failures) == (reference.total, reference.failures)
    return report


def built(name):
    return build_space(json.loads((CONFIGS / f"{name}.json").read_text()), CONFIGS)


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_check_matches_the_reference_on_every_config(name):
    space = built(name).space
    for seed in (0, 1, 15003):
        rng = random.Random(seed)
        triples = [tuple(space.universe.sample(rng, 3)) for _ in range(30)]
        assert assert_same_reports(space, triples).passed


# broken and unusual oracles on the points 0..3


def naive_diff(x, y):
    return SparseVec(((dirac(x), 1), (dirac(y), -1)))


def self_separating(x, y):
    return SparseVec(((dirac(x), 1),)) if x == y else naive_diff(x, y)


def symmetric(x, y):
    return naive_diff(min(x, y), max(x, y)) if x != y else SparseVec()


def not_additive(x, y):
    if x == y:
        return SparseVec()
    return SparseVec(((pair_label(min(x, y), max(x, y)), 1 if x < y else -1),))


def naive(x, y):
    return naive_diff(x, y) if x != y else SparseVec()


def ghost_self_label(x, y):
    """Correct but for a zero-weight label in c(x, x)."""
    return SparseVec({(("ghost", x),): 1}) if x == y else naive_diff(x, y)


def ghost_free_weight(label):
    return Fraction(0) if label[0][0] == "ghost" else Fraction(1)


ORACLES = {
    "self_separating": (self_separating, NormSpec(2)),
    "symmetric": (symmetric, NormSpec(2)),
    "not_additive": (not_additive, NormSpec(2)),
    "naive": (naive, NormSpec(2)),
    "ghost_self_label": (ghost_self_label, NormSpec(2, ghost_free_weight)),
}
ALL_TRIPLES = [(x, y, z) for x in range(4) for y in range(4) for z in range(4)]
DISTINCT_TRIPLES = [triple for triple in ALL_TRIPLES if len(set(triple)) == 3]


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_check_matches_the_reference_on_broken_oracles(name):
    diff, norm = ORACLES[name]
    space = Space(universe=finite_universe(range(4)), diff=diff, norm=norm)
    assert assert_same_reports(space, ALL_TRIPLES).passed == (name == "naive")
    # a zero-weight label in c(x, x) passes the first stage; repeated points then break Chasles
    assert assert_same_reports(space, DISTINCT_TRIPLES).passed == (name in ("naive", "ghost_self_label"))


@pytest.mark.parametrize("name", ["self_separating", "symmetric"])
def test_a_triple_failing_its_first_stage_never_tests_z(name):
    # the sampler's z lies outside the space; neither form reaches it
    diff, norm = ORACLES[name]
    space = Space(universe=finite_universe(range(4)), diff=diff, norm=norm)
    triples = [(0, 1, 99), (2, 3, "z")]
    report = assert_same_reports(space, triples)
    assert len(report.failures) == 2
    with pytest.raises(DomainError):
        check_pseudo_metric(Space(space.universe, naive, norm), triples)


def test_a_weight_raising_on_c_y_x_records_a_failure():
    # c(y, x) carries a label the weight function rejects, so c(x, y) != -c(y, x)
    def diff(x, y):
        return SparseVec({(("alien", x, y),): 1}) if x > y else naive(x, y)

    def weight(label):
        if label[0][0] == "alien":
            raise KeyError(label)
        return Fraction(1)

    space = Space(universe=finite_universe(range(4)), diff=diff, norm=NormSpec(2, weight))
    with pytest.raises(KeyError):
        reference_check_pseudo_metric(space, [(0, 1, 2)])
    assert check_pseudo_metric(space, [(0, 1, 2)]).failures == [{"triple": (0, 1, 2)}]


def test_a_passing_triple_tests_three_points_and_computes_three_energies(monkeypatch):
    required, energies = [], []
    require, energy = PointUniverse.require, core.q_energy
    monkeypatch.setattr(PointUniverse, "require", lambda self, x: required.append(x) or require(self, x))
    monkeypatch.setattr(core, "q_energy", lambda norm, vec: energies.append(vec) or energy(norm, vec))
    space = Space(universe=finite_universe(range(4)), diff=naive, norm=NormSpec(2))
    triples = [(0, 1, 2), (1, 3, 0), (2, 0, 3), (3, 2, 1), (1, 1, 1)]
    assert check_pseudo_metric(space, triples).passed
    assert required == [p for triple in triples for p in triple]
    assert len(energies) == 3 * len(triples)


def test_a_passing_metric_triple_builds_no_negated_vector(monkeypatch):
    def negate(vec):
        raise AssertionError("a passing triple negated a vector")

    monkeypatch.setattr(SparseVec, "__neg__", negate)
    for name in ("product", "proper_sum", "wreath", "z2_walls"):
        space = built(name).space
        rng = random.Random(16001)
        assert check_pseudo_metric(space, [tuple(space.universe.sample(rng, 3)) for _ in range(20)]).passed


# the equivariance check against its reference form


def reference_check_equivariance(
    space: Space,
    action: Action,
    samples,
) -> CheckReport:
    """Per sample (g, x, y): d(gx, gy) == d(x, y), plus the vector identity
    c(gx, gy) == c(x, y) relabelled, and weight preservation, when the action
    carries a label map."""
    report = CheckReport("equivariance")
    for g, x, y in samples:
        gx = action.point_map(g, x)
        gy = action.point_map(g, y)
        lhs = sep(space, gx, gy)
        rhs = sep(space, x, y)
        ok = values_match(q_energy(space.norm, lhs), q_energy(space.norm, rhs))
        detail = None
        if ok and action.label_map is not None:
            moved = relabel(rhs, lambda l: action.label_map(action.group.inv(g), l))
            ok = moved == lhs
            if ok:
                for label in rhs.support():
                    target, _ = action.label_map(g, label)
                    if space.norm.weight(label) != space.norm.weight(target):
                        ok = False
                        detail = {"sample": (g, x, y), "reason": "weight not preserved", "label": label}
                        break
            else:
                detail = {"sample": (g, x, y), "reason": "vector identity failed"}
        elif not ok:
            detail = {"sample": (g, x, y), "reason": "distance changed"}
        report.record(ok, detail)
    return report


def equivariance_samples(space, action, seed, n=30):
    """Samples drawn as ``run_checks`` draws them: g from the radius-2 ball."""
    rng = random.Random(seed)
    ball = [g for g, _ in ball_enumerate(action.group, 2)]
    return [(ball[rng.randrange(len(ball))], *space.universe.sample(rng, 2)) for _ in range(n)]


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_equivariance_matches_the_reference_on_every_config(name):
    node = built(name)
    for action in node.actions.values():
        for seed in (0, 1, 15003):
            samples = equivariance_samples(node.space, action, seed)
            report = check_equivariance(node.space, action, samples)
            reference = reference_check_equivariance(node.space, action, samples)
            assert (report.total, report.failures) == (reference.total, reference.failures)
            assert report.passed


def verdicts(check, space, action, samples):
    """Per sample, whether it passed and the reason it failed with; a weight
    failure's "label" differs between the forms, as they test different images."""
    out = []
    for sample in samples:
        report = check(space, action, [sample])
        out.append((report.passed, report.failures[0]["reason"] if report.failures else None))
    return out


LINE_SAMPLES = [(t, (x,), (y,)) for t in range(-2, 3) for x in range(-3, 4) for y in range(-3, 4)]


def line_walls(weight=None):
    space, action = walls_mod.z_line_walls_space(2)
    if weight is not None:
        space = dataclasses.replace(space, norm=NormSpec(2, weight))
    return space, action


def translate_label(t, label):
    (_, (axis, k)) = label[0]
    return wall((axis, k - t)), 1


def doubling_point_map(t, x):
    return (2 * x[0] + t,)


def flipped_label_map(t, label):
    return translate_label(t, label)[0], -1


def merging_label_map(t, label):
    # the walls k and k + 1 of an even k land on one wall
    (_, (axis, k)) = label[0]
    return wall((axis, (k - t) // 2)), 1


def raising_label_map(t, label):
    raise KeyError(label)


def parity_weight(label):
    return Fraction(1 + label[0][1][1] % 2)


BROKEN_LINE_ACTIONS = {
    "point map doubling distances": ({"point_map": doubling_point_map}, None),
    "sign-flipped label map": ({"label_map": flipped_label_map}, None),
    "label map merging two labels": ({"label_map": merging_label_map}, None),
    "weights changed by odd translations": ({}, parity_weight),
    "raising label map, distances doubled": ({"point_map": doubling_point_map, "label_map": raising_label_map},
                                             None),
}


@pytest.mark.parametrize("name", sorted(BROKEN_LINE_ACTIONS))
def test_equivariance_matches_the_reference_on_broken_actions(name):
    changes, weight = BROKEN_LINE_ACTIONS[name]
    space, action = line_walls(weight)
    action = dataclasses.replace(action, **changes)
    new = verdicts(check_equivariance, space, action, LINE_SAMPLES)
    assert new == verdicts(reference_check_equivariance, space, action, LINE_SAMPLES)
    reasons = {reason for _, reason in new}
    assert len(reasons) > 1 and None in reasons  # each form passes x == y and fails some other sample


def test_a_raising_label_map_raises_when_distances_agree():
    space, action = line_walls()
    action = dataclasses.replace(action, label_map=raising_label_map)
    for check in (check_equivariance, reference_check_equivariance):
        with pytest.raises(DomainError):
            check(space, action, [(1, (0,), (2,))])


# points 0, 1, 2 with c(x, y) = p(x) - p(y); the involution of Z/2 swaps 1 and 2
# and sends both labels a and b of c(0, 1) onto the single label c of c(0, 2)
MERGE_POINTS = {0: {}, 1: {"a": -1, "b": -1}, 2: {"c": -2}}
MERGE_LABELS = {0: {"a": "a", "b": "b", "c": "c"}, 1: {"a": "c", "b": "c", "c": "a"}}


def merge_space(q):
    def diff(x, y):
        entries = [(((l,),), v) for l, v in MERGE_POINTS[x].items()]
        return SparseVec(entries + [(((l,),), -v) for l, v in MERGE_POINTS[y].items()])

    action = Action(group=FiniteGroup.cyclic(2), point_map=lambda g, x: [0, 2, 1][x] if g else x,
                    label_map=lambda g, label: (((MERGE_LABELS[g][label[0][0]],),), 1))
    return Space(universe=finite_universe(range(3)), diff=diff, norm=NormSpec(q)), action


@pytest.mark.parametrize("q", [1, 2, SUP])
def test_labels_moved_onto_one_still_compare_energies(q):
    space, action = merge_space(q)
    samples = [(g, x, y) for g in range(2) for x in range(3) for y in range(3)]
    new = verdicts(check_equivariance, space, action, samples)
    assert new == verdicts(reference_check_equivariance, space, action, samples)
    # c(0, 1) moves onto c(0, 2) == {c: 2}: the energies are 2 and 2 at q = 1, 2 and 4 at q = 2
    assert new[samples.index((1, 0, 1))] == ((True, None) if q == 1 else (False, "distance changed"))


def test_weights_are_tested_on_the_images_under_g_inverse():
    # only the wall at 0 weighs 2: translating by 1 moves c(-1, 1) onto c(0, 2) with equal energy,
    # and the first label whose image changes weight is -1 under g^-1, 0 under g
    space, action = line_walls(lambda label: Fraction(2 if label[0][1][1] == 0 else 1))
    sample = [(1, (-1,), (1,))]
    failures = check_equivariance(space, action, sample).failures
    reference = reference_check_equivariance(space, action, sample).failures
    assert failures == [{"sample": sample[0], "reason": "weight not preserved", "label": wall((0, -1))}]
    assert reference == [{"sample": sample[0], "reason": "weight not preserved", "label": wall((0, 0))}]


@pytest.mark.parametrize("name", ["dihedral", "proper_sum", "quotient_average", "wreath", "z_walls"])
def test_a_passing_sample_moves_each_label_once_and_computes_no_energy(name, monkeypatch):
    node = built(name)
    base = node.actions["main"]
    label_calls, relabels, energies = [], [], []
    action = dataclasses.replace(base, label_map=lambda g, l: label_calls.append(l) or base.label_map(g, l))
    relabel_, energy = core.relabel, core.q_energy
    monkeypatch.setattr(core, "relabel", lambda *args: relabels.append(args) or relabel_(*args))
    monkeypatch.setattr(core, "q_energy", lambda norm, vec: energies.append(vec) or energy(norm, vec))
    samples = equivariance_samples(node.space, base, 16002)
    assert check_equivariance(node.space, action, samples).passed
    assert energies == [] and len(relabels) == len(samples)
    assert len(label_calls) == sum(len(node.space.diff(x, y)) for _, x, y in samples) > 0


# the factor-tagged and wall oracles against SparseVec canonicalisation


def reference_oracles(monkeypatch):
    """Make the constructions build their factor-tagged, naive, vertex-tagged,
    half-tree and free-tree vectors through ``SparseVec(list(entries))``, which
    sums repeated labels and drops zeros."""
    product_space, direct_sum_space, naive_space = cons.product_space, cons.direct_sum_space, cons.weighted_naive_space

    def product(factors, q):
        factors = list(factors)

        def diff(x, y):
            return SparseVec([(factor(i, label), value)
                              for i, f in enumerate(factors) for label, value in f.diff(x[i], y[i]).items()])

        return dataclasses.replace(product_space(factors, q), diff=diff)

    def direct_sum(factor_at, base, q, index_window=()):
        def diff(x, y):
            xs, ys = dict(x), dict(y)
            entries = []
            for i in xs.keys() | ys.keys():
                entries += [(factor(i, l), v) for l, v in factor_at(i).diff(xs.get(i, base), ys.get(i, base)).items()]
            return SparseVec(entries)

        return dataclasses.replace(direct_sum_space(factor_at, base, q, index_window), diff=diff)

    def weighted_naive(points, w, q, universe=None):
        def diff(x, y):
            return SparseVec([] if x == y else [(dirac(x), w), (dirac(y), -Fraction(w))])

        return dataclasses.replace(naive_space(points, w, q, universe), diff=diff)

    walls_to_labelled = walls_mod.walls_to_labelled

    def walls_space(walls, q):
        def diff(x, y):
            return SparseVec([(wall(h), 1 if walls.member(h, x) else -1) for h in walls.separating(x, y)])

        return dataclasses.replace(walls_to_labelled(walls, q), diff=diff)

    vertex_induced_space, tree_induced_space = amalgam_mod.vertex_induced_space, amalgam_mod.tree_induced_space

    def vertex_induced(tree, struct_gc, struct_hc, q):
        structs = {"L": struct_gc, "R": struct_hc}

        def diff(x, y):
            path, edges = tree.segment(x.vertex, y.vertex)
            ends = zip(path, [tree.project(path[0], x)] + edges, edges + [tree.project(path[-1], y)])
            return SparseVec([(vertex_tag(v, label), value) for v, px, py in ends
                              for label, value in structs[v[0]].diff(tree.side_point(v, px),
                                                                     tree.side_point(v, py)).items()])

        return dataclasses.replace(vertex_induced_space(tree, struct_gc, struct_hc, q), diff=diff)

    def tree_induced(tree, q):
        def diff(x, y):
            path, edges = tree.segment(x.vertex, y.vertex)
            return SparseVec([entry for u, v, edge in zip(path, path[1:], edges)
                              for entry in ((wall((edge, u[0])), 1), (wall((edge, v[0])), -1))])

        return dataclasses.replace(tree_induced_space(tree, q), diff=diff)

    free_tree_space = examples_mod.free_tree_space

    def free_tree(rank, q, sample_radius=4):
        space, action, free = free_tree_space(rank, q, sample_radius)

        def diff(x, y):
            neighbours = [(a, examples_mod.tree_neighbour(free, a, x), examples_mod.tree_neighbour(free, a, y))
                          for a in examples_mod.geodesic(free, x, y)]
            return SparseVec([entry for a, bx, by in neighbours
                              for entry in ((pair_label(a, bx), 1), (pair_label(a, by), -1))])

        return dataclasses.replace(space, diff=diff), action, free

    monkeypatch.setattr(cons, "product_space", product)
    monkeypatch.setattr(cons, "direct_sum_space", direct_sum)
    monkeypatch.setattr(cons, "weighted_naive_space", weighted_naive)
    monkeypatch.setattr(walls_mod, "walls_to_labelled", walls_space)
    monkeypatch.setattr(amalgam_mod, "vertex_induced_space", vertex_induced)
    monkeypatch.setattr(amalgam_mod, "tree_induced_space", tree_induced)
    monkeypatch.setattr(examples_mod, "free_tree_space", free_tree)


def zero_weight_lamp_sum():
    """A direct sum whose factor at index 0 is the naive structure of weight 0."""
    lamps = {i: cons.weighted_naive_space(range(3), i, 2) for i in range(3)}
    return cons.direct_sum_space(lamps.__getitem__, 0, 2, index_window=range(3))


def coset_walls():
    walls = walls_mod.coset_walls(FiniteGroup.cyclic(6), [[0, 3], [0, 2, 4]])
    return walls_mod.walls_to_labelled(walls, 2)


def custom_walls():
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "walls.txt").write_text("points a b c\nwall h 1 1 0 0\nwall k 2/3 1 1 0\nwall m 3 0 1 0\n")
        return build_space({"kind": "walls_custom", "q": 2, "file": "walls.txt"}, Path(tmp)).space


SPACES = {name: (lambda name=name: built(name).space)
          for name in ("product", "proper_sum", "wreath", "z_walls", "z2_walls", "amalgam_q2", "free_tree")}
SPACES["zero_weight_lamp_sum"] = zero_weight_lamp_sum
SPACES["coset_walls"] = coset_walls
SPACES["custom_walls"] = custom_walls


@pytest.mark.parametrize("name", sorted(SPACES))
def test_factor_tagged_oracles_match_sparsevec_canonicalisation(name, monkeypatch):
    space = SPACES[name]()
    with monkeypatch.context() as patched:
        reference_oracles(patched)
        reference = SPACES[name]()
    assert reference.diff is not space.diff
    rng = random.Random(15004)
    nonempty = 0
    for _ in range(80):
        x, y = space.universe.sample(rng, 2)
        for a, b in ((x, y), (y, x), (x, x)):
            vec = space.diff(a, b)
            assert all(type(v) is Fraction and v for v in dict(vec.items()).values())
            assert list(vec.items()) == list(reference.diff(a, b).items())
            nonempty += bool(vec)
    assert nonempty > 80


def test_a_repeated_wall_is_summed_as_sparsevec_sums_it():
    base = walls_mod.zn_half_space_walls(1)
    walls = dataclasses.replace(base, separating=lambda x, y: [*base.separating(x, y), *base.separating(x, y)[:1]])
    space = walls_mod.walls_to_labelled(walls, 2)
    for x, y in ((0, 3), (3, 0), (-2, 2), (1, 1)):
        vec = space.diff((x,), (y,))
        expected = SparseVec([(wall(h), 1 if walls.member(h, (x,)) else -1) for h in walls.separating((x,), (y,))])
        assert list(vec.items()) == list(expected.items())
        assert q_energy(space.norm, vec) == abs(x - y) + 3 * (x != y)
