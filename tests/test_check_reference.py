"""The pseudo-metric check kernel and the factor-tagged oracles against their
straightforward reference forms: every oracle pair through ``sep`` with all
five energies computed, and every factor-tagged vector canonicalised by
``SparseVec``."""

import dataclasses
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from labparts import constructions as cons
from labparts import core
from labparts.cli import build_space
from labparts.core import (
    REL_TOL,
    SUP,
    CheckReport,
    DomainError,
    NormSpec,
    PointUniverse,
    Space,
    SparseVec,
    check_pseudo_metric,
    dirac,
    energy_to_dist,
    factor,
    finite_universe,
    pair_label,
    q_energy,
    sep,
)

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


# the factor-tagged oracles against SparseVec canonicalisation


def reference_oracles(monkeypatch):
    """Make the constructions build their factor-tagged and naive vectors through
    ``SparseVec(list(entries))``, which sums repeated labels and drops zeros."""
    product_space, direct_sum_space, naive_space = cons.product_space, cons.direct_sum_space, cons.weighted_naive_space

    def product(factors, q):
        factors = list(factors)

        def diff(x, y):
            return SparseVec([(factor(i, label), value)
                              for i, f in enumerate(factors) for label, value in f.diff(x[i], y[i]).items()])

        return dataclasses.replace(product_space(factors, q), diff=diff)

    def direct_sum(factor_at, basepoint_at, q, index_window=()):
        def diff(x, y):
            xs, ys = dict(x), dict(y)
            entries = []
            for i in xs.keys() | ys.keys():
                base = basepoint_at(i)
                entries += [(factor(i, l), v) for l, v in factor_at(i).diff(xs.get(i, base), ys.get(i, base)).items()]
            return SparseVec(entries)

        return dataclasses.replace(direct_sum_space(factor_at, basepoint_at, q, index_window), diff=diff)

    def weighted_naive(points, w, q, universe=None):
        def diff(x, y):
            return SparseVec([] if x == y else [(dirac(x), w), (dirac(y), -Fraction(w))])

        return dataclasses.replace(naive_space(points, w, q, universe), diff=diff)

    monkeypatch.setattr(cons, "product_space", product)
    monkeypatch.setattr(cons, "direct_sum_space", direct_sum)
    monkeypatch.setattr(cons, "weighted_naive_space", weighted_naive)


def zero_weight_lamp_sum():
    """A direct sum whose factor at index 0 is the naive structure of weight 0."""
    lamps = {i: cons.weighted_naive_space(range(3), i, 2) for i in range(3)}
    return cons.direct_sum_space(lamps.__getitem__, lambda i: 0, 2, index_window=range(3))


SPACES = {name: (lambda name=name: built(name).space) for name in ("product", "proper_sum", "wreath")}
SPACES["zero_weight_lamp_sum"] = zero_weight_lamp_sum


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
