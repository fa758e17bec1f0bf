"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected value is exact; energies are compared as rationals wherever
the exponent is an integer, and float comparisons only ever happen after
root extraction at the documented 1e-9 relative tolerance.  Each criterion
also enforces its runtime budget.
"""

import itertools
import random
import time
from fractions import Fraction

from labparts.amalgam import (
    TreeOfCosetSpaces,
    amalgam_energy_formula,
    amalgam_space,
    naive_quotient_structures,
    syllable_lower_bound,
)
from labparts.constructions import (
    averaging_eta,
    group_naive_space,
    infinite_dihedral_space,
    naive_space,
    quotient_average,
    weighted_naive_space,
    weighted_naive_sum_space,
)
from labparts.core import (
    check_equivariance,
    dist,
    energy_to_dist,
    pair_energy,
    q_energy,
    sep,
)
from labparts.examples import (
    cocycle_from_space,
    free_tree_space,
    metric_realization_space,
    FiniteMetric,
)
from labparts.groups import (
    DirectSumGroup,
    FiniteGroup,
    ball_enumerate,
    sphere_list,
    z4_z6_amalgam,
)
from labparts.walls import (
    coset_walls,
    coset_walls_action,
    walls_to_labelled,
    z_line_walls_space,
    zn_half_space_walls,
)
from oracles import l1_distance, power_tree_term_formula, random_rational_metric


class Criterion:
    """Collects failures, times the body, prints the pass/fail line."""

    def __init__(self, number, name, budget_seconds):
        self.number = number
        self.name = name
        self.budget = budget_seconds
        self.failures = []
        self.started = time.perf_counter()

    def check(self, ok, context=None):
        if not ok and len(self.failures) < 10:
            self.failures.append(context)

    def finish(self):
        elapsed = time.perf_counter() - self.started
        status = "PASS" if not self.failures else "FAIL"
        print(f"criterion {self.number:02d} {self.name}: {status} ({elapsed:.2f}s)")
        assert not self.failures, self.failures
        assert elapsed < self.budget, f"runtime {elapsed:.2f}s exceeds {self.budget}s"


def test_c01_naive_identity():
    c = Criterion(1, "naive discrete metric", 1.0)
    for q in (1, 2, 3):
        space = naive_space(range(6), q)
        for x in range(6):
            for y in range(6):
                if x == y:
                    continue
                c.check(pair_energy(space, x, y) == Fraction(1), (q, x, y))
                c.check(dist(space, x, y) == 1.0, (q, x, y))
    c.finish()


def test_c02_walls_identity_z2():
    c = Criterion(2, "half-space walls give the l1 metric", 1.0)
    grid = [(i, j) for i in range(-3, 4) for j in range(-3, 4)]
    assert len(grid) == 49
    walls = zn_half_space_walls(2)
    for q in (1, 2):
        space = walls_to_labelled(walls, q)
        for x, y in itertools.combinations(grid, 2):
            c.check(pair_energy(space, x, y) == l1_distance(x, y), (q, x, y))
    c.finish()


def test_c03_metric_realization():
    c = Criterion(3, "sup-norm realization reproduces metrics", 1.0)
    rng = random.Random(3)
    for size in (3, 5, 6, 8, 8):
        d = random_rational_metric(rng, size)
        metric = FiniteMetric(tuple(range(size)), d)
        space = metric_realization_space(metric)
        for i in range(size):
            for j in range(size):
                c.check(pair_energy(space, i, j) == d[i][j], (size, i, j))
    c.finish()


def test_c04_direct_sum_additivity():
    c = Criterion(4, "product energies add across factors", 1.0)
    rng = random.Random(4)
    from labparts.constructions import product_space

    f1 = naive_space(range(4), 2)
    f2 = walls_to_labelled(zn_half_space_walls(1), 2)
    f3 = weighted_naive_space(range(5), Fraction(3, 2), 2)
    space = product_space([f1, f2, f3])
    for _ in range(100):
        x = (rng.randrange(4), (rng.randrange(-6, 7),), rng.randrange(5))
        y = (rng.randrange(4), (rng.randrange(-6, 7),), rng.randrange(5))
        total = pair_energy(space, x, y)
        parts = (
            pair_energy(f1, x[0], y[0])
            + pair_energy(f2, x[1], y[1])
            + pair_energy(f3, x[2], y[2])
        )
        c.check(total == parts, (x, y, total, parts))
    c.finish()


def test_c05_weighted_naive_growth():
    c = Criterion(5, "diverging-weight lamp energies", 1.0)
    group = DirectSumGroup(FiniteGroup.cyclic(2), range(-3, 4))
    phi = lambda i: Fraction(1 + abs(i))
    space, _ = weighted_naive_sum_space(group, phi, 2)
    count = 0
    for w in group.elements():
        count += 1
        expected = sum((phi(i) ** 2 for i in group.support(w)), Fraction(0))
        c.check(pair_energy(space, w, group.identity) == expected, w)
    assert count == 2 ** 7
    c.finish()


def quotient_structures_for(group, subgroups_for_walls, q):
    naive = group_naive_space(group, q)
    walls = coset_walls(group, subgroups_for_walls)
    walls_space = walls_to_labelled(walls, q)
    walls_action = coset_walls_action(group, subgroups_for_walls)
    return [("naive", naive[0], naive[1]), ("walls", walls_space, walls_action)]


def test_c06_quotient_average_bound():
    c = Criterion(6, "averaging stays within 2||eta||", 1.0)
    z4 = FiniteGroup.cyclic(4)
    s3 = FiniteGroup.symmetric(3)
    s3_invol = next(g for g in range(6) if g != s3.identity and s3.mul(g, g) == s3.identity)
    setups = [
        (z4, (0, 2), [(0, 2)]),
        (s3, tuple(sorted((s3.identity, s3_invol))), [tuple(sorted((s3.identity, s3_invol)))]),
    ]
    for group, subgroup, walls_subs in setups:
        for q in (1, 2):
            for name, space, action in quotient_structures_for(group, walls_subs, q):
                quotient, qaction = quotient_average(space, subgroup, action)
                eta = averaging_eta(space, group, subgroup)
                base = quotient.universe.points[0]
                if q == 1:
                    bound = 2 * q_energy(space.norm, eta)
                    for g in group.elements():
                        lhs = pair_energy(quotient, qaction.point_map(g, base), base)
                        rhs = pair_energy(space, g, group.identity)
                        c.check(abs(lhs - rhs) <= bound, (group.name, name, q, g))
                else:
                    bound = 2 * energy_to_dist(space.norm, q_energy(space.norm, eta))
                    for g in group.elements():
                        lhs = dist(quotient, qaction.point_map(g, base), base)
                        rhs = dist(space, g, group.identity)
                        c.check(abs(lhs - rhs) <= bound + 1e-9 * (bound + 1), (group.name, name, q, g))
    c.finish()


def test_c07_amalgam_formula_oracle():
    c = Criterion(7, "closed-form amalgam energies", 30.0)
    am = z4_z6_amalgam()
    tree = TreeOfCosetSpaces(am)
    ball = [w for w, _ in ball_enumerate(am, 5)]
    for q in (1, 2):
        sgc, agc, shc, ahc = naive_quotient_structures(tree, q)
        space, _ = amalgam_space(tree, sgc, agc, shc, ahc)
        for gamma in ball:
            x = tree.act_point(gamma, tree.base_point)
            oracle = pair_energy(space, x, tree.base_point)
            formula = amalgam_energy_formula(tree, sgc, shc, q, gamma)
            c.check(oracle == formula, (q, gamma, oracle, formula))
            c.check(oracle >= syllable_lower_bound(gamma), (q, gamma))
    c.finish()


def equivariant_setups():
    z6 = FiniteGroup.cyclic(6)
    naive_impl = group_naive_space(z6, 2)
    walls = z_line_walls_space(2)
    am = z4_z6_amalgam()
    tree = TreeOfCosetSpaces(am)
    sgc, agc, shc, ahc = naive_quotient_structures(tree, 2)
    amal = amalgam_space(tree, sgc, agc, shc, ahc)
    ftree = free_tree_space(2, 2)
    dihedral = infinite_dihedral_space(2)
    return [
        ("naive", naive_impl_pack(naive_impl, z6)),
        ("walls", walls_pack(walls)),
        ("amalgam", amalgam_pack(amal, tree)),
        ("free-tree", ftree_pack(ftree)),
        ("dihedral", dihedral_pack(dihedral)),
    ]


def naive_impl_pack(pair, z6):
    space, action = pair
    ball = list(range(6))
    return space, action, ball, lambda rng: rng.randrange(6)


def walls_pack(pair):
    space, action = pair
    ball = list(range(-5, 6))
    return space, action, ball, lambda rng: (rng.randrange(-8, 9),)


def amalgam_pack(pair, tree):
    space, action = pair
    ball = [w for w, _ in ball_enumerate(tree.am, 3)]
    uni = tree.universe()
    return space, action, ball, lambda rng: uni.sample(rng, 1)[0]


def ftree_pack(triple):
    space, action, free = triple
    ball = [w for w, _ in ball_enumerate(free, 3)]
    return space, action, ball, lambda rng: ball[rng.randrange(len(ball))]


def dihedral_pack(pair):
    space, action = pair
    ball = [g for g, _ in ball_enumerate(action.group, 3)]
    return space, action, ball, lambda rng: space.universe.sample(rng, 1)[0]


def test_c08_equivariance_suite():
    c = Criterion(8, "isometric actions on all constructed spaces", 10.0)
    rng = random.Random(8)
    for name, (space, action, group_ball, point_sampler) in equivariant_setups():
        samples = [
            (group_ball[rng.randrange(len(group_ball))], point_sampler(rng), point_sampler(rng))
            for _ in range(500)
        ]
        report = check_equivariance(space, action, samples)
        c.check(report.passed, (name, report.failures[:2]))
    c.finish()


def test_c09_cocycle_identity():
    c = Criterion(9, "extracted cocycles satisfy the defining identity", 5.0)
    rng = random.Random(9)

    z6 = FiniteGroup.cyclic(6)
    naive, naive_action = group_naive_space(z6, 2)
    pairs = [(rng.randrange(6), rng.randrange(6)) for _ in range(200)]
    report = cocycle_from_space(naive, naive_action, 0, pairs)
    c.check(report.passed, ("naive", report.failures[:2]))

    am = z4_z6_amalgam()
    tree = TreeOfCosetSpaces(am)
    sgc, agc, shc, ahc = naive_quotient_structures(tree, 2)
    space, action = amalgam_space(tree, sgc, agc, shc, ahc)
    words = [w for w, _ in ball_enumerate(am, 2)]
    pairs = [(words[rng.randrange(len(words))], words[rng.randrange(len(words))]) for _ in range(200)]
    report = cocycle_from_space(space, action, tree.base_point, pairs)
    c.check(report.passed, ("amalgam", report.failures[:2]))
    c.finish()


def test_c10_free_tree_clauses():
    c = Criterion(10, "tree labelling family clauses", 30.0)
    space, action, free = free_tree_space(2, 2)
    ball = [w for w, _ in ball_enumerate(free, 4)]
    assert len(ball) == 161
    for x, y in itertools.combinations(ball, 2):
        v = sep(space, x, y)
        d = len(free.mul(free.inv(x), y))
        # clause 1: supports have radius <= 1
        bases = set()
        for label in v.support():
            (tag, a, b) = label[0]
            bases.add(a)
            c.check(len(free.mul(free.inv(a), b)) <= 1, ("support", x, y))
        # clause 3: the separating base points are exactly the geodesic
        c.check(len(bases) == d + 1, ("count", x, y, len(bases), d))
        # energy identity
        c.check(pair_energy(space, x, y) == 2 * (d + 1), ("energy", x, y))
    c.finish()


def test_c11_negative_control_tree_exponent():
    c = Criterion(11, "wrong tree exponent is detectable", 30.0)
    am = z4_z6_amalgam()
    tree = TreeOfCosetSpaces(am)
    sgc, agc, shc, ahc = naive_quotient_structures(tree, 2)
    space, _ = amalgam_space(tree, sgc, agc, shc, ahc)
    mismatches = []
    for gamma, _ in ball_enumerate(am, 5):
        x = tree.act_point(gamma, tree.base_point)
        d_t = tree.tree_distance(x.vertex, tree.base_vertex)
        oracle = pair_energy(space, x, tree.base_point)
        wrong = power_tree_term_formula(tree, sgc, shc, 2, gamma)
        if d_t >= 2 and oracle != wrong:
            mismatches.append(gamma)
    c.check(bool(mismatches), "no mismatch found")
    c.finish()


def test_c12_properness_evidence():
    c = Criterion(12, "growth profiles diverge as stated", 30.0)

    # integer line: the minimum orbital energy at word length r is exactly r
    space, action = z_line_walls_space(2)
    for r, sphere in enumerate(sphere_list(action.group, 5)):
        energies = [pair_energy(space, (action.group.mul(g, 0),), (0,)) for g in sphere]
        c.check(min(energies) == r, ("z-walls", r))

    # lamp sum: any element whose support reaches j costs at least phi(j)^q
    group = DirectSumGroup(FiniteGroup.cyclic(2), range(-3, 4))
    phi = lambda i: Fraction(1 + abs(i))
    wspace, _ = weighted_naive_sum_space(group, phi, 2)
    for j in group.index_window:
        reaching = [w for w in group.elements() if j in group.support(w)]
        worst = min(pair_energy(wspace, w, group.identity) for w in reaching)
        c.check(worst >= phi(j) ** 2, ("lamp", j, worst))

    # amalgam: sphere minima over the full letter generating set
    am = z4_z6_amalgam()
    tree = TreeOfCosetSpaces(am)
    sgc, agc, shc, ahc = naive_quotient_structures(tree, 1)
    aspace, _ = amalgam_space(tree, sgc, agc, shc, ahc)
    letters = [am.letter_word("L", g) for g in range(1, 4)] + [
        am.letter_word("R", h) for h in range(1, 6)
    ]
    minima = []
    for sphere in sphere_list(am, 5, generators=letters):
        minima.append(
            min(pair_energy(aspace, tree.act_point(g, tree.base_point), tree.base_point) for g in sphere)
        )
    c.check(all(a <= b for a, b in zip(minima, minima[1:])), ("amalgam-monotone", minima))
    c.check(minima[5] > minima[1], ("amalgam-gap", minima))
    c.finish()
