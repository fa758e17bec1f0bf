"""Generic combinators producing new spaces with labelled partitions.

Provided constructions: pull-backs along arbitrary point maps, (weighted)
naive Dirac families, finite products and restricted direct sums with
factor-tagged labels, the properness-restoring sum that pairs a direct sum
with a diverging-weight naive structure on the acting group, semidirect
gluings and the infinite dihedral group's, averaging over a finite subgroup
to descend a structure to a coset space, and the wreath-product gluing for
H wr_{G/L} G, which builds the coset walls on W x I (I = G/L, W the lamp
group) and combines them with a direct sum over I of a structure on H.

Scaling conventions: the naive family on a set scales Dirac functions so
that a separated pair has q-energy exactly w**q; the irrational per-label
factor 2**(-1/q) is folded into the label weights (each Dirac label carries
weight 1/2 and value +-w), which keeps every energy rational for every q.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Any, Callable, Iterable, Sequence

from .core import (
    ZERO_VEC,
    Action,
    InvalidInput,
    Label,
    NormSpec,
    Point,
    PointUniverse,
    Space,
    SparseVec,
    _vec,
    dirac,
    factor,
    factor_label_map,
    finite_universe,
    half_weight,
    shared_weight,
    wall,
    weight_constant,
)
from .groups import DirectSumGroup, FiniteGroup, ProductGroup, SemidirectGroup, coset_table, infinite_dihedral
from .walls import walls_to_labelled, wreath_walls, z_line_walls_space

MAX_ENUM = 4096


# ---------------------------------------------------------------------------
# pull-back


def pullback(f: Callable[[Point], Point], space: Space, universe: PointUniverse) -> Space:
    """Pull a structure back along f: sep_Y(y, y') = sep_X(f(y), f(y')).

    Labels and norm are reused from the target, so f becomes a homomorphism
    and distances are preserved exactly.
    """

    def diff(y, yp):
        fy, fyp = f(y), f(yp)
        space.universe.require(fy)
        space.universe.require(fyp)
        return space.diff(fy, fyp)

    return Space(universe=universe, diff=diff, norm=space.norm)


# ---------------------------------------------------------------------------
# naive Dirac families


def weighted_naive_space(points: Iterable, w, q) -> Space:
    """The w-weighted naive structure: separated pairs sit at distance w.

    Labels are Dirac labels of weight 1/2; sep(x, y) has value +w at x and
    -w at y, so the q-energy of any separated pair is w**q exactly.
    """
    w = Fraction(w)
    if w < 0:
        raise InvalidInput("naive weight must be nonnegative")
    neg_w = -w

    def diff(x, y):
        if x == y or w == 0:
            return ZERO_VEC
        return _vec({dirac(x): w, dirac(y): neg_w})

    return Space(universe=finite_universe(points), diff=diff, norm=NormSpec(q, half_weight))


def naive_space(points: Iterable, q) -> Space:
    return weighted_naive_space(points, 1, q)


def naive_group_action(group, point_map: Callable[[Any, Point], Point] | None = None) -> Action:
    """Automorphism action on a naive space over a group's elements.

    Pulling the Dirac function at z back along x -> gx gives the Dirac
    function at g^{-1} z.
    """
    pm = point_map if point_map is not None else (lambda g, x: group.mul(g, x))

    def label_map(g, label):
        (tag, z) = label[0]
        return dirac(pm(group.inv(g), z)), 1

    return Action(group=group, point_map=pm, label_map=label_map)


def group_naive_space(group: FiniteGroup, q, w=1) -> tuple[Space, Action]:
    """The naive structure on a finite group with its left translation action."""
    space = weighted_naive_space(group.elements(), w, q)
    return space, naive_group_action(group)


# ---------------------------------------------------------------------------
# finite products


def _common_exponent(factors: Sequence[Space]):
    if not factors:
        raise InvalidInput("a product needs at least one factor")
    for i, fac in enumerate(factors):
        if fac.norm.q != factors[0].norm.q:
            raise InvalidInput(f"factor {i} has exponent {fac.norm.q}, factor 0 has {factors[0].norm.q}: "
                               "the factor-tagged union of labels computes the q-sum of factor energies")
    return factors[0].norm.q


def _factor_weight(factor_at: Callable[[Any], Space]) -> Callable[[Label], Fraction]:
    """Weight of a factor-tagged label: the weight of its factor's label."""
    return lambda label: factor_at(label[0][1]).norm.weight(label[1:])


def product_space(factors: Sequence[Space]) -> Space:
    """Direct product with the factor-tagged union of label families.

    Points are tuples; sep is the disjoint union of per-factor separation
    vectors, so the q-energy is exactly the sum of the factor energies.
    The factors must carry one exponent q, which the product takes.
    """
    factors = list(factors)
    q = _common_exponent(factors)

    def contains(x) -> bool:
        return (
            isinstance(x, tuple)
            and len(x) == len(factors)
            and all(f.universe.contains(v) for f, v in zip(factors, x))
        )

    points = None
    if all(f.universe.points is not None for f in factors):
        total = 1
        for f in factors:
            total *= max(1, len(f.universe.points))
        if total <= MAX_ENUM:
            points = tuple(itertools.product(*(f.universe.points for f in factors)))

    def sampler(rng: random.Random):
        return tuple(f.universe.sample(rng, 1)[0] for f in factors)

    tagged = [(i, (("factor", i),), fac.diff) for i, fac in enumerate(factors)]

    def diff(x, y):
        return _vec({tag + label: value
                     for i, tag, fac_diff in tagged for label, value in fac_diff(x[i], y[i]).items()})

    weight = shared_weight(*(f.norm.weight for f in factors)) or _factor_weight(factors.__getitem__)
    return Space(
        universe=PointUniverse(contains=contains, points=points, sampler=sampler),
        diff=diff,
        norm=NormSpec(q, weight),
    )


def product_action(factors: Sequence[Space], actions: Sequence[Action]) -> tuple[Space, Action]:
    """Coordinatewise action of the product group on the product space."""
    space = product_space(factors)
    group = ProductGroup([a.group for a in actions])
    actions = list(actions)

    def point_map(g, x):
        return tuple(a.point_map(gi, xi) for a, gi, xi in zip(actions, g, x))

    label_map = None
    if all(a.label_map is not None for a in actions):
        label_map = factor_label_map(lambda g, i: (actions[i].label_map, g[i]))
    return space, Action(group=group, point_map=point_map, label_map=label_map)


def diagonal_action(parts: tuple[Action, Action]) -> Action:
    """One group acting on a two-factor ``product_space`` one factor at a time:
    factor k's points and labels move by ``parts[k]``, an action of that group."""
    pm0, pm1 = (a.point_map for a in parts)
    label_maps = [a.label_map for a in parts]

    def point_map(g, x):
        # unrolled: a comprehension over the factors made the dihedral point map ~1.6x slower
        return (pm0(g, x[0]), pm1(g, x[1]))

    return Action(group=parts[0].group, point_map=point_map,
                  label_map=factor_label_map(lambda g, k: (label_maps[k], g)))


# ---------------------------------------------------------------------------
# restricted direct sums


def sum_point(entries: Iterable[tuple[Any, Point]], basepoint: Point) -> tuple:
    """Canonical finite-support point of a restricted direct sum."""
    return tuple(sorted((i, x) for i, x in entries if x != basepoint))


def direct_sum_space(factor_at: Callable[[Any], Space], basepoint: Point, index_window: Sequence) -> Space:
    """Restricted direct sum relative to one base point, with lazy factors.

    Points are sorted tuples of (index, factor point) listing only the
    coordinates that differ from ``basepoint``, which every factor shares,
    each index in ``index_window``; factors are materialised only on the
    supports of queried points, and an index outside the window is rejected
    before its factor is asked for.  The exponent is the factors', read off
    the factor at the window's first index, and so is a constant weight; the
    oracle raises InvalidInput on a factor that does not carry that weight.
    """
    if not index_window:
        raise InvalidInput("a direct sum needs at least one index")
    first = factor_at(index_window[0]).norm
    q = first.q
    window = frozenset(index_window)
    # a constant weight of the first factor is the sum's, and every factor that
    # the oracle reaches must carry its value
    constant = weight_constant(first.weight)
    tags: dict = {}  # index -> its factor tag, built once its factor's weight is checked

    def contains(x) -> bool:
        if not isinstance(x, tuple):
            return False
        indices = []
        for item in x:
            if not (isinstance(item, tuple) and len(item) == 2 and item[0] in window):
                return False
            i, xi = item
            indices.append(i)
            if not factor_at(i).universe.contains(xi) or xi == basepoint:
                return False
        return all(indices[k] < indices[k + 1] for k in range(len(indices) - 1))

    def sampler(rng: random.Random):
        k = rng.randrange(0, min(3, len(index_window)) + 1)
        chosen = rng.sample(list(index_window), k)
        return sum_point([(i, factor_at(i).universe.sample(rng, 1)[0]) for i in chosen], basepoint)

    def diff(x, y):
        xs, ys = dict(x), dict(y)
        out = {}
        for i in xs.keys() | ys.keys():
            fac = factor_at(i)
            tag = tags.get(i)
            if tag is None:
                if constant is not None and weight_constant(fac.norm.weight) != constant:
                    raise InvalidInput(f"factor {i} of the direct sum does not weigh every label {constant}, "
                                       f"as the factor at index {index_window[0]} does")
                tag = tags[i] = (("factor", i),)
            for label, value in fac.diff(xs.get(i, basepoint), ys.get(i, basepoint)).items():
                out[tag + label] = value
        return _vec(out)

    return Space(
        universe=PointUniverse(contains=contains, sampler=sampler),
        diff=diff,
        norm=NormSpec(q, first.weight if constant is not None else _factor_weight(factor_at)),
    )


def direct_sum_action(group: DirectSumGroup, action: Action, basepoint: Point) -> Action:
    """The lamp group's coordinatewise action on a ``direct_sum_space`` with
    base point ``basepoint``: w moves coordinate i by ``action`` with its
    component w_i, and leaves the coordinates off its support in place."""
    move, label_map = action.point_map, action.label_map

    def point_map(w, x):
        moved = dict(x)
        for i, h in w:
            moved[i] = move(h, moved.get(i, basepoint))
        return sum_point(moved.items(), basepoint)

    return Action(group=group, point_map=point_map,
                  label_map=factor_label_map(lambda w, i: (label_map, group.component(w, i))))


def weighted_naive_sum_space(group: DirectSumGroup, phi: Callable[[Any], Fraction] | None, q) -> tuple[Space, Action]:
    """The direct sum of phi(i)-weighted naive structures on a lamp group.

    Points are the group's own finite-support elements; the q-energy of
    c(w, w') is the sum of phi(i)**q over the support of w^{-1} w'.  The
    group acts on itself by left translation with an exact label map.
    When phi is None the default 1 + |enumeration rank| weighting is used,
    which diverges along the index window.  The factor at index i is built
    on first use, the window's first one with the space, for its exponent;
    a negative phi(i) raises InvalidInput there.
    """
    if phi is None:
        ranks = {i: r for r, i in enumerate(group.index_window)}

        def phi(i):
            return Fraction(1 + ranks[i])

    h = group.factor
    factors: dict = {}

    def factor_at(i):
        if i not in factors:
            factors[i] = weighted_naive_space(h.elements(), phi(i), q)
        return factors[i]

    space = direct_sum_space(factor_at, h.identity, index_window=group.index_window)
    coordinatewise = direct_sum_action(group, naive_group_action(h), h.identity)
    # group.mul is the same map on the group's own elements, and about 1.6x faster
    return space, Action(group=group, point_map=group.mul, label_map=coordinatewise.label_map)


# ---------------------------------------------------------------------------
# properness-restoring sum


def proper_sum_space(factor_space: Space, factor_action: Action, window: Sequence,
                     phi: Callable[[Any], Fraction] | None = None) -> tuple[Space, Action]:
    """Product of a direct sum of copies of ``factor_space`` with the
    diverging-weight naive structure on the acting lamp group, carrying the
    diagonal action.

    The lamp group is the restricted sum over ``window`` of copies of
    ``factor_action``'s group.  Every coordinate of the direct sum has one
    base point, that group's identity, and moves by ``factor_action``.  For
    w in the lamp group and base point y0 = ((), identity), the q-energy of
    c(w.y0, y0) is the sum over supp(w) of the factor orbital energies plus
    phi(i)**q, so orbits escape every ball whenever the factor action is
    proper and phi diverges.  The exponent is ``factor_space``'s.
    """
    group = DirectSumGroup(factor_action.group, window)
    basepoint = factor_action.group.identity
    x_part = direct_sum_space(lambda i: factor_space, basepoint, index_window=group.index_window)
    w_part, w_action = weighted_naive_sum_space(group, phi, factor_space.norm.q)
    space = product_space([x_part, w_part])
    x_action = direct_sum_action(group, factor_action, basepoint)
    return space, diagonal_action((x_action, w_action))


# ---------------------------------------------------------------------------
# semidirect gluing


def semidirect_space(space1: Space, action1: Action, space2: Space, action2: Action, twist_action: Action,
                     group: SemidirectGroup) -> tuple[Space, Action]:
    """Product structure on X1 x X2 with the glued semidirect action
    tau(g1, g2)(x1, x2) = (g1 . (twist(g2) . x1), g2 . x2).

    ``twist_action`` is the action of the quotient group on the first space
    extending the twist homomorphism; it is required as explicit input and
    must be compatible with the first action in the sense that
    g2 g1 g2^{-1} acts on space1 as twist(g2)(g1) does.  That is tested on
    40 (g1, g2, x1) sampled with seed 0, and InvalidInput raised if it
    fails.  All three actions carry label maps.
    """
    rng = random.Random(0)
    g1s = list(action1.group.generators) + [action1.group.identity]
    g2s = list(action2.group.generators) + [action2.group.identity]
    for _ in range(40):
        g1, g2 = rng.choice(g1s), rng.choice(g2s)
        x = space1.universe.sample(rng, 1)[0]
        lhs = twist_action.point_map(g2, action1.point_map(g1, twist_action.point_map(action2.group.inv(g2), x)))
        if lhs != action1.point_map(group.twist(g2, g1), x):
            raise InvalidInput("twist action is not compatible with the first factor action")

    space = product_space([space1, space2])
    pm1, lm1, pm2, lm2 = action1.point_map, action1.label_map, action2.point_map, action2.label_map
    twist_pm, twist_lm = twist_action.point_map, twist_action.label_map

    def twisted_map(g, label):
        # g1 . (twist(g2) . x1) pulls a label back along g1, then along twist(g2)
        mid, s1 = lm1(g[0], label)
        out, s2 = twist_lm(g[1], mid)
        return out, s1 * s2

    twisted = Action(group, lambda g, x1: pm1(g[0], twist_pm(g[1], x1)), twisted_map)
    second = Action(group, lambda g, x2: pm2(g[1], x2), lambda g, label: lm2(g[1], label))
    return space, diagonal_action((twisted, second))


def infinite_dihedral_space(q) -> tuple[Space, Action]:
    """The infinite dihedral group Z x| Z/2 glued onto (integer-line walls) x
    (naive Z/2): the flip acts on the line by x -> -x, which reflects the
    wall {x <= k} onto the complement of {x <= -k - 1}."""
    space1, action1 = z_line_walls_space(q)
    group = infinite_dihedral()
    flip_group = group.quotient
    space2, action2 = group_naive_space(flip_group, q)

    def twist_point(s, x):
        return (-x[0],) if s == 1 else x

    def twist_label(s, label):
        (tag, (axis, k)) = label[0]
        if s == 1:
            return wall((axis, -k - 1)), -1
        return label, 1

    twist_action = Action(group=flip_group, point_map=twist_point, label_map=twist_label)
    return semidirect_space(space1, action1, space2, action2, twist_action, group)


# ---------------------------------------------------------------------------
# finite-quotient averaging


def quotient_average(space: Space, subgroup: Iterable[int], action: Action) -> tuple[Space, Action]:
    """Average a structure on a group over a finite subgroup.

    The source space's points must be exactly the elements of the group G of
    ``action``, the left translation.  Points of the result are the coset
    representatives of G/F; separation vectors are averages over F inside
    the original label family:

        sep'(gF, g'F) = (1/|F|) sum_f sep(g f, g' f).

    The orbital norms change by at most 2 * ||(1/|F|) sum_f sep(f, e)||.
    """
    group = action.group
    table = coset_table(group, subgroup)
    size = Fraction(1, len(table.subgroup))

    def diff(r, rp):
        acc = SparseVec()
        for f in table.subgroup:
            acc = acc + space.diff(group.mul(r, f), group.mul(rp, f))
        return acc.scaled(size)

    quotient = Space(universe=finite_universe(table.reps), diff=diff, norm=space.norm)

    quotient_action = Action(
        group=group,
        point_map=lambda g, r: table.rep_of[group.mul(g, r)],
        label_map=action.label_map,
    )
    return quotient, quotient_action


def averaging_eta(space: Space, group: FiniteGroup, subgroup: Iterable[int]) -> SparseVec:
    """The drift vector eta = (1/|F|) sum_f sep(f, e).

    Orbital norms of the averaged structure stay within K = 2 ||eta|| of the
    original ones; callers form K at the exactness level they need (2 times
    the q-energy at q = 1, a float root otherwise).
    """
    sub = tuple(sorted(set(subgroup)))
    eta = SparseVec()
    for f in sub:
        eta = eta + space.diff(f, group.identity)
    return eta.scaled(Fraction(1, len(sub)))


# ---------------------------------------------------------------------------
# wreath gluing


def wreath_glue(group_g: FiniteGroup, subgroup_l, factor_space: Space,
                factor_action: Action) -> tuple[Space, Action, Action]:
    """The wreath gluing for H wr_{G/L} G: the walls ``walls.wreath_walls``
    on W x I glued with the direct sum over I of a structure on H.

    I is G/L, indexed by ``coset_table``'s representatives (the identity's
    coset first), and W the restricted sum over I of copies of the group H
    of ``factor_action``.  H must have order 2: a lamp translation by a
    nontrivial w_j swaps the sides of the support wall at j, which is a
    sign flip of its label only then.

    Points are ((w1, i), x); x is a point of the direct sum over I of
    ``factor_space`` whose base point at every index is the identity of H.
    W acts by tau_W(w)((w1, i), x) = ((w w1, i), w . x), where w . x moves
    x_j by ``factor_action`` with w_j, and G by
    tau_G(g)((w1, i), x) = ((rho(g) w1, g i), rho(g) x), where rho(g)
    moves coordinate i to g i.  For the base point ((e, L), e) the orbital
    q-energy of tau_W(w) is the wall distance plus the sum of factor
    orbital energies over the support of w.  The exponent is ``factor_space``'s.
    """
    q = factor_space.norm.q
    lamps = factor_action.group
    if lamps.size != 2:
        raise InvalidInput(f"the wreath walls need lamps of order 2, got a lamp group of order {lamps.size}")
    cosets = coset_table(group_g, subgroup_l)
    group_w = DirectSumGroup(lamps, cosets.reps)
    walls_space = walls_to_labelled(wreath_walls(group_w), q)
    lamp_sum = direct_sum_space(lambda i: factor_space, lamps.identity, index_window=group_w.index_window)
    space = product_space([walls_space, lamp_sum])

    def shift(g, i):
        return cosets.rep_of[group_g.mul(g, i)]

    def rho(g, w):
        return tuple(sorted((shift(g, i), x) for i, x in w))

    def label_map_w(w, label):
        # a nontrivial w_j flips the indicator difference of the support wall at j
        (tag, (family, j)) = label[0]
        if family == "supp" and group_w.component(w, j) != lamps.identity:
            return wall(("supp", j)), -1
        return label, 1

    def label_map_g(g, label):
        (tag, (family, j)) = label[0]
        return wall((family, shift(group_g.inv(g), j))), 1

    def lamp_label_map_g(g, label):
        # coordinate i of rho(g)w is the coordinate g^{-1} i of w
        (tag, i) = label[0]
        return (factor(shift(group_g.inv(g), i), tuple(label[1:])), 1)

    action_w = diagonal_action((
        Action(group_w, lambda w, p: (group_w.mul(w, p[0]), p[1]), label_map_w),
        direct_sum_action(group_w, factor_action, lamps.identity),
    ))
    action_g = diagonal_action((
        Action(group_g, lambda g, p: (rho(g, p[0]), shift(g, p[1])), label_map_g),
        Action(group_g, rho, lamp_label_map_g),
    ))
    return space, action_w, action_g


def wreath_support_evidence(walls, group_w: DirectSumGroup, i0, radius: int) -> dict:
    """Finite-ball evidence that wall distances control lamp supports.

    For each index j, the minimum of d((w, i0), (e, i0)) over the enumerated
    ball elements w whose support contains j.  Radii R then admit the finite
    set {j : minimum <= R} as a support bound for all enumerated w with
    wall distance at most R; a zero minimum at some j means the walls never
    see lamps at j and properness of the gluing is not supported.
    """
    from .groups import ball_enumerate

    evidence: dict = {}
    identity_point = (group_w.identity, i0)
    for w, _ in ball_enumerate(group_w, radius):
        if w == group_w.identity:
            continue
        d = walls.wall_distance((w, i0), identity_point)
        for j in group_w.support(w):
            if j not in evidence or d < evidence[j]:
                evidence[j] = d
    return evidence
