"""Atomic measured-walls structures and their labelled-partitions form.

A measured walls structure here is atomic: a family of walls (two-piece
partitions given by a membership predicate), a positive rational weight per
wall, and a separation oracle returning the finitely many walls separating a
pair of points.  The wall pseudo-metric d(x, y) sums the weights of the
separating walls.  Converting to labelled partitions puts one indicator
label per wall, weighted by the wall's weight, so the q-energy of a
separation vector equals the wall distance exactly, for every exponent q.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable

from .core import (
    Action,
    DomainError,
    MINUS_ONE,
    NormSpec,
    ONE,
    Point,
    PointUniverse,
    Space,
    SparseVec,
    _vec,
    finite_universe,
    unit_weight,
    wall,
)
from .groups import DirectSumGroup, FiniteGroup, ProductGroup, ZGroup, coset_table


@dataclass(frozen=True)
class MeasuredWalls:
    """Walls with atomic weights and a finite separation oracle.

    ``member(wall_id, x)`` says on which side of the wall x lies;
    ``separating(x, y)`` returns the wall ids with x and y on opposite
    sides, and must be finite, symmetric and empty on the diagonal.
    """

    universe: PointUniverse
    weight: Callable[[Any], Fraction]
    member: Callable[[Any, Point], bool]
    separating: Callable[[Point, Point], Iterable]

    def wall_distance(self, x: Point, y: Point) -> Fraction:
        self.universe.require(x)
        self.universe.require(y)
        return sum((Fraction(self.weight(h)) for h in self.separating(x, y)), Fraction(0))


def finite_walls(universe: PointUniverse, wall_ids: Iterable, member: Callable[[Any, Point], bool],
                 weight: Callable[[Any], Fraction] = unit_weight) -> MeasuredWalls:
    """Walls from a finite list of ids: the walls separating x and y are the
    ids, in list order, whose ``member`` test differs on x and y."""
    wall_ids = tuple(wall_ids)
    return MeasuredWalls(universe=universe, weight=weight, member=member,
                         separating=lambda x, y: [h for h in wall_ids if member(h, x) != member(h, y)])


def walls_to_labelled(walls: MeasuredWalls, q) -> Space:
    """Labelled partitions with one indicator label per wall.

    Separation vectors take values +-1 on separating walls (sign recording
    the side of the first argument); the label weight is the wall weight, so
    the q-energy equals the wall distance independently of q.
    """

    def diff(x, y):
        entries = [(wall(h), ONE if walls.member(h, x) else MINUS_ONE) for h in walls.separating(x, y)]
        if len(entries) > 100_000:
            raise DomainError("separation set too large to be finite")
        # distinct walls give a vector already canonical; a repeated wall is summed
        by_label = dict(entries)
        return _vec(by_label) if len(by_label) == len(entries) else SparseVec(entries)

    def weight_of(label):
        w = walls.weight(label[0][1])
        return w if isinstance(w, Fraction) else Fraction(w)

    return Space(universe=walls.universe, diff=diff, norm=NormSpec(q, weight_of))


# ---------------------------------------------------------------------------
# coordinate half-space walls on Z^n


def zn_half_space_walls(n: int, window: int = 8) -> MeasuredWalls:
    """Half-space walls {x : x_i <= k} on Z^n, each of weight 1.

    The wall distance is the l^1 metric.  ``window`` only bounds the default
    point sampler; membership and separation work on all of Z^n.
    """
    if n < 1:
        raise DomainError("dimension must be >= 1")

    def contains(x) -> bool:
        return isinstance(x, tuple) and len(x) == n and all(isinstance(v, int) for v in x)

    def sampler(rng: random.Random):
        return tuple(rng.randrange(-window, window + 1) for _ in range(n))

    def member(h, x) -> bool:
        axis, k = h
        return x[axis] <= k

    def separating(x, y):
        out = []
        for axis in range(n):
            lo, hi = sorted((x[axis], y[axis]))
            out.extend((axis, k) for k in range(lo, hi))
        return out

    return MeasuredWalls(
        universe=PointUniverse(contains=contains, sampler=sampler),
        weight=unit_weight,
        member=member,
        separating=separating,
    )


def zn_translation_action(n: int) -> Action:
    """Translation of Z^n, as n copies of Z, on the half-space-walls space.

    A group element is the translation vector t.  Pulling the indicator of
    {x_i <= k} back along the translation by t gives the indicator of
    {x_i <= k - t_i}.
    """

    def point_map(t, x):
        return tuple(xi + ti for xi, ti in zip(x, t))

    def label_map(t, label):
        (tag, (axis, k)) = label[0]
        return wall((axis, k - t[axis])), 1

    return Action(group=ProductGroup([ZGroup()] * n), point_map=point_map, label_map=label_map)


def z_line_walls_space(q) -> tuple[Space, Action]:
    """The integer line with half-line walls and its translation action by Z
    itself: the integer t acts as the vector (t,) of ``zn_translation_action(1)``."""
    space = walls_to_labelled(zn_half_space_walls(1), q)
    line = zn_translation_action(1)
    action = Action(group=ZGroup(), point_map=lambda t, x: line.point_map((t,), x),
                    label_map=lambda t, label: line.label_map((t,), label))
    return space, action


# ---------------------------------------------------------------------------
# left-invariant walls on a finite group from coset partitions


def coset_walls(group: FiniteGroup, subgroups: Iterable[Iterable[int]]) -> MeasuredWalls:
    """Walls of weight 1 on a finite group given by left cosets of the listed subgroups.

    Each wall is a pair (subgroup index, coset representative); a point lies
    on the inside iff it belongs to that coset.  Left translation permutes
    each family, so the group acts by automorphisms on the derived space.
    """
    tables = [coset_table(group, sub) for sub in subgroups]
    wall_ids = tuple((i, rep) for i, table in enumerate(tables) for rep in table.reps)

    def member(h, x) -> bool:
        i, rep = h
        return tables[i].rep_of[x] == rep

    return finite_walls(finite_universe(range(group.size)), wall_ids, member)


def coset_walls_action(group: FiniteGroup, tables_subgroups: Iterable[Iterable[int]]) -> Action:
    """Left translation action on a coset-walls space.

    Pulling the coset indicator 1_{rep C} back along x -> gx gives the
    indicator of g^{-1} rep C, whose wall id keeps the subgroup index and
    moves the representative.
    """
    tables = [coset_table(group, sub) for sub in tables_subgroups]

    def label_map(g, label):
        (tag, (i, rep)) = label[0]
        return wall((i, tables[i].rep_of[group.mul(group.inv(g), rep)])), 1

    return Action(group=group, point_map=lambda g, x: group.mul(g, x), label_map=label_map)


def wreath_walls(group_w: DirectSumGroup) -> MeasuredWalls:
    """The atomic walls on W x I for the wreath gluing, I the index window of
    the lamp group W (the coset representatives of G/L).

    Walls: per index j, the support wall {(w, i) : w_j != e} and the
    position wall {(w, i) : i = j}, all of weight 1.  Points are pairs
    (w, i) with w in W's normal form.
    """
    factor, index_set = group_w.factor, group_w.index_window
    hs = [x for x in factor.elements() if x != factor.identity]
    lamps = {(j, h) for j in index_set for h in hs}

    def contains(p) -> bool:
        if not (isinstance(p, tuple) and len(p) == 2):
            return False
        w, i = p
        # w is an element of group_w in its normal form: increasing indices, no identity lamp
        return (i in index_set and isinstance(w, tuple) and all(e in lamps for e in w)
                and all(a[0] < b[0] for a, b in zip(w, w[1:])))

    def sampler(rng: random.Random):
        k = rng.randrange(0, 3)
        idx = rng.sample(list(index_set), min(k, len(index_set)))
        w = tuple(sorted((i, rng.choice(hs)) for i in idx))
        return (w, index_set[rng.randrange(len(index_set))])

    def member(h, p) -> bool:
        w, i = p
        tag, j = h
        if tag == "supp":
            return group_w.component(w, j) != factor.identity
        return i == j

    wall_ids = [("supp", j) for j in index_set] + [("pos", j) for j in index_set]
    return finite_walls(PointUniverse(contains=contains, sampler=sampler), wall_ids, member)


def custom_walls_load(path) -> MeasuredWalls:
    """Load walls from a text file over an enumerated point set.

    Format: one ``points`` line naming the points, then one line per wall:
    ``wall <id> <weight> <m_1> ... <m_k>`` with m_j in {0, 1} flagging
    membership of the j-th point.  Weights are rationals like ``2/3``.
    Point names and wall ids are distinct.
    """
    points = None
    weights: dict = {}
    masks: dict = {}
    with open(path, encoding="ascii") as fh:
        for line in fh:
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "points":
                if points is not None:
                    raise DomainError(f"a second points line: {line!r}; the points are declared once")
                points = tuple(parts[1:])
                for i, p in enumerate(points):
                    if p in points[:i]:
                        raise DomainError(f"walls point {p!r} is named twice; each point needs its own name")
            elif parts[0] == "wall":
                if points is None:
                    raise DomainError(f"wall line before the points line: {line!r}")
                if len(parts) != 3 + len(points):
                    raise DomainError(f"wall line has wrong arity: {line!r}")
                wid, w = parts[1], Fraction(parts[2])
                if wid in weights:
                    raise DomainError(f"wall {wid!r} is declared twice; each wall needs its own id")
                if w <= 0:
                    raise DomainError(f"wall {wid!r} has weight {w}; wall weights must be positive")
                for p, v in zip(points, parts[3:]):
                    if v not in ("0", "1"):
                        raise DomainError(f"wall {wid!r} flags point {p!r} with {v!r}; a membership flag is 0 or 1")
                weights[wid] = w
                masks[wid] = {p: v == "1" for p, v in zip(points, parts[3:])}
            else:
                raise DomainError(f"unrecognised walls line: {line!r}")
    if not points:
        raise DomainError("walls file declares no points")

    return finite_walls(finite_universe(points), weights, lambda h, x: masks[h][x], weight=weights.__getitem__)
