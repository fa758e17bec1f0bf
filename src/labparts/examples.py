"""Concrete structure providers.

Three families:

* the sup-norm realization of any finite pseudo-metric through the labelling
  functions x -> d(x, z), one per point z, whose induced pseudo-metric is the
  input metric exactly;
* the tree specialization of the hyperbolic-group labelling family on a free
  group: labels are pairs (a, b) of adjacent vertices, the labelling function
  of (a, b) evaluates the unit Dirac mass sitting at the neighbour of a in
  the direction of the argument; separation vectors are supported on the
  geodesic between the two points and have q-energy 2 (d + 1);
* the two-way bridge between affine isometric actions given by a pair
  (representation, cocycle) on a finite-dimensional rational q-space and
  spaces with labelled partitions on the acting group.
"""

from __future__ import annotations

import csv
import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable

from .core import (
    Action,
    CheckReport,
    DomainError,
    InvalidInput,
    MINUS_ONE,
    NormSpec,
    ONE,
    PointUniverse,
    Space,
    SparseVec,
    SUP,
    _vec,
    coset_fn,
    dirac,
    finite_universe,
    pair_label,
    q_energy,
    relabel,
    sep,
)
from .groups import FiniteGroup, FreeGroup, ball_enumerate


# ---------------------------------------------------------------------------
# metric realization


# the most points of a finite metric: its triangle inequality is checked over all n³
# triples in Fraction arithmetic, which took 0.4 s at 64 points and 1.6 s at 100
# (a 0/1 metric, Python 3.11 on a 2-vCPU x86-64 machine)
MAX_METRIC_POINTS = 64


@dataclass(frozen=True)
class FiniteMetric:
    """A finite pseudo-metric with exact rational values."""

    points: tuple
    d: tuple  # tuple of tuples of Fractions

    def __post_init__(self):
        n = len(self.points)
        if n > MAX_METRIC_POINTS:
            raise InvalidInput(f"a metric takes at most {MAX_METRIC_POINTS} points, got {n}: "
                               "its triangle inequality is checked over all n³ triples")
        m = tuple(tuple(Fraction(v) for v in row) for row in self.d)
        object.__setattr__(self, "d", m)
        if n == 0 or len(m) != n or any(len(row) != n for row in m):
            raise InvalidInput("a metric needs a nonempty point list and a square matrix to match")
        for i, p in enumerate(self.points):
            if p in self.points[:i]:
                raise InvalidInput(f"metric point {p!r} is named twice; each point needs its own name")
        for i in range(n):
            if m[i][i] != 0:
                raise InvalidInput(f"metric point {self.points[i]!r} has the nonzero diagonal entry {m[i][i]}")
            for j in range(n):
                if m[i][j] < 0 or m[i][j] != m[j][i]:
                    raise InvalidInput("metric must be symmetric and nonnegative")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if m[i][k] > m[i][j] + m[j][k]:
                        raise InvalidInput("triangle inequality violated")


def metric_realization_space(metric: FiniteMetric) -> Space:
    """Sup-norm space whose labels are the distance functions to each point.

    sep(x, y) has entry d(x, z) - d(y, z) at the label of z; its sup norm is
    attained at z = y and equals d(x, y) exactly.
    """
    index = {p: i for i, p in enumerate(metric.points)}

    def diff(x, y):
        ix, iy = index[x], index[y]
        return SparseVec(
            (dirac(z), metric.d[ix][k] - metric.d[iy][k]) for k, z in enumerate(metric.points)
        )

    return Space(universe=finite_universe(metric.points), diff=diff, norm=NormSpec(SUP))


def metric_from_csv(path) -> FiniteMetric:
    """Load a metric from a CSV matrix; an optional first row names the points."""
    with open(path, newline="", encoding="ascii") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise InvalidInput("empty metric file")

    def numeric(cell: str) -> bool:
        try:
            Fraction(cell)
            return True
        except ValueError:
            return False

    if all(numeric(c) for c in rows[0]):
        names = tuple(f"p{i}" for i in range(len(rows[0])))
        body = rows
    else:
        names = tuple(rows[0])
        body = rows[1:]
    # FiniteMetric reads the cells as fractions once it has checked the point count
    return FiniteMetric(names, tuple(map(tuple, body)))


# ---------------------------------------------------------------------------
# free groups: tree specialization of the hyperbolic labelling family


def tree_neighbour(a: tuple, x: tuple) -> tuple:
    """The vertex adjacent to a on the geodesic toward x (a itself if x = a).

    Reduced words are the vertices of the Cayley tree and prefixes their
    ancestors, so the step goes down to a's child on x when a is a prefix of
    x, and up to a's parent otherwise.
    """
    if x[: len(a)] == a:
        return x[: len(a) + 1]
    return a[:-1]


def geodesic(x: tuple, y: tuple) -> list[tuple]:
    """Vertices of the geodesic segment from x to y in the Cayley tree: the
    prefixes of x down to the common prefix, then the prefixes of y."""
    common = 0
    for u, v in zip(x, y):
        if u != v:
            break
        common += 1
    return [x[:k] for k in range(len(x), common, -1)] + [y[:k] for k in range(common, len(y) + 1)]


def free_tree_space(rank: int, q, sample_radius: int = 4) -> tuple[Space, Action, FreeGroup]:
    """Labelled partitions on a free group from unit Dirac masses on the tree.

    Labels are pairs (a, b) with b adjacent to or equal to a; the labelling
    function of (a, b) is 1 exactly on the points x whose geodesic from a
    starts toward b.  A pair (x, x') is separated precisely by the labels
    with a on the geodesic [x, x'], two per such a, so

        q-energy of sep(x, x') = 2 (d(x, x') + 1)   for x != x'.

    Left translation acts by automorphisms with the label map
    (a, b) -> (gamma^{-1} a, gamma^{-1} b).
    """
    free = FreeGroup(rank)

    def diff(x, y):
        # the geodesic's vertices are distinct, so are the two labels at each
        entries = {}
        for a in geodesic(x, y):
            bx = tree_neighbour(a, x)
            by = tree_neighbour(a, y)
            if bx != by:
                entries[pair_label(a, bx)] = ONE
                entries[pair_label(a, by)] = MINUS_ONE
        return _vec(entries)

    @functools.cache
    def ball() -> list:
        return [w for w, _ in ball_enumerate(free, sample_radius)]

    def sampler(rng: random.Random):
        return rng.choice(ball())

    space = Space(universe=PointUniverse(contains=free.is_reduced, sampler=sampler), diff=diff, norm=NormSpec(q))

    def label_map(gamma, label):
        (tag, a, b) = label[0]
        ginv = free.inv(gamma)
        return pair_label(free.mul(ginv, a), free.mul(ginv, b)), 1

    action = Action(group=free, point_map=free.mul, label_map=label_map)
    return space, action, free


# ---------------------------------------------------------------------------
# rational matrices for finite-dimensional q-space isometries


Matrix = tuple
Vector = tuple


def mat_identity(n: int) -> Matrix:
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n)) for i in range(n)
    )


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return tuple(sum((a[i][k] * v[k] for k in range(len(v))), Fraction(0)) for i in range(len(a)))


def mat_transpose(a: Matrix) -> Matrix:
    return tuple(tuple(row[i] for row in a) for i in range(len(a)))


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(x + y for x, y in zip(u, v))


def vec_neg(u: Vector) -> Vector:
    return tuple(-x for x in u)


def is_signed_permutation(a: Matrix) -> bool:
    n = len(a)
    cols = set()
    for row in a:
        nonzero = [j for j, v in enumerate(row) if v]
        if len(nonzero) != 1 or abs(row[nonzero[0]]) != 1:
            return False
        cols.add(nonzero[0])
    return len(cols) == n


def is_orthogonal(a: Matrix) -> bool:
    return mat_mul(a, mat_transpose(a)) == mat_identity(len(a))


class OutsideBall(DomainError):
    """A translation moved a point past the ball on which a cocycle is evaluated."""


@dataclass(frozen=True)
class CocycleAction:
    """An affine isometric action on a rational q-space, evaluated on a ball.

    ``rep`` and ``cocycle`` return the linear part (an isometry matrix of
    the chosen q-norm) and the translation part of each evaluated element;
    the defining identity is cocycle(gh) = rep(g) cocycle(h) + cocycle(g).
    """

    group: Any
    dim: int
    q: Any
    rep: Callable[[Any], Matrix]
    cocycle: Callable[[Any], Vector]
    evaluated: tuple


def _check_isometry_matrix(m: Matrix, q, dim: int) -> None:
    if len(m) != dim or any(len(row) != dim for row in m):
        raise InvalidInput("matrix has the wrong shape")
    qq = NormSpec(q).q if q != SUP else SUP
    if qq != SUP and qq == 2:
        if not is_orthogonal(m):
            raise InvalidInput("linear part must be orthogonal for exponent 2")
    elif not is_signed_permutation(m):
        raise InvalidInput("linear part must be a signed permutation for this exponent")


def cocycle_action(
    group,
    q,
    gen_rep: dict,
    gen_cocycle: dict,
    radius: int,
) -> CocycleAction:
    """Extend generator images of (rep, cocycle) over a ball by the cocycle rule.

    Every generator matrix must be an isometry of the chosen q-norm (signed
    permutation; orthogonal matrices are additionally accepted at q = 2).
    Extension is breadth-first; if two paths to the same element disagree,
    the input violates the cocycle identity and is rejected.
    """
    dims = {len(v) for v in gen_cocycle.values()}
    if len(dims) != 1:
        raise InvalidInput("cocycle generator images must share one dimension")
    dim = dims.pop()
    images: dict = {group.identity: (mat_identity(dim), tuple(Fraction(0) for _ in range(dim)))}
    step: dict = {}
    for g, m in gen_rep.items():
        m = tuple(tuple(Fraction(v) for v in row) for row in m)
        _check_isometry_matrix(m, q, dim)
        b = tuple(Fraction(v) for v in gen_cocycle[g])
        step[g] = (m, b)
        minv = mat_transpose(m)
        step[group.inv(g)] = (minv, vec_neg(mat_vec(minv, b)))

    frontier = [group.identity]
    for _ in range(radius):
        nxt = []
        for x in frontier:
            mx, bx = images[x]
            for s, (ms, bs) in step.items():
                y = group.mul(x, s)
                my = mat_mul(mx, ms)
                by = vec_add(mat_vec(mx, bs), bx)
                if y in images:
                    if images[y] != (my, by):
                        raise InvalidInput(f"cocycle identity violated at {y!r}")
                else:
                    images[y] = (my, by)
                    nxt.append(y)
        frontier = nxt
    # cross-check the extension: every product inside the ball must agree
    inside = list(images)
    rng = random.Random(0)
    for _ in range(min(400, 4 * len(inside) ** 2)):
        g, h = rng.choice(inside), rng.choice(inside)
        gh = group.mul(g, h)
        if gh in images:
            mg, bg = images[g]
            mh, bh = images[h]
            if images[gh] != (mat_mul(mg, mh), vec_add(mat_vec(mg, bh), bg)):
                raise InvalidInput(f"cocycle identity violated at {gh!r}")

    evaluated = tuple(sorted(images, key=group.element_key))
    return CocycleAction(
        group=group,
        dim=dim,
        q=q,
        rep=lambda g: images[g][0],
        cocycle=lambda g: images[g][1],
        evaluated=evaluated,
    )


def cocycle_space(action: CocycleAction, point_radius: int | None = None) -> tuple[Space, Action]:
    """The structure on the group whose separation vectors are cocycle
    differences in coordinates: sep(g, h) = cocycle(g) - cocycle(h).

    Distances reproduce the affine orbit metric ||cocycle(g) - cocycle(h)||.
    When every linear part is a signed permutation the translation action
    carries an exact (signed) label map; otherwise it still preserves
    energies because the linear parts are isometries.  The space holds every
    evaluated element and lists those of the ball of radius ``point_radius``
    (all of them when it is None), so a listed point moved by an element of
    length at most (evaluated radius - ``point_radius``) stays in the space.
    """
    evaluated = set(action.evaluated)
    points = action.evaluated
    if point_radius is not None:
        inner = {w for w, _ in ball_enumerate(action.group, point_radius)}
        points = tuple(p for p in points if p in inner)

    def diff(g, h):
        bg = action.cocycle(g)
        bh = action.cocycle(h)
        return SparseVec((coset_fn(i), bg[i] - bh[i]) for i in range(action.dim))

    space = Space(universe=PointUniverse(contains=evaluated.__contains__, points=points), diff=diff,
                  norm=NormSpec(action.q))

    def point_map(g, x):
        y = action.group.mul(g, x)
        if y not in evaluated:
            raise OutsideBall("translation left the evaluated ball")
        return y

    label_map = None
    if all(is_signed_permutation(action.rep(g)) for g in action.evaluated):

        def label_map(g, label):
            (tag, i) = label[0]
            row = action.rep(g)[i]
            j = next(k for k, v in enumerate(row) if v)
            return (coset_fn(j), 1 if row[j] > 0 else -1)

    return space, Action(group=action.group, point_map=point_map, label_map=label_map)


def cocycle_from_space(
    space: Space,
    action: Action,
    basepoint,
    sample_pairs: Iterable[tuple[Any, Any]],
) -> CheckReport:
    """Extract the affine action attached to a space with an automorphism
    action and verify it: with b(g) = sep(g x0, x0) and pi(g) acting by the
    label map of g^-1, check b(gh) = pi(g) b(h) + b(g) exactly, and that
    pi preserves energies on the separation span."""
    report = CheckReport("cocycle-identity")
    group, label_map = action.group, action.label_map
    if label_map is None:
        raise DomainError("action carries no label map")

    def b(g):
        return sep(space, action.point_map(g, basepoint), basepoint)

    for g, h in sample_pairs:
        pi = functools.partial(label_map, group.inv(g))
        lhs = b(group.mul(g, h))
        rhs = relabel(b(h), pi) + b(g)
        ok = lhs == rhs
        if ok:
            xi = b(g) + b(h).scaled(Fraction(1, 3))
            moved = relabel(xi, pi)
            ok = q_energy(space.norm, moved) == q_energy(space.norm, xi)
            report.record(ok, None if ok else {"pair": (g, h), "reason": "norm not preserved"})
        else:
            report.record(False, {"pair": (g, h), "reason": "cocycle identity failed"})
    return report


def cocycle_from_text(path, group, radius: int) -> CocycleAction:
    """Load generator images from a text description and extend them.

    Format, one declaration per line: ``q <exponent>`` once, then per generator
    ``gen <element> | <matrix rows ; separated> | <vector>`` with rational
    entries.  Elements are parsed as integers (finite group indices or Z),
    each declared once.
    """
    q = None
    gen_rep: dict = {}
    gen_coc: dict = {}
    with open(path, encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("q "):
                if q is not None:
                    raise InvalidInput("cocycle file declares q twice; give one q line")
                q = Fraction(line.split()[1])
                continue
            if not line.startswith("gen "):
                raise InvalidInput(f"unrecognised cocycle line: {line!r}")
            _, rest = line.split(" ", 1)
            elem_s, mat_s, vec_s = (part.strip() for part in rest.split("|"))
            elem = int(elem_s)
            if elem in gen_rep:
                raise InvalidInput(f"cocycle generator {elem} is declared twice; each gen line needs its own element")
            if isinstance(group, FiniteGroup) and not 0 <= elem < len(group):
                raise InvalidInput(f"cocycle generator {elem} is not an element 0..{len(group) - 1} of the group")
            matrix = tuple(
                tuple(Fraction(v) for v in row.split()) for row in mat_s.split(";")
            )
            vector = tuple(Fraction(v) for v in vec_s.split())
            gen_rep[elem] = matrix
            gen_coc[elem] = vector
    if q is None:
        raise InvalidInput("cocycle file must declare the exponent q")
    return cocycle_action(group, q, gen_rep, gen_coc, radius)
