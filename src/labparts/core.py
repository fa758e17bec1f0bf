"""Sparse separation vectors, weighted q-energies and the induced pseudo-metric.

A space with labelled partitions is a set of points together with a family of
scalar labelling functions; the separation vector of a pair (x, y) records, per
label, the difference of label values at x and at y.  At desk scale every such
space is represented by three pieces of data:

* a point universe (finite, or lazily sampled),
* a difference oracle ``(x, y) -> SparseVec`` returning the separation vector,
* a norm specification: an exponent q >= 1 (or the supremum norm) and a
  nonnegative weight per label.

The label family itself is never materialised; separation vectors are finitely
supported in every construction provided here, so the oracle is the whole
structure.  All scalars are exact rationals.  The q-energy (the q-th power of
the weighted norm) is the canonical exact quantity; distances are derived
floats, except for the supremum norm where the distance itself is exact.

Kernel invariants: a ``SparseVec`` stores only nonzero ``Fraction`` values;
``NormSpec`` weights are rationals (``int`` or ``Fraction``); integer-q
energies accumulate integer numerators per denominator and build one
canonical ``Fraction``; ``check_pseudo_metric`` tests each point once, calls
the oracle once per distinct ordered pair of a triple, c(y, x) included, and
reads the energy of c(y, x) off the identity c(x, y) == -c(y, x), which it
tests entry by entry without building -c(y, x); ``check_equivariance`` calls
the label map once per support label of c(x, y), under g^-1, tests weights
on those images, and computes energies only for a sample that fails.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Iterable

Point = Any
Label = tuple

SUP = "sup"
# relative tolerance of every float comparison (non-integer exponents)
REL_TOL = 1e-9
# a failed check keeps its first counterexamples, at most this many
MAX_FAILURES_KEPT = 20


class DomainError(ValueError):
    """A point, label or map argument lies outside the structure's domain."""


class InvalidInput(ValueError):
    """Structurally invalid input (bad exponent, non-subgroup, broken table)."""


# ---------------------------------------------------------------------------
# labels
#
# A label is a tuple of tagged components.  Constructions prefix components:
# the i-th factor of a product wraps inner labels under a ('factor', i)
# component, a tree-of-spaces vertex under ('vertex', v), and so on.
# Structural equality of tuples is label equality.

def dirac(point) -> Label:
    """Label of the Dirac labelling function at ``point``."""
    return (("dirac", point),)


def wall(wall_id) -> Label:
    """Label of the indicator of a wall half-space."""
    return (("wall", wall_id),)


def pair_label(a, b) -> Label:
    """Label indexed by an ordered pair of points."""
    return (("pair", a, b),)


def coset_fn(cid) -> Label:
    """Label of a coordinate functional (used by cocycle-derived spaces)."""
    return (("cfn", cid),)


def factor(i, label: Label) -> Label:
    """Tag ``label`` as living on the i-th factor of a product."""
    return (("factor", i),) + tuple(label)


def factor_label_map(part: Callable[[Any, Any], tuple]) -> Callable:
    """Label map of a factor-tagged family from its factors' label maps.

    ``part(g, i)`` returns factor i's label map and the element acting on
    factor i; the label ``factor(i, l)`` moves to ``factor(i, l')`` where
    factor i's map sends l to (l', sign), and the sign is carried over.
    """

    def label_map(g, label):
        i = label[0][1]
        inner_map, gi = part(g, i)
        target, sign = inner_map(gi, label[1:])
        return factor(i, target), sign

    return label_map


def vertex_tag(v, label: Label) -> Label:
    """Tag ``label`` as living on the vertex space ``v`` of a tree of spaces."""
    return (("vertex", v),) + tuple(label)


def label_key(label: Label) -> str:
    """Deterministic sort key for labels of mixed component types."""
    return repr(label)


# ---------------------------------------------------------------------------
# sparse functionals


class SparseVec:
    """Finite-support map from labels to rationals; zeros are never stored.

    This is the computational form of a separation vector: addition,
    negation and scaling stay inside the class, and two vectors are equal
    exactly when all entries agree.
    """

    __slots__ = ("_entries",)
    # not iterable: iter, list and ``in`` would fall back to __getitem__,
    # which returns 0 for every missing label, and never end
    __iter__ = None

    def __init__(self, entries: Iterable | dict = ()):
        items = entries.items() if isinstance(entries, dict) else entries
        acc: dict = {}
        for label, value in items:
            if not isinstance(value, Fraction):
                value = Fraction(value)
            if not value:
                continue
            total = acc.get(label)
            if total is None:
                acc[label] = value
            elif total := total + value:
                acc[label] = total
            else:
                del acc[label]
        object.__setattr__(self, "_entries", acc)

    def __getitem__(self, label) -> Fraction:
        return self._entries.get(label, Fraction(0))

    def items(self):
        return self._entries.items()

    def support(self):
        return self._entries.keys()

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseVec):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(frozenset(self._entries.items()))

    def __add__(self, other: "SparseVec") -> "SparseVec":
        acc = dict(self._entries)
        for label, value in other.items():
            total = acc.get(label)
            if total is None:
                acc[label] = value
            elif total := total + value:
                acc[label] = total
            else:
                del acc[label]
        return _vec(acc)

    def __sub__(self, other: "SparseVec") -> "SparseVec":
        return self + (-other)

    def __neg__(self) -> "SparseVec":
        return _vec({l: -v for l, v in self._entries.items()})

    def scaled(self, c) -> "SparseVec":
        c = Fraction(c)
        if not c:
            return ZERO_VEC
        return _vec({l: c * v for l, v in self.items()})

    def __repr__(self) -> str:
        body = ", ".join(
            f"{label!r}: {value}" for label, value in sorted(self.items(), key=lambda kv: label_key(kv[0]))
        )
        return f"SparseVec({{{body}}})"


def _vec(entries: dict) -> SparseVec:
    """Wrap a dict already holding only nonzero Fractions, without re-checking; the
    factor-tagged oracles of ``product_space`` and ``direct_sum_space``, the wall
    oracle of ``walls_to_labelled``, the vertex-induced, tree-induced and amalgam
    oracles of ``amalgam`` and the free-tree oracle use it too."""
    out = SparseVec.__new__(SparseVec)
    object.__setattr__(out, "_entries", entries)
    return out


ZERO_VEC = SparseVec()


# ---------------------------------------------------------------------------
# norm specifications and energies


# shared values: oracles emit these, so SparseVec has no int to convert
ONE, MINUS_ONE, _HALF = Fraction(1), Fraction(-1), Fraction(1, 2)


def unit_weight(label: Label) -> Fraction:
    return ONE


def half_weight(label: Label) -> Fraction:
    """Weight 1/2, for label families that count each separation twice."""
    return _HALF


@dataclass(frozen=True)
class NormSpec:
    """Exponent q (rational >= 1, or SUP) plus a nonnegative weight per label.

    The q-energy of a vector v is sum_l weight(l) * |v(l)|**q; for SUP it is
    the largest weighted absolute value.  Weights house atomic wall measures
    and the scaling factors of weighted Dirac families, keeping every energy
    rational whenever q is an integer.
    """

    q: Any
    weight: Callable[[Label], Fraction] = unit_weight

    def __post_init__(self):
        if self.q == SUP:
            return
        q = Fraction(self.q)
        if q < 1:
            raise InvalidInput(f"norm exponent must be >= 1 or SUP, got {self.q}")
        object.__setattr__(self, "q", q)

    @property
    def exact(self) -> bool:
        """True when q-energies of rational vectors are exact rationals."""
        return self.q == SUP or self.q.denominator == 1


def q_energy(spec: NormSpec, vec: SparseVec):
    """Weighted q-energy of ``vec``; exact Fraction for integer q and SUP.

    For non-integer exponents the result is a float (|v|**q is irrational in
    general); callers comparing such energies use the relative tolerance ``REL_TOL``.
    """
    if spec.q == SUP:
        best = Fraction(0)
        for label, value in vec.items():
            w = spec.weight(label)
            cand = w * abs(value)
            if cand > best:
                best = cand
        return best
    q = spec.q
    if q.denominator == 1:
        # integer numerators summed per denominator, the buckets brought to
        # their lcm, and a single Fraction normalised at the end
        n = q.numerator
        weight = spec.weight
        buckets: dict = {}
        for l, v in vec.items():
            w = weight(l)
            den = w.denominator * v.denominator**n
            buckets[den] = buckets.get(den, 0) + w.numerator * abs(v.numerator) ** n
        num, den = 0, 1
        for d, m in buckets.items():
            lcm = den // math.gcd(den, d) * d
            num, den = num * (lcm // den) + m * (lcm // d), lcm
        return Fraction(num, den)
    qf = float(q)
    return math.fsum(float(spec.weight(l)) * float(abs(v)) ** qf for l, v in vec.items())


def energy_to_dist(spec: NormSpec, energy) -> float:
    if spec.q == SUP:
        return float(energy)
    return float(energy) ** (1.0 / float(spec.q))


def values_match(a, b) -> bool:
    """Exact comparison when both sides are rational, ``REL_TOL`` otherwise."""
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    return math.isclose(float(a), float(b), rel_tol=REL_TOL, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# point universes and spaces


@dataclass(frozen=True)
class PointUniverse:
    """Membership oracle plus either a full enumeration or a point sampler."""

    contains: Callable[[Point], bool]
    points: tuple | None = None
    sampler: Callable[[random.Random], Point] | None = None

    def require(self, x) -> None:
        if not self.contains(x):
            raise DomainError(f"point {x!r} is not in this space")

    def sample(self, rng: random.Random, n: int) -> list:
        if self.points is not None:
            return [self.points[rng.randrange(len(self.points))] for _ in range(n)]
        if self.sampler is None:
            raise DomainError("universe has neither enumeration nor sampler")
        return [self.sampler(rng) for _ in range(n)]


def finite_universe(points: Iterable) -> PointUniverse:
    pts = tuple(points)
    index = set(pts)
    return PointUniverse(contains=index.__contains__, points=pts)


@dataclass(frozen=True)
class Space:
    """A space with labelled partitions, given by its difference oracle.

    Invariants (verified by the check suite, not re-derived per call):
    ``diff(x, x)`` is empty, ``diff(x, y) == -diff(y, x)``, the Chasles
    relation ``diff(x, z) == diff(x, y) + diff(y, z)`` holds exactly, and
    every returned vector has finite q-energy.
    """

    universe: PointUniverse
    diff: Callable[[Point, Point], SparseVec]
    norm: NormSpec


def sep(space: Space, x: Point, y: Point) -> SparseVec:
    """Separation vector c(x, y), with per-label entries p(x) - p(y)."""
    space.universe.require(x)
    space.universe.require(y)
    return space.diff(x, y)


def pair_energy(space: Space, x: Point, y: Point):
    return q_energy(space.norm, sep(space, x, y))


def dist(space: Space, x: Point, y: Point) -> float:
    """The labelled-partitions pseudo-metric d(x, y) = ||c(x, y)||."""
    return energy_to_dist(space.norm, pair_energy(space, x, y))


# ---------------------------------------------------------------------------
# relabelling


def relabel(vec: SparseVec, move: Callable[[Label], tuple[Label, int]]) -> SparseVec:
    """Move ``vec``'s labels: where ``move(l) == (l', sign)`` with sign 1 or -1,
    the result holds ``sign * vec(l)`` at l'; ``move = lambda l: label_map(g^-1, l)``
    moves c(x, y) onto c(gx, gy).  Raises DomainError, naming the label, if
    ``move`` is undefined on a support label or returns no (label, +-1) pair.
    """
    out = []
    for label, value in vec.items():
        try:
            image = move(label)
        except (KeyError, DomainError) as exc:
            raise DomainError(f"label map undefined on {label!r}") from exc
        try:
            target, sign = image
        except (TypeError, ValueError):
            sign = None
        if sign not in (1, -1):
            raise DomainError(f"label map sends {label!r} to {image!r}, not to a (label, +-1) pair")
        out.append((target, value if sign == 1 else -value))
    return SparseVec(out)


# ---------------------------------------------------------------------------
# group actions by automorphisms


@dataclass(frozen=True)
class Action:
    """A group acting on a space, optionally with a label map.

    ``point_map(g, x)`` is the action on points.  When ``label_map`` is
    given, ``label_map(g, l)`` returns a pair (l', sign) with sign in
    {+1, -1} realising the pull-back of labelling functions along the
    action of g, so that for all x, y and labels l

        diff(g.x, g.y)(l) == sign * diff(x, y)(l')

    and weights are preserved; ``relabel(vec, lambda l: label_map(g^-1, l))``
    therefore moves c(x, y) onto c(gx, gy).  The attribute ``group`` is any
    group handle from :mod:`labparts.groups`.
    """

    group: Any
    point_map: Callable[[Any, Point], Point]
    label_map: Callable[[Any, Label], tuple[Label, int]] | None = None


# ---------------------------------------------------------------------------
# structural checks


@dataclass
class CheckReport:
    """Aggregated pass/fail record for a sampled structural check."""

    name: str
    total: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, ok: bool, context=None) -> None:
        self.total += 1
        if not ok and len(self.failures) < MAX_FAILURES_KEPT:
            self.failures.append(context)


def check_homomorphism(
    f: Callable[[Point], Point],
    source: Space,
    target: Space,
    sample_pairs: Iterable[tuple[Point, Point]],
) -> CheckReport:
    """Per sampled pair, does f preserve the pseudo-metric?

    Energies are compared exactly when both norms are exact with the same
    exponent; otherwise distances are compared with the float tolerance.
    """
    report = CheckReport("homomorphism")
    same_q = source.norm.q == target.norm.q
    for x, y in sample_pairs:
        fx, fy = f(x), f(y)
        try:
            target.universe.require(fx)
            target.universe.require(fy)
        except DomainError:
            report.record(False, {"pair": (x, y), "reason": "image outside target"})
            continue
        es = pair_energy(source, x, y)
        et = pair_energy(target, fx, fy)
        if same_q:
            ok = values_match(es, et)
        else:
            ok = values_match(energy_to_dist(source.norm, es), energy_to_dist(target.norm, et))
        report.record(ok, None if ok else {"pair": (x, y), "source": str(es), "target": str(et)})
    return report


def check_equivariance(
    space: Space,
    action: Action,
    samples: Iterable[tuple[Any, Point, Point]],
) -> CheckReport:
    """Per sample (g, x, y): d(gx, gy) == d(x, y), plus the vector identity
    c(gx, gy) == c(x, y) relabelled, and weight preservation, when the action
    carries a label map.

    With a label map, c(x, y) is relabelled once, and each support label's
    weight is compared with that of its image under g^-1 there: one label-map
    call per label.  For an action the g^-1 map is the inverse of the g map.
    A sample whose relabelled vector equals c(gx, gy), with no two labels
    moved onto one and every weight kept, passes with no energy computed: both
    energies then add up (or, under SUP, maximise) the same multiset of terms
    weight * |value|**q, which exact arithmetic and the correctly rounded
    ``math.fsum`` turn into equal values.  Otherwise both energies are computed
    and the first failing test names the reason: "distance changed", then
    "vector identity failed", then "weight not preserved".
    """
    report = CheckReport("equivariance")
    norm, label_map = space.norm, action.label_map
    weight = norm.weight
    for g, x, y in samples:
        lhs = sep(space, action.point_map(g, x), action.point_map(g, y))
        rhs = sep(space, x, y)
        if label_map is None:
            ok = values_match(q_energy(norm, lhs), q_energy(norm, rhs))
            report.record(ok, None if ok else {"sample": (g, x, y), "reason": "distance changed"})
            continue
        inv = action.group.inv(g)
        changed = []  # the first support label whose image has another weight

        def invert(label, inv=inv, changed=changed):  # defaults: read as fast locals
            image = label_map(inv, label)
            # an image that is no (label, +-1) pair is left for relabel to reject, naming the label;
            # weights are mostly one shared Fraction, and `is` skips the slow `!=`
            if not changed and type(image) is tuple and len(image) == 2 and image[1] in (1, -1):
                w, w_image = weight(label), weight(image[0])
                if w is not w_image and w != w_image:
                    changed.append(label)
            return image

        try:
            moved = relabel(rhs, invert)
        except Exception:
            # a label map that raises on c(x, y) is reported only once the energies agree,
            # so a changed distance keeps its reason
            if values_match(q_energy(norm, lhs), q_energy(norm, rhs)):
                raise
            report.record(False, {"sample": (g, x, y), "reason": "distance changed"})
            continue
        if moved == lhs and len(moved) == len(rhs) and not changed:
            report.record(True)
            continue
        detail = None
        if not values_match(q_energy(norm, lhs), q_energy(norm, rhs)):
            detail = {"sample": (g, x, y), "reason": "distance changed"}
        elif moved != lhs:
            detail = {"sample": (g, x, y), "reason": "vector identity failed"}
        elif changed:
            detail = {"sample": (g, x, y), "reason": "weight not preserved", "label": changed[0]}
        report.record(detail is None, detail)
    return report


def _negates(a: SparseVec, b: SparseVec) -> bool:
    """a == -b, without building -b: normalised Fractions are equal exactly
    when their numerators and denominators are."""
    ea, eb = a._entries, b._entries
    if len(ea) != len(eb):
        return False
    for label, v in ea.items():
        w = eb.get(label)
        if w is None or w.numerator != -v.numerator or w.denominator != v.denominator:
            return False
    return True


def check_pseudo_metric(
    space: Space,
    triples: Iterable[tuple[Point, Point, Point]],
) -> CheckReport:
    """Pseudo-metric axioms on sampled triples.

    d(x, x) = 0 and symmetry are exact (at the energy level); the triangle
    inequality is exact for q = 1 and checked after root extraction with the
    relative tolerance otherwise.  Each point is tested for membership once, z
    only after the first stage passes.  The oracle runs once per ordered pair;
    c(y, x) is evaluated, not derived from c(x, y), so antisymmetry is tested;
    as q_energy(-v) == q_energy(v) exactly, the energy of c(y, x) is not computed.
    """
    report = CheckReport("pseudo-metric")
    norm, require, diff = space.norm, space.universe.require, space.diff
    for x, y, z in triples:
        require(x)
        require(y)
        cxx, cxy, cyx = diff(x, x), diff(x, y), diff(y, x)
        ok = (not cxx or not q_energy(norm, cxx)) and _negates(cxy, cyx)
        if ok:
            require(z)
            cxz, cyz = diff(x, z), diff(y, z)
            ok = cxz == cxy + cyz
        if ok:
            exy, exz, eyz = q_energy(norm, cxy), q_energy(norm, cxz), q_energy(norm, cyz)
            if norm.q != SUP and norm.q == 1:
                ok = exz <= exy + eyz
            else:
                dxz, dxy, dyz = (energy_to_dist(norm, e) for e in (exz, exy, eyz))
                ok = dxz <= dxy + dyz + REL_TOL * (dxy + dyz + 1.0)
        report.record(ok, None if ok else {"triple": (x, y, z)})
    return report
