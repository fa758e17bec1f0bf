"""Config-driven pipeline and command line interface.

A space is described by a JSON document with a tree of construction nodes;
``build_space`` dispatches on the node kind and returns the space together
with its actions and a deterministic point enumeration.  The subcommands
``dist``, ``table``, ``growth``, ``check`` and ``export`` and their options
are listed in the command line synopsis of README.md.

Exit codes: 0 success, 1 check failure, 2 configuration error (an
``--out`` path that cannot be written is one).  All randomness is seeded:
``--seed`` (default 0) reaches only ``check``, while ``table``, ``export``
and ``#k`` indices over a sampled node always draw with seed 0
(``Built.points``).  Rationals are serialized as "num/den" strings;
outputs are sorted in canonical element order, so identical configs produce
byte-identical outputs.
"""

import argparse
import functools
import itertools
import json
import math
import os
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from . import amalgam as amalgam_mod
from . import constructions as cons
from . import examples as ex
from . import walls as walls_mod
from .core import (
    SUP,
    ZERO_VEC,
    CheckReport,
    Point,
    PointUniverse,
    Space,
    check_equivariance,
    check_pseudo_metric,
    energy_to_dist,
    finite_universe,
    label_key,
    pair_energy,
    q_energy,
    sep,
)
from .groups import (
    AmalgamGroup,
    DirectSumGroup,
    FiniteGroup,
    ZGroup,
    ball_enumerate,
    spheres,
)


class ConfigError(ValueError):
    """Schema violation, missing file or invalid parameter in a config node."""


class SamplingError(ConfigError):
    """A sampled node gave up drawing a point of its own universe."""


def json_point(value):
    """A point as a tuple space holds it: JSON lists become tuples at any depth,
    booleans and decimals are rejected, and any other value (an object too) is
    left for the space's membership test."""
    if type(value) is list:
        return tuple(json_point(v) for v in value)
    if isinstance(value, (bool, float, Fraction)):
        raise ValueError(f"invalid literal for a point: {float(value) if isinstance(value, Fraction) else value!r}")
    return value


class Listing(dict):
    """Listed points in order, each mapped to the group element that moved the
    basepoint there on an orbit node (to None elsewhere).  ``note`` is the
    ``#`` comment that says why fewer points were listed than asked for; it is
    None when all were, or when a finite orbit or point set has no more."""

    note: str | None = None


@dataclass
class Built:
    """A constructed space with its actions and deterministic enumeration.

    ``path`` is the config path of the node, which ``build_space`` sets.
    """

    space: Space
    actions: dict = field(default_factory=dict)
    basepoint: Any = None
    coerce: Callable[[Any], Point] = json_point
    extras: dict = field(default_factory=dict)
    path: str = "root"

    @property
    def group(self):
        """The group of the main action; None when there is no main action."""
        return self.actions["main"].group if "main" in self.actions else None

    @property
    def orbit(self) -> bool:
        """Whether the listed points are the orbit of ``basepoint`` under ``actions["main"]``:
        a node with a main action lists its orbit unless its point set is enumerated."""
        return "main" in self.actions and self.space.universe.points is None

    @property
    def sampled(self) -> bool:
        """Whether the listed points are seeded samples: the node has neither an orbit nor an enumerated point set."""
        return "main" not in self.actions and self.space.universe.points is None

    def points(self, limit: int) -> list:
        """The first ``limit`` distinct points of ``listing``."""
        return list(self.listing(limit))

    def listing(self, limit: int) -> Listing:
        """The first ``limit`` distinct points: the orbit (see
        ``orbit_elements``); else the enumerated point set; else seeded
        samples, up to the first draw a sampler gives up on."""
        if self.orbit:
            return self.orbit_elements(limit)
        if not self.sampled:
            return Listing.fromkeys(itertools.islice(self.space.universe.points, limit))
        rng, samples = random.Random(0), []
        try:
            while len(samples) < 4 * limit:
                samples += self.space.universe.sample(rng, 1)
        except SamplingError:
            pass  # the points drawn so far are listed, and the note says so
        listed = Listing.fromkeys(itertools.islice(dict.fromkeys(samples), limit))
        if len(listed) < limit:
            listed.note = f"# listed {len(listed)} of {limit} points: seeded sampling found no more"
        return listed

    def orbit_elements(self, limit: int) -> Listing:
        """The first ``limit`` distinct orbit points, sphere by sphere with no
        radius cap, each mapped to the first group element that moved the
        basepoint there.  It ends early when a finite group's spheres run out,
        and with a note where the action leaves the space (a ``cocycle``
        factor's translations end at its evaluated ball)."""
        action = self.actions["main"]
        out = Listing()
        if limit > 0:
            for r, sphere in enumerate(spheres(action.group)):
                for g in sphere:
                    try:
                        x = action.point_map(g, self.basepoint)
                    except ex.OutsideBall:
                        out.note = f"# listed {len(out)} of {limit} points: the orbit leaves the space at radius {r}"
                        return out
                    out.setdefault(x, g)
                    if len(out) == limit:
                        return out
        return out


# ---------------------------------------------------------------------------
# config readers: each takes a JSON value and the place it is read at, and
# returns what a builder gets or raises ValueError


class At(NamedTuple):
    """Where a config value is read: its node's path, its key and the config's directory."""

    path: str
    key: str
    base_dir: Path


def integer(value, at=None) -> int:
    """A JSON integer; decimals, strings and booleans are rejected, not truncated."""
    if type(value) is not int:
        raise ValueError(f"invalid literal for an integer: {float(value) if isinstance(value, Fraction) else value!r}")
    return value


def rational(value, at=None) -> Fraction:
    """An exact rational: a JSON integer (kept as an int), a JSON decimal (read exactly) or an "a/b" string."""
    if isinstance(value, bool) or not isinstance(value, (int, float, Fraction, str)):
        raise ValueError(f"invalid literal for a rational: {value!r}")
    return value if isinstance(value, (int, Fraction)) else Fraction(str(value))


def config_file(value, at: At) -> Path:
    """The name of an existing file, relative to the config's directory."""
    if not isinstance(value, str) or not (at.base_dir / value).is_file():
        raise ValueError(f"file {value!r} not found in {str(at.base_dir)!r}")
    return at.base_dir / value


def finite_group(value, at: At) -> FiniteGroup:
    """A finite group: a table file, {"cyclic": n} or {"symmetric": n}."""
    if isinstance(value, str):
        return FiniteGroup.load(config_file(value, at))
    return obj(_group_preset)(value, at)


# the largest order of a group built from a preset (S6's): a group's table has order² entries
MAX_PRESET_ORDER = 720
# the most points of a naive node: its universe holds each point in a tuple and a set,
# about 100 bytes a point, so the bound keeps that under about 10 MB
MAX_NAIVE_POINTS = 100_000


def _bound_order(n: int, preset: str, factorial: bool = False) -> None:
    """Reject a preset group before its table is built: its n must be at least 1
    and its order (n, or n! when ``factorial``) at most ``MAX_PRESET_ORDER``."""
    if n < 1:
        raise ValueError(f"a preset group takes n >= 1, not {preset}")
    # n! only up to n = MAX_PRESET_ORDER, already a product past the bound
    order = math.prod(range(2, min(n, MAX_PRESET_ORDER) + 1)) if factorial else n
    if order > MAX_PRESET_ORDER:
        raise ValueError(f"a preset group has order at most {MAX_PRESET_ORDER}; {preset} is larger")


def _at_least(low: int, key: str, value: int) -> None:
    """Reject a builder's integer key below ``low``, naming the key."""
    if value < low:
        raise ValueError(f"key {key!r} takes an integer >= {low}, got {value}")


def _group_preset(*, cyclic: integer = None, symmetric: integer = None):
    if (cyclic is None) == (symmetric is None):
        raise ValueError("a group is a table file, {'cyclic': n} or {'symmetric': n}")
    if symmetric is None:
        _bound_order(cyclic, f"{{'cyclic': {cyclic}}}")
        return FiniteGroup.cyclic(cyclic)
    _bound_order(symmetric, f"{{'symmetric': {symmetric}}}", factorial=True)
    return FiniteGroup.symmetric(symmetric)


def node(value, at: At) -> Built:
    """A nested config node, built at the path of its key."""
    return build_space(value, at.base_dir, f"{at.path}.{at.key}")


def anything(value, at=None):
    """Any JSON value, for the builder to interpret."""
    return value


def list_of(reader: Callable) -> Callable:
    """A reader of a JSON list, returned as a tuple; ``reader`` reads entry i
    at key ``key[i]``, so the i-th of a list of nodes is built at ``path.key[i]``."""

    def read(value, at=None) -> tuple:
        if not isinstance(value, list):
            raise ValueError(f"expected a list, got {value!r}")
        return tuple(reader(v, at and At(at.path, f"{at.key}[{i}]", at.base_dir)) for i, v in enumerate(value))

    read.__name__ = f"list of {reader.__name__}"
    return read


def one_of(*choices: str, otherwise: Callable | None = None) -> Callable:
    """A reader of one of the strings ``choices``, or of any other value by ``otherwise``."""

    def read(value, at=None):
        if value in choices:
            return value
        if otherwise is None:
            raise ValueError(f"expected one of {', '.join(map(repr, choices))}, got {value!r}")
        return otherwise(value, at)

    read.__name__ = " | ".join([*map(repr, choices)] + ([otherwise.__name__] if otherwise else []))
    return read


def obj(fn: Callable) -> Callable:
    """A reader of a JSON object by the signature of ``fn``, which has no return
    annotation: each keyword-only parameter is a key, its annotation reads the
    key's value and a default makes the key optional.  ``fn`` gets the values."""

    def read(value, at: At):
        if not isinstance(value, dict):
            raise ValueError(f"expected an object, got {value!r}")
        prefix = f"{at.key}." if at.key else ""
        readers, defaults = fn.__annotations__, fn.__kwdefaults__ or {}
        unknown = [key for key in value if key not in readers]
        if unknown:
            allowed = ", ".join(prefix + key for key in readers)
            raise ConfigError(f"{at.path}: unknown key {prefix + unknown[0]!r}; allowed keys: {allowed}")
        kwargs, where = {}, at.key  # where: the key a failure is reported under
        try:
            for key, reader in readers.items():
                where = prefix + key
                if key in value:
                    kwargs[key] = reader(value[key], At(at.path, where, at.base_dir))
                elif key not in defaults:
                    raise ConfigError(f"{at.path}: missing required key {where!r}")
            where = at.key
            return fn(**kwargs)
        except ConfigError:
            raise
        except (ValueError, TypeError, ZeroDivisionError, RecursionError) as exc:  # InvalidInput, "1/0", deep nesting
            raise ConfigError(f"{at.path}: {exc}" + (f" (key {where!r})" if where else "")) from exc

    read.__name__ = "object"
    return read


integers = list_of(integer)
exponent = one_of(SUP, otherwise=rational)  # the norm requires a rational exponent to be >= 1


def build_space(node: dict, base_dir: Path, path: str = "root") -> Built:
    """Build a space (plus actions) from a configuration node: the builder of
    its ``kind`` gets the node's other keys, read by its signature (see ``obj``)."""
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: node must be an object")
    kind = node.get("kind")
    if not isinstance(kind, str) or kind not in _BUILDERS:
        raise ConfigError(f"{path}: kind must be one of {', '.join(_BUILDERS)}; got {kind!r}")
    built = obj(_BUILDERS[kind])({k: v for k, v in node.items() if k != "kind"}, At(path, "", base_dir))
    built.path = path
    return built


def _build_naive(*, q: exponent, points: integer = None, group: finite_group = None, weight: rational = 1):
    if (points is None) == (group is None):
        raise ValueError("a naive node takes exactly one of 'points' and 'group'")
    if group is not None:
        space, action = cons.group_naive_space(group, q, weight)
        return Built(space, {"main": action}, basepoint=group.identity, coerce=integer)
    _at_least(1, "points", points)
    if points > MAX_NAIVE_POINTS:
        raise ValueError(f"key 'points' takes an integer <= {MAX_NAIVE_POINTS}, got {points}")
    space = cons.weighted_naive_space(range(points), weight, q)
    return Built(space, {}, basepoint=0, coerce=integer)


def _build_walls_zn(*, q: exponent, dim: integer, extent: integer = 8):
    _at_least(0, "extent", extent)
    walls = walls_mod.zn_half_space_walls(dim, window=extent)
    space = walls_mod.walls_to_labelled(walls, q)
    action = walls_mod.zn_translation_action(dim)

    def coerce(v):
        return (integer(v),) if dim == 1 and not isinstance(v, list) else integers(v)

    return Built(space, {"main": action}, basepoint=(0,) * dim, coerce=coerce)


def _build_walls_custom(*, q: exponent, file: config_file):
    walls = walls_mod.custom_walls_load(file)
    space = walls_mod.walls_to_labelled(walls, q)
    return Built(space, {}, basepoint=walls.universe.points[0], coerce=str)


def _build_metric(*, file: config_file = None, points: list_of(anything) = None,
                  matrix: list_of(list_of(rational)) = None):
    if (file is not None, points is not None, matrix is not None) not in ((True, False, False), (False, True, True)):
        raise ValueError("a metric_linf node takes either 'file' or both 'points' and 'matrix'")
    metric = ex.FiniteMetric(points, matrix) if file is None else ex.metric_from_csv(file)
    space = ex.metric_realization_space(metric)
    return Built(space, {}, basepoint=metric.points[0], coerce=str)


def _pullback_map(*, type: one_of("identity", "constant", "scale"), value: anything = None, factor: integer = None):
    if (type == "constant" and value is None) or (type == "scale" and factor is None):
        raise ValueError(f"map type {type!r} needs its {'value' if type == 'constant' else 'factor'!r} key")
    return type, value, factor


def _integer_tree(y) -> bool:
    """Whether ``y`` is an int or a plain tuple of such trees, as the points a scale map multiplies are."""
    return type(y) is int or (type(y) is tuple and all(map(_integer_tree, y)))


# draws of 'inner' that a sampled pullback makes for one point before it gives up
PULLBACK_DRAWS = 1000


def _build_pullback(*, inner: node, map: obj(_pullback_map)):
    mtype, value, c = map
    if mtype == "constant":
        target = inner.coerce(value)
        if not _contains(inner.space, target):
            raise ValueError(f"constant map value {value!r} is not a point of 'inner'")
        f = lambda y: target
    elif mtype == "scale":
        if not _integer_tree(inner.basepoint):
            raise ValueError(f"a scale map multiplies integers, but the points of 'inner' ({inner.path}) "
                             f"are not integers or tuples of them: {inner.basepoint!r}")

        def f(y):
            # the leaves of nested tuples are scaled: (0, (1,)) maps to (0, (c,))
            return tuple(f(v) for v in y) if type(y) is tuple else c * y

    else:
        f = lambda y: y
    # the points that f sends into inner, which a scale map can leave
    inner_universe = inner.space.universe
    if inner_universe.points is not None:
        universe = finite_universe(y for y in inner_universe.points if inner_universe.contains(f(y)))
    else:

        def sampler(rng: random.Random):
            # a failing draw reads built.path, which build_space has set by then
            for _ in range(PULLBACK_DRAWS):
                y = inner_universe.sample(rng, 1)[0]
                if inner_universe.contains(f(y)):
                    return y
            raise SamplingError(f"{built.path}: none of {PULLBACK_DRAWS} draws of 'inner' maps into 'inner'")

        universe = PointUniverse(contains=lambda y: inner_universe.contains(y) and inner_universe.contains(f(y)),
                                 sampler=sampler)
    space = cons.pullback(f, inner.space, universe)
    built = Built(space, {}, basepoint=inner.basepoint, coerce=inner.coerce)
    return built


def _build_product(*, q: exponent, factors: list_of(node)):
    if not factors:
        raise ValueError("a product needs at least one factor")
    actions = {}
    if all("main" in b.actions for b in factors):
        space, action = cons.product_action([b.space for b in factors], [b.actions["main"] for b in factors], q)
        actions["main"] = action
    else:
        space = cons.product_space([b.space for b in factors], q)

    def coerce(v):
        if not isinstance(v, list) or len(v) != len(factors):
            raise ValueError("product points are lists with one entry per factor")
        return tuple(b.coerce(c) for b, c in zip(factors, v))

    return Built(space, actions, basepoint=tuple(b.basepoint for b in factors), coerce=coerce)


def _build_proper_sum(*, q: exponent, window: integers, factor_cyclic: integer = 2,
                      phi: one_of("rank", "one_plus_abs", otherwise=list_of(rational)) = "rank"):
    if not window:
        raise ValueError("key 'window' needs at least one index")
    if len(set(window)) != len(window):
        raise ValueError(f"key 'window' repeats an index, but its indices must be distinct: {list(window)}")
    if phi == "rank":
        phi = None  # the weighted naive sum's own default
    elif phi == "one_plus_abs":
        phi = lambda i: Fraction(1 + abs(i))
    elif len(phi) != len(window):
        raise ValueError(f"phi needs one value per window index, got {len(phi)} for {len(window)}")
    elif any(v < 0 for v in phi):
        raise ValueError("phi values must be nonnegative")
    else:
        phi = dict(zip(window, phi)).__getitem__
    _bound_order(factor_cyclic, f"factor_cyclic {factor_cyclic}")
    factor_group = FiniteGroup.cyclic(factor_cyclic)
    group = DirectSumGroup(factor_group, window)
    factor_space, factor_action = cons.group_naive_space(factor_group, q)
    space, action = cons.proper_sum_space(factor_space, factor_action, group, q, phi)
    return Built(space, {"main": action}, basepoint=cons.proper_sum_basepoint(group))


def infinite_dihedral_built(q: exponent):
    """The builder of the ``semidirect`` kind: ``cons.infinite_dihedral_space``."""
    space, action = cons.infinite_dihedral_space(q)
    return Built(space, {"main": action}, basepoint=((0,), 0))


def _walls_cosets(*, kind: one_of("walls_cosets"), subgroups: list_of(integers)):
    return subgroups


def _build_quotient_average(*, q: exponent, group: finite_group, subgroup: integers,
                            structure: one_of("naive", otherwise=obj(_walls_cosets)) = "naive"):
    if structure == "naive":
        inner_space, inner_action = cons.group_naive_space(group, q)
    else:
        walls = walls_mod.coset_walls(group, structure)
        inner_space = walls_mod.walls_to_labelled(walls, q)
        inner_action = walls_mod.coset_walls_action(group, structure)
    space, action = cons.quotient_average(inner_space, group, subgroup, inner_action)
    return Built(space, {"main": action}, basepoint=space.universe.points[0], coerce=integer)


def _build_wreath_glue(*, q: exponent, group: finite_group, co_subgroup: integers = None):
    factor_space, factor_action = cons.group_naive_space(FiniteGroup.cyclic(2), q)
    subgroup_l = (group.identity,) if co_subgroup is None else co_subgroup
    space, action_w, action_g = cons.wreath_glue(group, subgroup_l, factor_space, factor_action, q)
    # the identity's coset is the first index
    return Built(space, {"main": action_w, "shift": action_g}, basepoint=(((), group.identity), ()))


def _edge_group(*, left: integers, right: integers, table: finite_group = None):
    return (FiniteGroup.cyclic(len(left)) if table is None else table), left, right


def _build_amalgam(*, q: exponent, left: finite_group, right: finite_group, common: obj(_edge_group),
                   factors: one_of("naive") = "naive"):
    group = AmalgamGroup(left, right, *common)
    tree = amalgam_mod.TreeOfCosetSpaces(group)
    sgc, agc, shc, ahc = amalgam_mod.naive_quotient_structures(tree, q)
    space, action = amalgam_mod.amalgam_space(tree, sgc, agc, shc, ahc, q)
    return Built(space, {"main": action}, basepoint=tree.base_point,
                 extras={"tree": tree, "struct_gc": sgc, "struct_hc": shc})


def _build_free_tree(*, q: exponent, rank: integer, radius: integer = 4):
    _at_least(0, "radius", radius)
    space, action, free = ex.free_tree_space(rank, q, sample_radius=radius)
    return Built(space, {"main": action}, basepoint=free.identity, coerce=integers)


def _build_cocycle(*, group: one_of("Z", otherwise=finite_group), file: config_file, radius: integer = 6):
    group = ZGroup() if group == "Z" else group
    action_data = ex.cocycle_from_text(file, group, radius)
    point_radius = max(1, radius - 2)
    # the check suites move the listed points by elements of the radius-2 ball, so the
    # evaluated ball must hold the ball of radius point_radius + 2
    reach = {w for w, _ in ball_enumerate(group, point_radius + 2)}
    if not reach <= set(action_data.evaluated):
        if not reach <= {w for w, _ in ball_enumerate(group, radius)}:
            raise ValueError(f"key 'radius' takes an integer >= 3 unless the ball of radius {radius} "
                             f"is the whole group, got {radius}")
        raise ValueError(f"key 'file': its generators do not reach the group's ball of radius {point_radius + 2}")
    space, action = ex.cocycle_space(action_data, point_radius=point_radius)
    return Built(space, {"main": action}, basepoint=group.identity)


# the kind table: each node kind and its builder
_BUILDERS = {
    "naive": _build_naive,
    "weighted_naive": _build_naive,
    "walls_zn": _build_walls_zn,
    "walls_custom": _build_walls_custom,
    "metric_linf": _build_metric,
    "pullback": _build_pullback,
    "product": _build_product,
    "proper_sum": _build_proper_sum,
    "semidirect": infinite_dihedral_built,
    "quotient_average": _build_quotient_average,
    "wreath_glue": _build_wreath_glue,
    "amalgam": _build_amalgam,
    "free_tree_mineyev": _build_free_tree,
    "cocycle": _build_cocycle,
}


# ---------------------------------------------------------------------------
# serialization helpers


def rational_str(value) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return repr(float(value))


def json_ready(obj):
    if isinstance(obj, Fraction):
        return rational_str(obj)
    if isinstance(obj, dict):
        return {str(k): json_ready(v) for k, v in obj.items()}
    if type(obj) in (list, tuple):  # a reduced word or total point is a named tuple, written by its repr
        return [json_ready(v) for v in obj]
    if isinstance(obj, (int, float, str, bool)) or obj is None:
        return obj
    return repr(obj)


def report_dict(report: CheckReport) -> dict:
    return {
        "name": report.name,
        "passed": report.passed,
        "samples": report.total,
        "failures": json_ready(report.failures),
    }


def json_chunks(entries: Iterable[dict]) -> Iterator[str]:
    """``json.dumps(list(entries), indent=2, sort_keys=True) + "\\n"``, one chunk per
    entry, for entries whose values are strings or objects of strings (what
    ``export`` writes).  Strings go through json's C encoder, and keys sort on
    the unescaped string, as ``json`` sorts them."""
    written = False
    for entry in entries:
        yield (",\n  " if written else "[\n  ") + _json_object(entry, "  ")
        written = True
    yield "\n]\n" if written else "[]\n"


def _json_object(obj: dict, indent: str) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` at nesting ``indent``."""
    if not obj:
        return "{}"
    inner = indent + "  "
    items = ",\n".join([
        f"{inner}{encode_basestring_ascii(k)}: "
        f"{_json_object(v, inner) if type(v) is dict else encode_basestring_ascii(v)}"
        for k, v in sorted(obj.items())
    ])
    return f"{{\n{items}\n{indent}}}"


# ---------------------------------------------------------------------------
# profiles and check suites


def growth_profile(built: Built, radius: int, budget: int = 200_000, generators=None) -> dict:
    """Per-sphere orbital statistics of the main action: the exact minimum
    energy, float distances.  Spheres are word spheres over ``generators``
    (default: the group's own generating set).

    The main action is taken to be by automorphisms (``check --suite
    equivariance`` samples this), hence by isometries: d(g x0, x0) =
    d(x0, g^-1 x0).  A word sphere over symmetrised generators is closed
    under inversion, so the energy of g is kept for g^-1 and read off when
    the sphere reaches it; each pair {g, g^-1} costs one oracle call.

    Raises ConfigError when no action is attached, or when the action moves
    the basepoint out of the space (past a ``cocycle`` node's evaluated
    ball).  Spheres are drawn one at
    a time, and at most ``budget`` elements are profiled: the profile is
    partial when a sphere is cut short or a sphere is left over once the
    budget is spent, and the search stops there.  A finite group's spheres
    are empty past its diameter, so the profile then ends at the last
    nonempty sphere and records that radius as ``reached``; a partial
    profile does not know it and records ``radius``.
    """
    if "main" not in built.actions:
        raise ConfigError("growth profiles need a space built with a group action")
    action = built.actions["main"]
    group = action.group
    rows = []
    consumed, partial, r = 0, False, -1
    dist_of: dict = {}  # energy -> distance, each distinct energy converted once
    for r, sphere in enumerate(itertools.islice(spheres(group, generators), radius + 1)):
        room = budget - consumed
        partial = len(sphere) > room
        if room <= 0:
            break
        sphere = sphere[:room]
        consumed += len(sphere)
        energies = []
        of_inverse: dict = {}
        for g in sphere:
            e = of_inverse.pop(g, None)
            if e is None:
                try:
                    moved = action.point_map(g, built.basepoint)
                except ex.OutsideBall as exc:  # a cocycle node's translations end at its evaluated ball
                    raise ConfigError(f"{built.path}: growth --radius {radius} leaves the space "
                                      f"at radius {r}: {exc}") from exc
                e = pair_energy(built.space, moved, built.basepoint)
                g_inv = group.inv(g)
                if g_inv != g:
                    of_inverse[g_inv] = e
            energies.append(e)
        for e in set(energies) - dist_of.keys():
            dist_of[e] = energy_to_dist(built.space.norm, e)
        dists = [dist_of[e] for e in energies]
        rows.append(
            {
                "radius": r,
                "sphere_size": len(sphere),
                "min_energy": min(energies),
                "min_dist": min(dists),
                "max_dist": max(dists),
                "mean_dist": sum(dists) / len(dists),
            }
        )
        if partial:
            break
    return {"rows": rows, "partial": partial, "radius": radius, "reached": radius if partial else r}


def energy_table(built: Built, limit: int) -> tuple[Listing, list[list]]:
    """The listing of the first ``limit`` points and the matrix of their pair energies.

    Energies are symmetric (c(y, x) = -c(x, y)), so each unordered pair is
    computed once and mirrored.  On an orbit node the main action is taken to
    be by automorphisms (``check --suite equivariance`` samples this), hence
    by isometries: d(g x0, h x0) = d(x0, g^-1 h x0).  So an energy is cached
    under the element g^-1 h and its inverse h^-1 g, and read off for every
    later pair with either element.  Elsewhere the diagonal is the energy of
    the zero vector.
    """
    space = built.space
    listed = built.listing(limit)
    points = list(listed)
    if not built.orbit:
        zero = q_energy(space.norm, ZERO_VEC)
        rows = [[zero] * len(points) for _ in points]
        for i, x in enumerate(points):
            for j in range(i + 1, len(points)):
                rows[i][j] = rows[j][i] = pair_energy(space, x, points[j])
        return listed, rows
    elements = list(listed.values())
    group = built.group
    inverses = [group.inv(g) for g in elements]
    cache: dict = {}
    rows = [[None] * len(points) for _ in points]
    for i, x in enumerate(points):
        for j in range(i, len(points)):
            key = group.mul(inverses[i], elements[j])
            e = cache.get(key)
            if e is None:
                e = cache[key] = cache[group.inv(key)] = pair_energy(space, x, points[j])
            rows[i][j] = rows[j][i] = e
    return listed, rows


def table_csv(listed: Listing, energies: list[list], norm) -> Iterator[str]:
    """``table``'s CSV in chunks: the header, one chunk per listed point x with
    its line for every pair (x, y), then the listing's note."""
    names = [f"\"{p!r}\"" for p in listed]
    texts: dict = {}  # energy -> its "energy,dist" cells
    yield "x,y,energy,dist\n"
    for x, row in zip(names, energies):
        lines = []
        for y, e in zip(names, row):
            text = texts.get(e)
            if text is None:
                text = texts[e] = f"{rational_str(e)},{energy_to_dist(norm, e):.12g}"
            lines.append(f"{x},{y},{text}\n")
        yield "".join(lines)
    if listed.note:
        yield listed.note + "\n"


def profile_csv(profile: dict) -> str:
    lines = ["radius,sphere_size,min_energy,min_dist,max_dist,mean_dist"]
    for row in profile["rows"]:
        lines.append(
            f"{row['radius']},{row['sphere_size']},{rational_str(row['min_energy'])},"
            f"{row['min_dist']:.12g},{row['max_dist']:.12g},{row['mean_dist']:.12g}"
        )
    if profile["partial"]:
        lines.append("# partial: enumeration budget exceeded")
    if profile["reached"] < profile["radius"]:
        lines.append(f"# radius {profile['radius']} requested; spheres past radius {profile['reached']} are empty")
    return "\n".join(lines) + "\n"


def _metric_suite(built: Built, samples: int, rng: random.Random):
    triples = [tuple(built.space.universe.sample(rng, 3)) for _ in range(samples)]
    yield check_pseudo_metric(built.space, triples)


def _equivariance_suite(built: Built, samples: int, rng: random.Random):
    for name, action in sorted(built.actions.items()):
        group_samples = [g for g, _ in ball_enumerate(action.group, 2)]
        trips = []
        for _ in range(samples):
            g = group_samples[rng.randrange(len(group_samples))]
            x, y = built.space.universe.sample(rng, 2)
            trips.append((g, x, y))
        report = check_equivariance(built.space, action, trips)
        report.name = f"equivariance[{name}]"
        yield report


def _amalgam_suite(built: Built, samples: int, rng: random.Random):
    # the closed form sums q-th powers, while a sup-norm energy is a maximum
    if "tree" not in built.extras or built.space.norm.q == SUP:
        return
    tree, sgc, shc = (built.extras[key] for key in ("tree", "struct_gc", "struct_hc"))
    report = CheckReport("amalgam-formula[linear]")  # "[linear]" names the tree term; golden outputs pin it
    for gamma, _ in ball_enumerate(tree.am, 4)[:samples]:
        moved = tree.act_point(gamma, tree.base_point)
        oracle = pair_energy(built.space, moved, tree.base_point)
        formula = amalgam_mod.amalgam_energy_formula(tree, sgc, shc, built.space.norm.q, gamma)
        ok = oracle == formula and oracle >= amalgam_mod.syllable_lower_bound(gamma)
        report.record(ok, None if ok else {"word": gamma, "oracle": oracle, "formula": formula})
    yield report


# the suite table: each suite yields its reports, or none when it does not apply to the node
SUITES = {"metric": _metric_suite, "equivariance": _equivariance_suite, "amalgam": _amalgam_suite}


def run_checks(built: Built, suites, samples: int, seed: int) -> dict:
    """Aggregate invariant checks, in ``SUITES`` order; the report carries exact counterexamples."""
    rng = random.Random(seed)
    reports = [report for name, suite in SUITES.items() if name in suites
               for report in suite(built, samples, rng)]
    return {
        "passed": all(r.passed for r in reports),
        "suites": [report_dict(r) for r in reports],
    }


# ---------------------------------------------------------------------------
# command line


def _parse_points(built: Built, texts: list[str]) -> list:
    """Points named by ``#k`` orbit indices or JSON literals; the orbit is
    enumerated once, as far as the largest index."""
    indices = {}
    for text in texts:
        if text.startswith("#"):
            try:
                indices[text] = int(text[1:])
            except ValueError as exc:
                raise ConfigError(f"point {text!r} is neither an index (#k) nor JSON") from exc
    orbit = built.points(max(indices.values()) + 1) if indices else []
    points = []
    for text in texts:
        if text not in indices:
            points.append(_parse_point(built, text))
        elif 0 <= indices[text] < len(orbit):
            points.append(orbit[indices[text]])
        else:
            raise ConfigError(f"point index {text} out of range")
    return points


def _parse_point(built: Built, text: str) -> Point:
    try:
        point = built.coerce(json.loads(text))
    except (TypeError, ValueError, RecursionError) as exc:  # json.JSONDecodeError, deep nesting
        raise ConfigError(f"point {text!r} is neither an index (#k) nor JSON of this space's point type") from exc
    if not _contains(built.space, point):
        raise ConfigError(f"point {text!r} is not in this space")
    return point


def _contains(space: Space, point) -> bool:
    """Membership of a point read from JSON: a list or object, being unhashable,
    is in no finite universe (whose ``contains`` raises TypeError on it)."""
    try:
        return space.universe.contains(point)
    except TypeError:
        return False


def _load_config(path_str: str) -> tuple[dict, Path]:
    path = Path(path_str)
    if not path.is_file():
        raise ConfigError(f"config file {path_str!r} not found")
    try:
        node = json.loads(path.read_text(), parse_float=Fraction)
    except (ValueError, RecursionError) as exc:  # json.JSONDecodeError, UnicodeDecodeError, deep nesting
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return node, path.parent


def _write_out(chunks: Iterable[str], out: str | None) -> None:
    """Write text chunks as they come, to the file ``out`` or to stdout.

    An ``out`` that cannot be opened is a ConfigError, raised before the first
    chunk is made.  When the reader of stdout closes the pipe early, writing
    stops and fd 1 is pointed at ``os.devnull``, so that the interpreter's last
    flush is quiet too; the command still exits as it would have.
    """
    if out:
        try:
            file = Path(out).open("w")
        except OSError as exc:
            raise ConfigError(f"cannot write --out {out!r}: {exc.strerror}") from exc
        with file:
            file.writelines(chunks)
        return
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def nonnegative(text: str) -> int:
    """A nonnegative integer flag value (a limit, radius, sample count or budget)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first call and shared by every later ``main``
    call in the process: parsing keeps no state in it, and no caller may change it."""
    parser = argparse.ArgumentParser(prog="labparts", description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_dist = sub.add_parser("dist", help="distance between two points")
    p_dist.add_argument("config")
    p_dist.add_argument("x")
    p_dist.add_argument("y")

    p_table = sub.add_parser("table", help="pairwise distance table (CSV)")
    p_table.add_argument("config")
    p_table.add_argument("--limit", type=nonnegative, default=12)
    p_table.add_argument("--out", default=None)

    p_growth = sub.add_parser("growth", help="orbital growth profile (CSV)")
    p_growth.add_argument("config")
    p_growth.add_argument("--radius", type=nonnegative, required=True)
    p_growth.add_argument("--out", default=None)
    p_growth.add_argument("--budget", type=nonnegative, default=200_000)

    p_check = sub.add_parser("check", help="run invariant suites")
    p_check.add_argument("config")
    p_check.add_argument("--suite", default="all", choices=["all", *SUITES])
    p_check.add_argument("--samples", type=nonnegative, default=100)
    p_check.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                         help="seed for sampled checks (default: the top-level --seed)")
    p_check.add_argument("--out", default=None)

    p_export = sub.add_parser("export", help="dump labels or vectors")
    p_export.add_argument("config")
    p_export.add_argument("--what", required=True, choices=["labels", "vectors"])
    p_export.add_argument("--limit", type=nonnegative, default=8)
    p_export.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        node, base_dir = _load_config(args.config)
        built = build_space(node, base_dir)

        if args.command == "dist":
            x, y = _parse_points(built, [args.x, args.y])
            energy = pair_energy(built.space, x, y)
            print(f"energy {rational_str(energy)}")
            print(f"dist {energy_to_dist(built.space.norm, energy):.12g}")
            return 0

        if args.command == "table":
            listed, energies = energy_table(built, args.limit)
            _write_out(table_csv(listed, energies, built.space.norm), args.out)
            return 0

        if args.command == "growth":
            profile = growth_profile(built, args.radius, budget=args.budget)
            _write_out([profile_csv(profile)], args.out)
            return 0

        if args.command == "check":
            suites = SUITES if args.suite == "all" else [args.suite]
            result = run_checks(built, suites, args.samples, args.seed)
            # a suite that does not apply yields no report: one named on its own must apply
            if not result["suites"]:
                raise ConfigError(f"check --suite {args.suite} does not apply to this config")
            _write_out([json.dumps(json_ready(result), indent=2, sort_keys=True) + "\n"], args.out)
            return 0 if result["passed"] else 1

        # export, the one subcommand left: argparse requires one of the five
        listed = built.listing(args.limit)
        points = list(listed)
        # one oracle call per point: with x0 the first point, c(x, y) = c(x, x0) + c(x0, y)
        # (Chasles), so each pair's support lies in the union of the c(x, x0) supports
        to_x0 = [sep(built.space, x, points[0]) for x in points]
        if args.what == "vectors":
            names = [repr(x) for x in points]
            from_x0 = [-v for v in to_x0]
            # labels recur across pairs; values are not memoised, as hashing a Fraction costs
            # more than formatting it
            key = functools.cache(label_key)
            # each pair's vector is summed as its entry is written: arithmetic only, after every oracle call
            entries = (
                {
                    "x": names[i],
                    "y": names[j],
                    "vector": {key(l): rational_str(v) for l, v in (vec + from_x0[j]).items()},
                }
                for i, vec in enumerate(to_x0)
                for j in range(i + 1, len(points))
            )
        else:
            labels = {}
            for vec in to_x0:
                for label in vec.support():
                    labels[label_key(label)] = rational_str(built.space.norm.weight(label))
            entries = ({"label": k, "weight": labels[k]} for k in sorted(labels))
        _write_out(json_chunks(entries), args.out)
        if listed.note:
            print(listed.note, file=sys.stderr)  # stderr keeps the JSON on stdout as it was
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
