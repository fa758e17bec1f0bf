"""Config-driven pipeline and command line interface.

A space is described by a JSON document with a tree of construction nodes;
``build_space`` dispatches on the node kind and returns the space together
with its actions and a deterministic point enumeration.  Subcommands:

* ``dist <config> <x> <y>``: pseudo-distance between two points;
* ``table <config> [--limit N]``: pairwise energy/distance table as CSV;
* ``growth <config> --radius R [--out f.csv]``: orbital growth profile over
  word spheres (exact minimum energies, float distance columns);
* ``check <config> [--suite all|metric|equivariance|amalgam]``: invariant
  suites, machine-readable JSON report;
* ``export <config> --what labels|vectors``: label or vector dumps.

Exit codes: 0 success, 1 check failure, 2 configuration error.  All
randomness is seeded (``--seed``, default 0); rationals are serialized as
"num/den" strings; outputs are sorted in canonical element order, so
identical configs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from . import amalgam as amalgam_mod
from . import constructions as cons
from . import examples as ex
from . import walls as walls_mod
from .core import (
    ZERO_VEC,
    Action,
    CheckReport,
    Point,
    check_equivariance,
    check_pseudo_metric,
    energy_to_dist,
    label_key,
    pair_energy,
    q_energy,
    sep,
    unit_weight,
)
from .groups import (
    AmalgamGroup,
    DirectSumGroup,
    FiniteGroup,
    ProductGroup,
    ZGroup,
    ball_enumerate,
    infinite_dihedral,
    spheres,
)

KINDS = (
    "naive",
    "weighted_naive",
    "walls_zn",
    "walls_custom",
    "metric_linf",
    "pullback",
    "product",
    "proper_sum",
    "semidirect",
    "quotient_average",
    "wreath_glue",
    "amalgam",
    "free_tree_mineyev",
    "cocycle",
)


class ConfigError(ValueError):
    """Schema violation, missing file or invalid parameter in a config node."""


@dataclass
class Built:
    """A constructed space with its actions and deterministic enumeration.

    ``orbit`` means the listed points are the orbit of ``basepoint`` under
    ``actions["main"]``.
    """

    space: Space
    actions: dict = field(default_factory=dict)
    basepoint: Any = None
    group: Any = None
    coerce: Callable[[Any], Point] = lambda v: v
    orbit: bool = False
    extras: dict = field(default_factory=dict)

    def points(self, limit: int) -> list:
        """The first ``limit`` distinct points: the orbit (see
        ``orbit_elements``); else the finite universe; else seeded samples."""
        if self.orbit:
            return list(self.orbit_elements(limit))
        if self.space.universe.points is not None:
            return list(self.space.universe.points)[:limit]
        samples = self.space.universe.sample(random.Random(0), 4 * limit)
        return list(dict.fromkeys(samples))[:limit]

    def orbit_elements(self, limit: int) -> dict:
        """The first ``limit`` distinct orbit points, sphere by sphere with no
        radius cap (it ends early only when a finite group's spheres run out),
        each mapped to the first group element that moved the basepoint there."""
        action = self.actions["main"]
        out: dict = {}
        if limit > 0:
            for sphere in spheres(action.group):
                for g in sphere:
                    out.setdefault(action.point_map(g, self.basepoint), g)
                    if len(out) == limit:
                        return out
        return out


def _require(node: dict, key: str, path: str):
    if key not in node:
        raise ConfigError(f"{path}: missing required key {key!r}")
    return node[key]


def _load_group(value, base_dir: Path, path: str) -> FiniteGroup:
    if isinstance(value, str):
        file = base_dir / value
        if not file.is_file():
            raise ConfigError(f"{path}: group table file {value!r} not found")
        return FiniteGroup.load(file)
    if isinstance(value, dict) and value.get("cyclic"):
        return FiniteGroup.cyclic(int(value["cyclic"]))
    if isinstance(value, dict) and value.get("symmetric"):
        return FiniteGroup.symmetric(int(value["symmetric"]))
    raise ConfigError(f"{path}: group must be a table file or {{'cyclic': n}} / {{'symmetric': n}}")


def build_space(node: dict, base_dir: Path, path: str = "root") -> Built:
    """Build a space (plus actions) from a configuration node."""
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: node must be an object")
    kind = _require(node, "kind", path)
    if kind not in KINDS:
        raise ConfigError(f"{path}: unknown kind {kind!r}")
    builder = _BUILDERS[kind]
    try:
        return builder(node, base_dir, path)
    except ConfigError:
        raise
    except (ValueError, TypeError, ZeroDivisionError) as exc:  # InvalidInput, DomainError, "1/0"
        raise ConfigError(f"{path}: {exc}") from exc


def _integer(value) -> int:
    """A JSON integer point coordinate; floats and booleans are rejected, not truncated."""
    if type(value) is not int:
        raise ConfigError(f"{value!r} is not an integer")
    return value


def _build_naive(node, base_dir, path):
    q = _require(node, "q", path)
    if "group" in node:
        group = _load_group(node["group"], base_dir, path)
        space, action = cons.group_naive_space(group, q, node.get("weight", 1))
        return Built(space, {"main": action}, basepoint=group.identity, group=group, coerce=_integer)
    n = int(_require(node, "points", path))
    space = cons.weighted_naive_space(range(n), node.get("weight", 1), q)
    return Built(space, {}, basepoint=0, coerce=_integer)


def _build_walls_zn(node, base_dir, path):
    q = _require(node, "q", path)
    dim = int(_require(node, "dim", path))
    extent = int(node.get("extent", 8))
    walls = walls_mod.zn_half_space_walls(dim, window=extent)
    space = walls_mod.walls_to_labelled(walls, q)
    group = ProductGroup([ZGroup()] * dim)

    def point_map(t, x):
        return tuple(xi + ti for xi, ti in zip(x, t))

    def label_map(t, label):
        (tag, (axis, k)) = label[0]
        return walls_mod.wall((axis, k - t[axis])), 1

    action = Action(group=group, point_map=point_map, label_map=label_map)
    basepoint = (0,) * dim

    def coerce(v):
        if isinstance(v, list):
            return tuple(_integer(c) for c in v)
        if dim == 1:
            return (_integer(v),)
        raise ConfigError(f"{path}: walls_zn points are integer vectors")

    return Built(space, {"main": action}, basepoint=basepoint, group=group, coerce=coerce, orbit=True)


def _build_walls_custom(node, base_dir, path):
    q = _require(node, "q", path)
    file = base_dir / _require(node, "file", path)
    if not file.is_file():
        raise ConfigError(f"{path}: walls file {str(file)!r} not found")
    walls = walls_mod.custom_walls_load(file)
    space = walls_mod.walls_to_labelled(walls, q)
    return Built(space, {}, basepoint=walls.universe.points[0], coerce=str)


def _build_metric(node, base_dir, path):
    if "file" in node:
        file = base_dir / node["file"]
        if not file.is_file():
            raise ConfigError(f"{path}: metric file {str(file)!r} not found")
        metric = ex.metric_from_csv(file)
    else:
        points = tuple(_require(node, "points", path))
        matrix = tuple(tuple(Fraction(v) for v in row) for row in _require(node, "matrix", path))
        metric = ex.FiniteMetric(points, matrix)
    space = ex.metric_realization_space(metric)
    return Built(space, {}, basepoint=metric.points[0], coerce=str)


def _build_pullback(node, base_dir, path):
    inner = build_space(_require(node, "inner", path), base_dir, f"{path}.inner")
    spec = _require(node, "map", path)
    mtype = _require(spec, "type", f"{path}.map")
    if mtype == "identity":
        f = lambda y: y
    elif mtype == "constant":
        target = inner.coerce(_require(spec, "value", f"{path}.map"))
        f = lambda y: target
    elif mtype == "scale":
        c = int(_require(spec, "factor", f"{path}.map"))

        def f(y):
            if isinstance(y, tuple):
                return tuple(c * v for v in y)
            return c * y

    else:
        raise ConfigError(f"{path}.map: unknown map type {mtype!r}")
    space = cons.pullback(f, inner.space, inner.space.universe, description=f"pullback({mtype})")
    return Built(space, {}, basepoint=inner.basepoint, coerce=inner.coerce)


def _build_product(node, base_dir, path):
    q = _require(node, "q", path)
    factor_nodes = _require(node, "factors", path)
    if not isinstance(factor_nodes, list) or not factor_nodes:
        raise ConfigError(f"{path}: factors must be a nonempty list")
    builts = [build_space(f, base_dir, f"{path}.factors[{i}]") for i, f in enumerate(factor_nodes)]
    actions = {}
    if all("main" in b.actions for b in builts):
        space, action = cons.product_action([b.space for b in builts], [b.actions["main"] for b in builts], q)
        actions["main"] = action
        group = action.group
    else:
        space = cons.product_space([b.space for b in builts], q)
        group = None

    def coerce(v):
        if not isinstance(v, list) or len(v) != len(builts):
            raise ConfigError(f"{path}: product points are lists with one entry per factor")
        return tuple(b.coerce(c) for b, c in zip(builts, v))

    return Built(space, actions, basepoint=tuple(b.basepoint for b in builts), group=group, coerce=coerce)


def _phi_from_spec(spec, window, path):
    if spec in (None, "rank"):
        ranks = {i: r for r, i in enumerate(window)}
        return lambda i: Fraction(1 + ranks[i])
    if spec == "one_plus_abs":
        return lambda i: Fraction(1 + abs(i))
    if isinstance(spec, list):
        if len(spec) != len(window):
            raise ConfigError(f"{path}: phi needs one value per window index, got {spec!r}")
        table = {i: Fraction(str(v)) for i, v in zip(window, spec)}
        if any(v < 0 for v in table.values()):
            raise ConfigError(f"{path}: phi values must be nonnegative, got {spec!r}")
        return lambda i: table[i]
    raise ConfigError(f"{path}: phi must be 'rank', 'one_plus_abs' or a list, got {spec!r}")


def _build_proper_sum(node, base_dir, path):
    q = _require(node, "q", path)
    window = [int(v) for v in _require(node, "window", path)]
    factor_group = FiniteGroup.cyclic(int(node.get("factor_cyclic", 2)))
    group = DirectSumGroup(factor_group, window)
    phi = _phi_from_spec(node.get("phi"), window, path)
    factor_space, factor_action = cons.group_naive_space(factor_group, q)
    factors = cons.SumFactors(
        factor_at=lambda i: factor_space,
        basepoint_at=lambda i: factor_group.identity,
        action_at=lambda i: factor_action,
    )
    space, action = cons.proper_sum_space(factors, group, q, phi)
    basepoint = cons.proper_sum_basepoint(group)
    return Built(space, {"main": action}, basepoint=basepoint, group=group, orbit=True)


def _build_semidirect(node, base_dir, path):
    q = _require(node, "q", path)
    preset = node.get("preset", "infinite_dihedral")
    if preset != "infinite_dihedral":
        raise ConfigError(f"{path}: the only built-in semidirect preset is 'infinite_dihedral'")
    return infinite_dihedral_built(q)


def infinite_dihedral_built(q) -> Built:
    """The infinite dihedral group acting on (integer-line walls) x (naive Z/2)."""
    space1, action1 = walls_mod.z_line_walls_space(q)
    flip_group = FiniteGroup.cyclic(2, name="Z2")
    space2, action2 = cons.group_naive_space(flip_group, q)
    group = infinite_dihedral()

    def twist_point(s, x):
        return (-x[0],) if s == 1 else x

    def twist_label(s, label):
        (tag, (axis, k)) = label[0]
        if s == 1:
            return walls_mod.wall((axis, -k - 1)), -1
        return label, 1

    twist_action = Action(group=flip_group, point_map=twist_point, label_map=twist_label)
    data = cons.SemidirectData(
        space1=space1,
        action1=action1,
        space2=space2,
        action2=action2,
        twist_action=twist_action,
        group=group,
    )
    space, action = cons.semidirect_space(data, q)
    return Built(space, {"main": action}, basepoint=((0,), 0), group=group, orbit=True)


def _build_quotient_average(node, base_dir, path):
    q = _require(node, "q", path)
    group = _load_group(_require(node, "group", path), base_dir, path)
    subgroup = tuple(int(v) for v in _require(node, "subgroup", path))
    structure = node.get("structure", "naive")
    if structure == "naive":
        inner_space, inner_action = cons.group_naive_space(group, q)
    elif isinstance(structure, dict) and structure.get("kind") == "walls_cosets":
        subgroups = [tuple(int(v) for v in s) for s in _require(structure, "subgroups", f"{path}.structure")]
        walls = walls_mod.coset_walls(group, subgroups)
        inner_space = walls_mod.walls_to_labelled(walls, q)
        inner_action = walls_mod.coset_walls_action(group, walls, subgroups)
    else:
        raise ConfigError(f"{path}: structure must be 'naive' or a walls_cosets object")
    space, action = cons.quotient_average(inner_space, group, subgroup, inner_action)
    return Built(space, {"main": action}, basepoint=space.universe.points[0], group=group, coerce=_integer)


def toy_wreath_walls(group_g: FiniteGroup, subgroup_l, factor: FiniteGroup) -> tuple:
    """A concrete atomic walls structure on W x I for the wreath gluing.

    I is the coset space G/L; W the restricted sum of copies of the lamp
    factor over I.  Walls: per index j, the support wall {(w, i) : w_j != e}
    and the position wall {(w, i) : i = j}, all of weight 1.  Both families
    are permuted by the lamp translations and the shifter, with sign flips
    exactly when a lamp translation crosses a support wall.
    """
    from .groups import coset_table as _coset_table

    cosets = _coset_table(group_g, subgroup_l)
    index_set = cosets.reps
    group_w = DirectSumGroup(factor, index_set)

    def shift(g, i):
        return cosets.rep_of[group_g.mul(g, i)]

    def contains(p) -> bool:
        if not (isinstance(p, tuple) and len(p) == 2):
            return False
        w, i = p
        return i in index_set and isinstance(w, tuple)

    def sampler(rng: random.Random):
        k = rng.randrange(0, 3)
        idx = rng.sample(list(index_set), min(k, len(index_set)))
        hs = [x for x in factor.elements() if x != factor.identity]
        w = tuple(sorted((i, rng.choice(hs)) for i in idx))
        return (w, index_set[rng.randrange(len(index_set))])

    def member(h, p) -> bool:
        w, i = p
        tag, j = h
        if tag == "supp":
            return group_w.component(w, j) != factor.identity
        return i == j

    wall_ids = [("supp", j) for j in index_set] + [("pos", j) for j in index_set]

    def separating(p, pb):
        return [h for h in wall_ids if member(h, p) != member(h, pb)]

    walls = walls_mod.MeasuredWalls(
        universe=walls_mod.PointUniverse(contains=contains, sampler=sampler),
        weight=unit_weight,
        member=member,
        separating=separating,
        description="toy wreath walls (support + position)",
    )

    def label_map_w(w, label):
        # order-2 lamps only: translating by a nontrivial w_j swaps the two
        # sides of the support wall at j, flipping the indicator difference
        (tag, (family, j)) = label[0]
        if family == "supp" and group_w.component(w, j) != factor.identity:
            return walls_mod.wall(("supp", j)), -1
        return label, 1

    def label_map_g(g, label):
        (tag, (family, j)) = label[0]
        return walls_mod.wall((family, shift(group_g.inv(g), j))), 1

    return walls, label_map_w, label_map_g, group_w, shift, cosets


def _build_wreath_glue(node, base_dir, path):
    q = _require(node, "q", path)
    group_g = _load_group(_require(node, "group", path), base_dir, path)
    subgroup_l = tuple(int(v) for v in node.get("co_subgroup", [group_g.identity]))
    factor = FiniteGroup.cyclic(int(node.get("factor_cyclic", 2)))
    if factor.size != 2:
        raise ConfigError(f"{path}: the built-in walls provider supports order-2 lamps only")
    walls, lm_w, lm_g, group_w, shift, cosets = toy_wreath_walls(group_g, subgroup_l, factor)
    factor_space, factor_action = cons.group_naive_space(factor, q)
    wreath = cons.WreathWalls(walls=walls, label_map_w=lm_w, label_map_g=lm_g)
    space, action_w, action_g = cons.wreath_glue(wreath, factor_space, factor_action, group_w, group_g, shift, q)
    i0 = cosets.reps[0]
    basepoint = (((), i0), ())
    return Built(space, {"main": action_w, "shift": action_g}, basepoint=basepoint, group=group_w, orbit=True)


def _build_amalgam(node, base_dir, path):
    q = _require(node, "q", path)
    left = _load_group(_require(node, "left", path), base_dir, path)
    right = _load_group(_require(node, "right", path), base_dir, path)
    common_spec = _require(node, "common", path)
    if not (isinstance(common_spec, dict) and "left" in common_spec and "right" in common_spec):
        raise ConfigError(f"{path}: common must be {{'left': [...], 'right': [...]}}")
    if "table" in common_spec:
        common = _load_group(common_spec["table"], base_dir, path)
    else:
        common = FiniteGroup.cyclic(len(common_spec["left"]))
    group = AmalgamGroup(
        left,
        right,
        common,
        tuple(int(v) for v in common_spec["left"]),
        tuple(int(v) for v in common_spec["right"]),
    )
    factors = node.get("factors", "naive")
    if factors != "naive":
        raise ConfigError(f"{path}: only 'naive' quotient factors are built in")
    tree = amalgam_mod.TreeOfCosetSpaces(group)
    sgc, agc, shc, ahc = amalgam_mod.naive_quotient_structures(tree, q)
    space, action = amalgam_mod.amalgam_space(tree, sgc, agc, shc, ahc, q)
    return Built(space, {"main": action}, basepoint=tree.base_point, group=group, orbit=True,
                 extras={"tree": tree, "struct_gc": sgc, "struct_hc": shc})


def _build_free_tree(node, base_dir, path):
    q = _require(node, "q", path)
    rank = int(_require(node, "rank", path))
    radius = int(node.get("radius", 4))
    space, action, free = ex.free_tree_space(rank, q, sample_radius=radius)

    def coerce(v):
        if isinstance(v, list):
            return tuple(v)
        raise ConfigError(f"{path}: free_tree_mineyev points are lists of signed generator indices")

    return Built(space, {"main": action}, basepoint=free.identity, group=free, coerce=coerce, orbit=True)


def _build_cocycle(node, base_dir, path):
    group_spec = _require(node, "group", path)
    group = ZGroup() if group_spec == "Z" else _load_group(group_spec, base_dir, path)
    file = base_dir / _require(node, "file", path)
    if not file.is_file():
        raise ConfigError(f"{path}: cocycle file {str(file)!r} not found")
    radius = int(node.get("radius", 6))
    action_data = ex.cocycle_from_text(file, group, radius)
    space, action = ex.cocycle_space(action_data, point_radius=max(1, radius - 2))
    return Built(space, {"main": action}, basepoint=group.identity, group=group)


_BUILDERS = {
    "naive": _build_naive,
    "weighted_naive": _build_naive,
    "walls_zn": _build_walls_zn,
    "walls_custom": _build_walls_custom,
    "metric_linf": _build_metric,
    "pullback": _build_pullback,
    "product": _build_product,
    "proper_sum": _build_proper_sum,
    "semidirect": _build_semidirect,
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
    if isinstance(obj, (list, tuple)):
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


# ---------------------------------------------------------------------------
# profiles and check suites


def growth_profile(built: Built, radius: int, budget: int = 200_000, generators=None) -> dict:
    """Per-sphere orbital statistics of the main action: exact min/max
    energies, float distances.  Spheres are word spheres over ``generators``
    (default: the group's own generating set).

    The main action is taken to be by automorphisms (``check --suite
    equivariance`` samples this), hence by isometries: d(g x0, x0) =
    d(x0, g^-1 x0).  A word sphere over symmetrised generators is closed
    under inversion, so the energy of g is kept for g^-1 and read off when
    the sphere reaches it; each pair {g, g^-1} costs one oracle call.

    Raises ConfigError when no action is attached; flags the profile as
    partial when the enumeration budget is hit.  A finite group's spheres
    are empty past its diameter, so the profile then ends at the last
    nonempty sphere and records that radius as ``reached``.
    """
    if "main" not in built.actions:
        raise ConfigError("growth profiles need a space built with a group action")
    action = built.actions["main"]
    group = action.group
    shells = list(itertools.islice(spheres(group, generators), radius + 1))
    partial = sum(len(s) for s in shells) > budget
    rows = []
    consumed = 0
    for r, sphere in enumerate(shells):
        if consumed >= budget:
            break
        sphere = sphere[: budget - consumed]
        consumed += len(sphere)
        energies = []
        of_inverse: dict = {}
        for g in sphere:
            e = of_inverse.pop(g, None)
            if e is None:
                e = pair_energy(built.space, action.point_map(g, built.basepoint), built.basepoint)
                g_inv = group.inv(g)
                if g_inv != g:
                    of_inverse[g_inv] = e
            energies.append(e)
        dists = [energy_to_dist(built.space.norm, e) for e in energies]
        rows.append(
            {
                "radius": r,
                "sphere_size": len(sphere),
                "min_energy": min(energies),
                "max_energy": max(energies),
                "min_dist": min(dists),
                "max_dist": max(dists),
                "mean_dist": sum(dists) / len(dists),
            }
        )
    return {"rows": rows, "partial": partial, "radius": radius, "reached": len(shells) - 1}


def energy_table(built: Built, limit: int) -> tuple[list, list[list]]:
    """The first ``limit`` points and the matrix of their pair energies.

    Energies are symmetric (c(y, x) = -c(x, y)), so each unordered pair is
    computed once and mirrored.  On an orbit node the main action is taken to
    be by automorphisms (``check --suite equivariance`` samples this), hence
    by isometries: d(g x0, h x0) = d(x0, g^-1 h x0).  So an energy is cached
    under the element g^-1 h and its inverse h^-1 g, and read off for every
    later pair with either element.  Elsewhere the diagonal is the energy of
    the zero vector.
    """
    space = built.space
    if not built.orbit:
        points = built.points(limit)
        zero = q_energy(space.norm, ZERO_VEC)
        rows = [[zero] * len(points) for _ in points]
        for i, x in enumerate(points):
            for j in range(i + 1, len(points)):
                rows[i][j] = rows[j][i] = pair_energy(space, x, points[j])
        return points, rows
    reached = built.orbit_elements(limit)
    points, elements = list(reached), list(reached.values())
    group = built.actions["main"].group
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
    return points, rows


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


def run_checks(built: Built, suites, samples: int, seed: int, amalgam_tree_term: str = "linear") -> dict:
    """Aggregate invariant checks; the report carries exact counterexamples."""
    rng = random.Random(seed)
    reports = []

    if "metric" in suites:
        triples = []
        for _ in range(samples):
            x, y, z = built.space.universe.sample(rng, 3)
            triples.append((x, y, z))
        reports.append(check_pseudo_metric(built.space, triples))

    if "equivariance" in suites:
        for name, action in sorted(built.actions.items()):
            group_samples = [g for g, _ in ball_enumerate(action.group, 2)]
            trips = []
            for _ in range(samples):
                g = group_samples[rng.randrange(len(group_samples))]
                x, y = built.space.universe.sample(rng, 2)
                trips.append((g, x, y))
            report = check_equivariance(built.space, action, trips)
            report.name = f"equivariance[{name}]"
            reports.append(report)

    if "amalgam" in suites and "tree" in built.extras:
        tree = built.extras["tree"]
        sgc = built.extras["struct_gc"]
        shc = built.extras["struct_hc"]
        q = built.space.norm.q
        report = CheckReport(f"amalgam-formula[{amalgam_tree_term}]")
        for gamma, _ in ball_enumerate(tree.am, 4):
            moved = tree.act_point(gamma, tree.base_point)
            oracle = pair_energy(built.space, moved, tree.base_point)
            formula = amalgam_mod.amalgam_energy_formula(tree, sgc, shc, q, gamma, tree_term=amalgam_tree_term)
            ok = oracle == formula and oracle >= amalgam_mod.syllable_lower_bound(gamma)
            report.record(ok, None if ok else {"word": gamma, "oracle": oracle, "formula": formula})
        reports.append(report)

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
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"point {text!r} is neither an index (#k) nor JSON") from exc
    try:
        point = built.coerce(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"point {text!r} does not have this space's point type") from exc
    if not built.space.universe.contains(point):
        raise ConfigError(f"point {text!r} is not in this space")
    return point


def _load_config(path_str: str) -> tuple[dict, Path]:
    path = Path(path_str)
    if not path.is_file():
        raise ConfigError(f"config file {path_str!r} not found")
    try:
        node = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return node, path.parent


def _write_out(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def nonnegative(text: str) -> int:
    """A nonnegative integer flag value (a limit, radius, sample count or budget)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def main(argv=None) -> int:
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
    p_table.add_argument("--radius", type=nonnegative, default=None, help="alias: enumerate about this many orbit points")
    p_table.add_argument("--out", default=None)

    p_growth = sub.add_parser("growth", help="orbital growth profile (CSV)")
    p_growth.add_argument("config")
    p_growth.add_argument("--radius", type=nonnegative, required=True)
    p_growth.add_argument("--out", default=None)
    p_growth.add_argument("--budget", type=nonnegative, default=200_000)

    p_check = sub.add_parser("check", help="run invariant suites")
    p_check.add_argument("config")
    p_check.add_argument("--suite", default="all", choices=["all", "metric", "equivariance", "amalgam"])
    p_check.add_argument("--samples", type=nonnegative, default=100)
    p_check.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                         help="seed for sampled checks (default: the top-level --seed)")
    p_check.add_argument("--out", default=None)
    p_check.add_argument("--amalgam-tree-term", default="linear", choices=["linear", "power"])

    p_export = sub.add_parser("export", help="dump labels or vectors")
    p_export.add_argument("config")
    p_export.add_argument("--what", required=True, choices=["labels", "vectors"])
    p_export.add_argument("--limit", type=nonnegative, default=8)
    p_export.add_argument("--out", default=None)

    args = parser.parse_args(argv)

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
            limit = args.limit if args.radius is None else max(args.limit, 2 * args.radius + 1)
            points, energies = energy_table(built, limit)
            names = [f"\"{p!r}\"" for p in points]
            texts: dict = {}  # energy -> its "energy,dist" cells
            lines = ["x,y,energy,dist"]
            for x, row in zip(names, energies):
                for y, e in zip(names, row):
                    text = texts.get(e)
                    if text is None:
                        text = texts[e] = f"{rational_str(e)},{energy_to_dist(built.space.norm, e):.12g}"
                    lines.append(f"{x},{y},{text}")
            _write_out("\n".join(lines) + "\n", args.out)
            return 0

        if args.command == "growth":
            profile = growth_profile(built, args.radius, budget=args.budget)
            _write_out(profile_csv(profile), args.out)
            return 0

        if args.command == "check":
            suites = ["metric", "equivariance", "amalgam"] if args.suite == "all" else [args.suite]
            result = run_checks(built, suites, args.samples, args.seed, args.amalgam_tree_term)
            text = json.dumps(json_ready(result), indent=2, sort_keys=True) + "\n"
            _write_out(text, args.out)
            return 0 if result["passed"] else 1

        if args.command == "export":
            points = built.points(args.limit)
            if args.what == "vectors":
                payload = []
                for i, x in enumerate(points):
                    for y in points[i + 1 :]:
                        vec = sep(built.space, x, y)
                        payload.append(
                            {
                                "x": repr(x),
                                "y": repr(y),
                                "vector": {label_key(l): rational_str(v) for l, v in sorted(vec.items(), key=lambda kv: label_key(kv[0]))},
                            }
                        )
            else:
                labels = {}
                for i, x in enumerate(points):
                    for y in points[i + 1 :]:
                        for label in sep(built.space, x, y).support():
                            labels[label_key(label)] = rational_str(built.space.norm.weight(label))
                payload = [{"label": k, "weight": labels[k]} for k in sorted(labels)]
            _write_out(json.dumps(json_ready(payload), indent=2, sort_keys=True) + "\n", args.out)
            return 0

        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
