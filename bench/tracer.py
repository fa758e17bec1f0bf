"""In-memory span tracer that wraps labparts from the outside.

``install`` replaces the public functions of each module, chosen class
methods, and the ``diff``/``label_map`` of the spaces and actions that the
public constructors return with timing wrappers.  Nothing in ``labparts``
is edited: module attributes are rebound, including every copy a module
made with ``from .core import ...``, so no call escapes the trace.

A span records its name, start, end, parent span and the index of the CLI
command it ran under.  Spans stay in memory until ``write_spans``;
``aggregate`` derives each name's call count, self time (duration minus the
child spans) and total time (outermost spans only).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
from array import array
from time import perf_counter

# (metric, span name, statistic, unit); statistics are described in ``metrics``
PER_LAYER: list[tuple[str, str, str, str]] = []


def _layer(prefix: str, span: str, stats: str, unit_of=None) -> None:
    units = {"calls": "count", "self_s": "s", "total_s": "s"}
    for stat in stats.split(","):
        PER_LAYER.append((f"{prefix}.{stat}", span, stat, units.get(stat, unit_of or "ratio")))


_layer("cli.build_space", "cli.build_space", "total_s")
_layer("groups.FiniteGroup.init", "groups.FiniteGroup.init", "total_s")
_layer("cli.points", "cli.points", "total_s,useful_ratio")
PER_LAYER.append(("cli.self_s", "cli.main", "self_s", "s"))
_layer("core.q_energy", "core.q_energy", "calls,self_s,support_mean", "count")
_layer("core.SparseVec", "core.SparseVec", "calls,self_s,kept_ratio")
for _f in ("sep", "relabel"):
    _layer(f"core.{_f}", f"core.{_f}", "calls,self_s")
for _f in ("check_equivariance", "check_pseudo_metric"):
    _layer(f"core.{_f}", f"core.{_f}", "total_s")
for _f in ("mul", "inv", "prepend_letter"):
    _layer(f"groups.AmalgamGroup.{_f}", f"groups.AmalgamGroup.{_f}", "calls,self_s")
_layer("groups.FreeGroup.mul", "groups.FreeGroup.mul", "calls,self_s")
_layer("groups.ball_enumerate", "groups.ball_enumerate", "calls,total_s,useful_ratio")
TREE_METHODS = ("path_from_base", "vertex_path", "project", "side_point", "edge_between", "act_point",
                "contains_point")
for _f in TREE_METHODS:
    _layer(f"amalgam.{_f}", f"amalgam.{_f}", "calls,self_s")
_layer("amalgam.vertex_path", "amalgam.vertex_path", "path_len_mean", "count")
for _f in ("geodesic", "tree_neighbour"):
    _layer(f"examples.{_f}", f"examples.{_f}", "calls,self_s")

# public constructors whose returned spaces and actions are instrumented
CONSTRUCTORS = {
    "walls": ("walls_to_labelled",),
    "constructions": ("product_space", "direct_sum_space", "weighted_naive_sum_space", "weighted_naive_space",
                      "quotient_average", "semidirect_space", "wreath_glue"),
    "amalgam": ("vertex_induced_space", "tree_induced_space"),
    "examples": ("free_tree_space",),
}
# constructors whose returned actions carry label maps the workloads reach
_ACTIONS = ("weighted_naive_sum_space", "quotient_average", "semidirect_space", "wreath_glue", "free_tree_space")
for _c in (c for ctors in CONSTRUCTORS.values() for c in ctors):
    _layer(f"space.{_c}.diff", f"space.{_c}.diff", "calls,self_s,support_mean", "count")
for _c in _ACTIONS:
    _layer(f"action.{_c}.label_map", f"action.{_c}.label_map", "calls,self_s")
# per-node view: config stem plus config path, brackets turned into dots
NODES = ("amalgam_q2.root", "free_tree.root", "z2_walls.root", "proper_sum.root", "wreath.root",
         "product.root", "product.root.factors.0", "product.root.factors.1", "dihedral.root",
         "quotient_average.root", "z_walls.root")
for _n in NODES:
    _layer(f"node.{_n}.diff", f"node.{_n}.diff", "calls,self_s")


def _support(args, result):
    return len(result), 0


def node_name(config_stem: str, path: str) -> str:
    return f"node.{config_stem}.{path.replace('[', '.').replace(']', '')}.diff"


class Tracer:
    """Span store plus the wrappers that feed it; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.depth: list[int] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self.base = array("d")
        self.current = -1
        self.run_id = -1
        self.on = False
        self.config = ""
        self.point_map_calls = 0
        self.originals: list = []

    def span_id(self, name: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.depth.append(0)
        return sid

    def wrap(self, name: str, fn, measure=None):
        """``fn`` recording one span per call while tracing is on.

        ``measure(args, result)`` returns two numbers summed per name, the
        numerator and denominator of the name's mean or ratio statistic.
        """
        sid = self.span_id(name)
        tr, depth = self, self.depth
        name_of, parent, run, outer = self.name_of, self.parent, self.run, self.outer
        start, end, value, base = self.start, self.end, self.value, self.base

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            i = len(start)
            name_of.append(sid)
            parent.append(tr.current)
            run.append(tr.run_id)
            outer.append(depth[sid] == 0)
            end.append(0.0)
            value.append(0.0)
            base.append(0.0)
            depth[sid] += 1
            tr.current = i
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                depth[sid] -= 1
                tr.current = parent[i]
            if measure is not None:
                value[i], base[i] = measure(args, result)
            return result

        return traced

    def instrument(self, ctor: str, obj):
        """Wrap the diff of a returned Space and the label map of a returned Action."""
        from labparts.core import Action, Space

        if isinstance(obj, tuple):
            return tuple(self.instrument(ctor, o) for o in obj)
        if isinstance(obj, Space):
            return dataclasses.replace(obj, diff=self.wrap(f"space.{ctor}.diff", obj.diff, _support))
        if isinstance(obj, Action) and obj.label_map is not None:
            return dataclasses.replace(obj, label_map=self.wrap(f"action.{ctor}.label_map", obj.label_map))
        return obj

    def count_point_maps(self, fn):
        """``fn`` counting its calls made while the points enumeration runs."""
        points_id = self.span_id("cli.points")

        def counted(g, x):
            if self.on and self.depth[points_id]:
                self.point_map_calls += 1
            return fn(g, x)

        return counted

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        from labparts import amalgam, cli, constructions, core, examples, groups, walls  # noqa: F401

        modules = _labparts_modules()

        def rebind(orig, new):
            self.originals.append(orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, new)

        def function(module, attr, name, measure=None):
            orig = getattr(module, attr)
            rebind(orig, self.wrap(name, orig, measure))

        def method(cls, attr, name, measure=None):
            orig = cls.__dict__[attr]
            self.originals.append(orig)
            setattr(cls, attr, self.wrap(name, orig, measure))

        function(core, "q_energy", "core.q_energy", lambda args, result: (len(args[1]), 0))
        for attr in ("sep", "relabel", "check_equivariance", "check_pseudo_metric"):
            function(core, attr, f"core.{attr}")
        self._install_sparse_vec(core.SparseVec, method)

        method(groups.FiniteGroup, "__init__", "groups.FiniteGroup.init")
        for attr in ("mul", "inv", "prepend_letter"):
            method(groups.AmalgamGroup, attr, f"groups.AmalgamGroup.{attr}")
        method(groups.FreeGroup, "mul", "groups.FreeGroup.mul")
        function(groups, "ball_enumerate", "groups.ball_enumerate", _ball_counts)

        for attr in TREE_METHODS:
            measure = (lambda args, result: (len(result), 0)) if attr == "vertex_path" else None
            method(amalgam.TreeOfCosetSpaces, attr, f"amalgam.{attr}", measure)
        for attr in ("geodesic", "tree_neighbour"):
            function(examples, attr, f"examples.{attr}")

        for module, ctors in CONSTRUCTORS.items():
            for ctor in ctors:
                orig = getattr(sys.modules[f"labparts.{module}"], ctor)
                rebind(orig, functools.wraps(orig)(functools.partial(self._construct, ctor, orig)))

        self._install_cli(cli, rebind)

    def _construct(self, ctor, orig, *args, **kwargs):
        return self.instrument(ctor, orig(*args, **kwargs))

    def _install_sparse_vec(self, cls, method) -> None:
        init = cls.__dict__["__init__"]
        offered = [0]

        def counted_init(vec, entries=()):
            items = list(entries.items() if isinstance(entries, dict) else entries)
            init(vec, items)
            offered[0] = len(items)

        # __sub__ and __neg__ delegate to __add__ and scaled, so they are not spans
        self.originals.append(init)
        cls.__init__ = self.wrap("core.SparseVec", functools.wraps(init)(counted_init),
                                 lambda args, result: (len(args[0]), offered[0]))
        method(cls, "__add__", "core.SparseVec", lambda args, result: (len(result), len(args[0]) + len(args[1])))
        method(cls, "scaled", "core.SparseVec", lambda args, result: (len(result), len(args[0])))
        method(cls, "__eq__", "core.SparseVec")

    def _install_cli(self, cli, rebind) -> None:
        build = cli.build_space

        def build_space(node, base_dir, path="root"):
            built = build(node, base_dir, path)
            built.space = dataclasses.replace(
                built.space, diff=self.wrap(node_name(self.config, path), built.space.diff))
            if path == "root":
                built.actions = {k: dataclasses.replace(a, point_map=self.count_point_maps(a.point_map))
                                 for k, a in built.actions.items()}
            return built

        rebind(build, self.wrap("cli.build_space", functools.wraps(build)(build_space)))

        points = cli.Built.__dict__["points"]
        attempts = [0]

        def counted_points(built, limit):
            before = self.point_map_calls
            out = points(built, limit)
            attempts[0] = self.point_map_calls - before
            return out

        self.originals.append(points)
        cli.Built.points = self.wrap("cli.points", functools.wraps(points)(counted_points),
                                     lambda args, result: (len(result), attempts[0]))
        rebind(cli.main, self.wrap("cli.main", cli.main))

    def escapes(self) -> list[str]:
        """Module attributes and class members still bound to an unwrapped original."""
        originals = {id(f) for f in self.originals}
        out = []
        for m in _labparts_modules():
            for key, value in vars(m).items():
                if id(value) in originals:
                    out.append(f"{m.__name__}.{key}")
                if isinstance(value, type) and value.__module__ == m.__name__:
                    out.extend(f"{m.__name__}.{key}.{k}" for k, v in vars(value).items() if id(v) in originals)
        return out

    # -- results -------------------------------------------------------------------

    def aggregate(self) -> dict[str, dict]:
        """Per span name: calls, self_s, total_s and the summed measures."""
        n = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        stats = [{"calls": 0, "self_s": 0.0, "total_s": 0.0, "value": 0.0, "base": 0.0} for _ in self.names]
        for i in range(n):
            s = stats[self.name_of[i]]
            dur = end[i] - start[i]
            s["calls"] += 1
            s["self_s"] += dur - child[i]
            if self.outer[i]:
                s["total_s"] += dur
            s["value"] += self.value[i]
            s["base"] += self.base[i]
        return {name: s for name, s in zip(self.names, stats) if s["calls"]}

    def write_spans(self, path) -> None:
        """Write all spans: one JSON header line, then the raw columns in the
        order and array typecodes the header lists."""
        columns = [("run", self.run), ("name", self.name_of), ("parent", self.parent), ("outer", self.outer),
                   ("start", self.start), ("end", self.end)]
        header = {"count": len(self.start), "names": self.names,
                  "columns": [[name, column.typecode] for name, column in columns]}
        with open(path, "wb") as f:
            f.write((json.dumps(header) + "\n").encode())
            for _, column in columns:
                column.tofile(f)


def metrics(stats: dict[str, dict]) -> dict[str, float]:
    """The PER_LAYER metrics from aggregated stats; 0 where a span never ran.

    ``calls``, ``self_s`` and ``total_s`` are read directly; a ``*_mean`` is
    the summed measure per call and a ``*_ratio`` the summed measure over its
    summed base (kept / offered entries, new elements / products formed,
    distinct points kept / point_map calls).
    """
    out = {}
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "value": 0.0, "base": 0.0}
    for metric, span, stat, _ in PER_LAYER:
        s = stats.get(span, empty)
        if stat in ("calls", "self_s", "total_s"):
            out[metric] = s[stat]
        elif stat.endswith("_mean"):
            out[metric] = s["value"] / s["calls"] if s["calls"] else 0.0
        else:
            out[metric] = s["value"] / s["base"] if s["base"] else 0.0
    return out


def _ball_counts(args, result):
    """New elements found and products formed by one ``ball_enumerate``."""
    group, radius = args[0], args[1]
    generators = args[2] if len(args) > 2 and args[2] is not None else group.generators
    per_length = [0] * (radius + 1)
    for _, length in result:
        per_length[length] += 1
    products = 2 * len(list(generators)) * sum(per_length[:radius])
    return len(result) - 1, products


def _labparts_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == "labparts" or n.startswith("labparts.")]
