"""Tree of coset spaces for an amalgamated free product, with the induced
labelled-partitions structures and the closed-form orbital energy.

For an amalgam G *_C H the Bass-Serre tree has vertex set Gamma/G |_| Gamma/H
and edge set Gamma/C; each vertex carries its coset space (gamma G)/C or
(gamma H)/C and each edge the single C-coset joining its endpoints.  Vertices
and edges are represented by tail-free reduced words over the fixed coset
representative systems, total-space points by a vertex plus the tail-free
word of a C-coset inside that vertex's coset space.  A vertex's path from
the base vertex G is read off the prefixes of its word's pair tuple: the
pair (g_k, h_k) steps to the H-vertex of g_1 h_1 ... g_k (H itself for a
trivial leading g_1) and then, for a nontrivial h_k, to the G-vertex of
g_1 h_1 ... g_k h_k.  Both induced parts of one oracle call read one shared
segment, the path between the two points' vertices with its edges.

Two structures live on the total space: the vertex-induced one, pulling a
structure on G/C (resp. H/C) back to every vertex space through the maps
gamma g C -> g C and summing over vertex projections, and the tree-induced
one, pulling the half-tree wall family on the vertex set back along the
vertex projection.  Their product carries the full group action, and the
orbital energy of a reduced word splits into per-syllable quotient energies
plus the tree distance (the tree term enters linearly: the half-tree family
has q-energy equal to the edge count for every q).
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from typing import NamedTuple

from .core import (
    Action,
    DomainError,
    InvalidInput,
    MINUS_ONE,
    NormSpec,
    ONE,
    PointUniverse,
    SUP,
    Space,
    _vec,
    half_weight,
    q_energy,
    vertex_tag,
    wall,
)
from .groups import AmalgamGroup, ReducedWord, ball_enumerate


VertexId = tuple  # (side 'L'|'R', tail-free ReducedWord in the rep system)


class TotalPoint(NamedTuple):
    """A point of the total space: a C-coset inside one vertex's coset space."""

    vertex: VertexId
    coset: ReducedWord


class TreeOfCosetSpaces:
    """The Bass-Serre tree of C-coset spaces of an amalgam, with projections.

    All traversal reads the pair tuples of reduced words: a base path lists
    the vertices of a word's prefixes (see :meth:`path_from_base`), paths
    between vertices splice two base paths at their last common vertex, and
    the projection to a vertex v sends a point either to itself (if it lives
    in X_v) or to the edge point of the first edge from v toward it.
    """

    def __init__(self, amalgam: AmalgamGroup):
        self.am = amalgam
        self.base_vertex: VertexId = ("L", amalgam.identity)
        self.base_point = TotalPoint(self.base_vertex, amalgam.identity)
        self._segment = (None, [], [])  # (v, w), path, edges of the last segment read

    # -- vertex representatives -----------------------------------------------

    def tail_free(self, word: ReducedWord) -> ReducedWord:
        return ReducedWord(word.pairs, self.am.common.identity)

    def vertex_of_word(self, side: str, word: ReducedWord) -> VertexId:
        """The vertex on ``side`` whose coset holds ``word``: a G-vertex word
        ends in a nontrivial H-syllable, an H-vertex word in a G-syllable."""
        if side not in ("L", "R"):
            raise InvalidInput(f"side must be 'L' or 'R', got {side!r}")
        pairs = word.pairs
        e_h = self.am.right.identity
        if side == "L" and pairs and pairs[-1][1] == e_h:
            pairs = pairs[:-1]
        elif side == "R" and pairs:
            g = pairs[-1][0]
            pairs = pairs[:-1] if g == self.am.left.identity else pairs[:-1] + ((g, e_h),)
        return side, ReducedWord(pairs, self.am.common.identity)

    def _in_vertex(self, word, v: VertexId) -> bool:
        """Whether ``word`` is a tail-free reduced word whose coset lies in v."""
        return (isinstance(word, ReducedWord) and word.tail == self.am.common.identity
                and self.am.is_reduced(word) and self.vertex_of_word(v[0], word) == v)

    def is_vertex(self, v) -> bool:
        return isinstance(v, tuple) and len(v) == 2 and v[0] in ("L", "R") and self._in_vertex(v[1], v)

    def contains_point(self, x) -> bool:
        return isinstance(x, TotalPoint) and self.is_vertex(x.vertex) and self._in_vertex(x.coset, x.vertex)

    # -- paths ---------------------------------------------------------------

    def path_from_base(self, v: VertexId) -> list[VertexId]:
        """Vertices from the base to v, each read off a prefix of v's pair
        tuple by the rule in the module docstring, with no multiplication."""
        am = self.am
        e_g, e_h, e_c = am.left.identity, am.right.identity, am.common.identity
        side, word = v
        pairs = word.pairs
        path = [self.base_vertex]
        for k, (g, h) in enumerate(pairs):
            path.append(("R", ReducedWord(pairs[:k] + ((g, e_h),), e_c) if k or g != e_g else am.identity))
            if h != e_h:
                path.append(("L", ReducedWord(pairs[: k + 1], e_c)))
        if side == "R" and not pairs:
            path.append(("R", am.identity))
        # prefixes are not renormalised, so a non-reduced word would
        # reproduce itself; it is rejected explicitly
        if path[-1] != v or not am.is_reduced(word):
            raise DomainError(f"not a canonical vertex representative: {v!r}")
        return path

    def vertex_path(self, v: VertexId, w: VertexId) -> list[VertexId]:
        """The unique edge-path vertex sequence from v to w."""
        pv, pw = self.path_from_base(v), self.path_from_base(w)
        common = next((i for i, (a, b) in enumerate(zip(pv, pw)) if a != b), min(len(pv), len(pw)))
        return pv[common - 1 :][::-1] + pw[common:]

    def segment(self, v: VertexId, w: VertexId) -> tuple[list[VertexId], list[ReducedWord]]:
        """The path from v to w and the edge word of each step, as shared lists; the last pair
        read is kept (compared with ``==``) and also serves its reverse, as c(y, x) follows c(x, y)."""
        key, path, edges = self._segment
        if key != (v, w):
            if key == (w, v):
                path, edges = path[::-1], edges[::-1]
            else:
                path = self.vertex_path(v, w)
                edges = [self.edge_between(a, b) for a, b in zip(path, path[1:])]
            self._segment = (v, w), path, edges
        return path, edges

    def tree_distance(self, v: VertexId, w: VertexId) -> int:
        return len(self.segment(v, w)[1])

    def edge_between(self, u: VertexId, v: VertexId) -> ReducedWord:
        """The C-coset word of the edge joining two adjacent vertices."""
        if u[0] == v[0]:
            raise DomainError("edges join one left and one right vertex")
        left, right = (u, v) if u[0] == "L" else (v, u)
        if self.vertex_of_word("L", right[1]) == left:
            return right[1]
        if self.vertex_of_word("R", left[1]) == right:
            return left[1]
        raise DomainError(f"vertices {u!r} and {v!r} are not adjacent")

    # -- projections -----------------------------------------------------------

    def project(self, v: VertexId, x: TotalPoint) -> ReducedWord:
        """The coset word of the projection of x to the vertex space X_v."""
        if x.vertex == v:
            return x.coset
        return self.edge_between(*self.vertex_path(v, x.vertex)[:2])

    # -- the group action --------------------------------------------------------

    def act_vertex(self, gamma: ReducedWord, v: VertexId) -> VertexId:
        side, word = v
        return self.vertex_of_word(side, self.am.mul(gamma, word))

    def act_point(self, gamma: ReducedWord, x: TotalPoint) -> TotalPoint:
        # x's coset word lies in its vertex, so gamma times it lies in the
        # moved vertex, which is read off that one product
        coset = self.am.mul(gamma, x.coset)
        return TotalPoint(self.vertex_of_word(x.vertex[0], coset), self.tail_free(coset))

    # -- coset bookkeeping --------------------------------------------------------

    def side_point(self, v: VertexId, coset: ReducedWord) -> int:
        """The G/C (or H/C) representative of a point of X_v under the map
        gamma g C -> g C attached to the vertex's canonical representative.
        ``coset`` must lie in v, as every projection to v does; words from
        outside are tested by ``contains_point``, not here."""
        side, rep_word = v
        group, table, _, _ = self.am._side(side)
        # coset = rep_word * g * c: either g lies in C, or g is the one
        # syllable the coset word adds to the vertex word (its last pair)
        if coset.pairs == rep_word.pairs:
            return table.rep_of[group.identity]
        g, h = coset.pairs[-1]
        return table.rep_of[g if side == "L" else h]

    def universe(self) -> PointUniverse:
        """All total points; samples are the base point of X_G or of X_H moved by a word of length <= 3."""
        @functools.cache
        def ball() -> list:
            return [w for w, _ in ball_enumerate(self.am, 3)]

        def sampler(rng: random.Random):
            gamma = rng.choice(ball())
            start = self.base_point if rng.random() < 0.5 else TotalPoint(("R", self.am.identity), self.am.identity)
            return self.act_point(gamma, start)

        return PointUniverse(contains=self.contains_point, sampler=sampler)


# ---------------------------------------------------------------------------
# induced structures


def _require_quotient_structure(tree: TreeOfCosetSpaces, struct_gc: Space, struct_hc: Space, q) -> None:
    expected_q = NormSpec(q).q
    for struct, table, side in ((struct_gc, tree.am.cosets_left, "G/C"), (struct_hc, tree.am.cosets_right, "H/C")):
        if struct.norm.q != expected_q:
            raise InvalidInput(f"{side} structure must carry exponent {q}")
        if struct.universe.points is None or set(struct.universe.points) != set(table.reps):
            raise InvalidInput(f"{side} structure must have exactly the coset representatives as points")


def vertex_induced_space(tree: TreeOfCosetSpaces, struct_gc: Space, struct_hc: Space, q) -> Space:
    """Sum over vertex projections of pulled-back quotient structures.

    The separation vector of (x, y) is the vertex-tagged union over the
    vertices between x and y of the quotient separation vectors of the
    projections; its q-energy is the sum of the projected energies.
    """
    _require_quotient_structure(tree, struct_gc, struct_hc, q)
    structs = {"L": struct_gc, "R": struct_hc}

    def diff(x, y):
        # on the path from x to y, an interior vertex projects x to the edge
        # toward the previous vertex and y to the edge toward the next one
        path, edges = tree.segment(x.vertex, y.vertex)
        toward_x = [tree.project(path[0], x)] + edges
        toward_y = edges + [tree.project(path[-1], y)]
        # the path's vertices are distinct, so the tagged labels are too
        entries = {}
        for v, px, py in zip(path, toward_x, toward_y):
            if px != py:
                for label, value in structs[v[0]].diff(tree.side_point(v, px), tree.side_point(v, py)).items():
                    entries[vertex_tag(v, label)] = value
        return _vec(entries)

    def weight_of(label):
        (tag, v) = label[0]
        return structs[v[0]].norm.weight(tuple(label[1:]))

    return Space(universe=tree.universe(), diff=diff, norm=NormSpec(q, weight_of))


def tree_induced_space(tree: TreeOfCosetSpaces, q) -> Space:
    """Pull-back along the vertex projection of the half-tree wall family.

    Each edge carries two oriented half-tree labels of weight 1/2; a pair of
    points is separated exactly by the labels of the edges between their
    vertices, with values +-1, so the q-energy equals the tree distance for
    every exponent q.
    """

    def diff(x, y):
        path, edges = tree.segment(x.vertex, y.vertex)
        # the path's edges are distinct, and the two ends of an edge lie on different sides
        entries = {}
        for u, v, edge in zip(path, path[1:], edges):
            entries[wall((edge, u[0]))] = ONE
            entries[wall((edge, v[0]))] = MINUS_ONE
        return _vec(entries)

    return Space(universe=tree.universe(), diff=diff, norm=NormSpec(q, half_weight))


def amalgam_space(
    tree: TreeOfCosetSpaces,
    struct_gc: Space,
    action_gc: Action,
    struct_hc: Space,
    action_hc: Action,
    q,
) -> tuple[Space, Action]:
    """The diagonal combination of the vertex-induced and tree-induced
    structures, with the full amalgam acting by automorphisms.

    Vertex labels move by gamma^{-1} on the vertex slot and by the factor
    group element g (defined by gamma gamma_1 = gamma_2 g for the canonical
    vertex representatives) on the inner quotient label; oriented half-tree
    labels move by gamma^{-1} on the edge slot.
    """
    vertex_part = vertex_induced_space(tree, struct_gc, struct_hc, q)
    tree_part = tree_induced_space(tree, q)
    actions = {"L": action_gc, "R": action_hc}

    def diff(x, y):
        # vertex and wall labels never meet, so the two parts join without summing
        return _vec(vertex_part.diff(x, y)._entries | tree_part.diff(x, y)._entries)

    def weight_of(label):
        return vertex_part.norm.weight(label) if label[0][0] == "vertex" else half_weight(label)

    # relabel moves a vector's support labels by one element; the labels of
    # one vertex come together, and so do both orientations of one edge, so each
    # move is memoised for its last arguments, and the inverses of the last
    # element and vertex word are kept (an lru_cache is thread-safe)
    am = tree.am
    inverse = functools.lru_cache(maxsize=2)(am.inv)

    @functools.lru_cache(maxsize=1)
    def moved_edge(gamma, edge):
        return tree.tail_free(am.mul(inverse(gamma), edge))

    @functools.lru_cache(maxsize=1)
    def moved_vertex(gamma, slot):
        # gamma v1 = v2 g for the canonical words of v1 and v2 = slot
        v1 = tree.act_vertex(inverse(gamma), slot)
        g = am.as_side_element(slot[0], am.mul(inverse(slot[1]), am.mul(gamma, v1[1])))
        if g is None:
            raise DomainError("vertex label map left the factor group")
        return v1, g

    def label_map(gamma, label):
        tag = label[0][0]
        if tag == "wall":
            edge, side = label[0][1]
            return wall((moved_edge(gamma, edge), side)), 1
        if tag == "vertex":
            slot = label[0][1]
            v1, g = moved_vertex(gamma, slot)
            target, sign = actions[slot[0]].label_map(g, label[1:])
            return vertex_tag(v1, target), sign
        raise DomainError(f"unrecognised amalgam label {label!r}")

    space = Space(universe=tree.universe(), diff=diff, norm=NormSpec(q, weight_of))
    action = Action(group=tree.am, point_map=tree.act_point, label_map=label_map)
    return space, action


# ---------------------------------------------------------------------------
# the closed-form orbital energy


def amalgam_energy_formula(tree: TreeOfCosetSpaces, struct_gc: Space, struct_hc: Space, q, gamma: ReducedWord):
    """Orbital q-energy of gamma at the base point C of X_G, in closed form:

        sum_k ( ||c_G(g_k C, C)||^q + ||c_H(h_k C, C)||^q ) + d_T(gamma G, G).

    The tree term enters linearly for every q because the half-tree family
    has q-energy equal to the edge count.

    Per-syllable terms vanish for trivial syllables, so the formula applies
    to every reduced word (leading g_1 = e and trailing h_n = e included);
    the projection-sum oracle remains the authority in degenerate cases and
    the equality of the two is part of the acceptance checks.  A sup-norm
    energy is a maximum, not a sum, so q = SUP raises InvalidInput.
    """
    if NormSpec(q).q == SUP:
        raise InvalidInput("the closed-form energy is a sum of q-th powers; it has no sup-norm form")
    _require_quotient_structure(tree, struct_gc, struct_hc, q)
    g_table, h_table = tree.am.cosets_left, tree.am.cosets_right
    e_g, e_h = g_table.rep_of[tree.am.left.identity], h_table.rep_of[tree.am.right.identity]
    total, exact = Fraction(0), True
    for g, h in gamma.pairs:
        term_g = q_energy(struct_gc.norm, struct_gc.diff(g_table.rep_of[g], e_g))
        term_h = q_energy(struct_hc.norm, struct_hc.diff(h_table.rep_of[h], e_h))
        exact = exact and isinstance(term_g, Fraction) and isinstance(term_h, Fraction)
        total = total + term_g + term_h
    total = total + tree.tree_distance(tree.act_vertex(gamma, tree.base_vertex), tree.base_vertex)
    return total if exact else float(total)


def syllable_lower_bound(gamma: ReducedWord) -> int:
    """Lower bound 2n - 2 for the orbital energy of an n-syllable word."""
    return max(0, 2 * gamma.syllable_count - 2)


# ---------------------------------------------------------------------------
# the full pipeline from factor structures


def proper_amalgam_from_factors(
    space_g: Space,
    action_g: Action,
    space_h: Space,
    action_h: Action,
    amalgam: AmalgamGroup,
    q,
) -> tuple[Space, Action, TreeOfCosetSpaces, Space, Space]:
    """Average factor structures over the common subgroup, then glue.

    ``space_g``/``space_h`` are structures on the full factor groups with
    their left translation actions; they are averaged over the embedded
    common subgroup to structures on G/C and H/C, and the result is the
    combined structure on the total space of the tree of C-coset spaces,
    carrying the amalgam action.  Returns (space, action, tree, struct_gc,
    struct_hc) so callers can also evaluate the closed-form energy.
    """
    from .constructions import quotient_average

    struct_gc, action_gc = quotient_average(space_g, amalgam.left, amalgam.embed_left, action_g)
    struct_hc, action_hc = quotient_average(space_h, amalgam.right, amalgam.embed_right, action_h)
    tree = TreeOfCosetSpaces(amalgam)
    space, action = amalgam_space(tree, struct_gc, action_gc, struct_hc, action_hc, q)
    return space, action, tree, struct_gc, struct_hc


def naive_quotient_structures(tree: TreeOfCosetSpaces, q) -> tuple[Space, Action, Space, Action]:
    """Naive structures on G/C and H/C with the factor translation actions."""
    from .constructions import naive_group_action, naive_space

    am = tree.am
    struct_gc = naive_space(am.cosets_left.reps, q)
    struct_hc = naive_space(am.cosets_right.reps, q)
    action_gc = naive_group_action(am.left, point_map=lambda g, r: am.cosets_left.rep_of[am.left.mul(g, r)])
    action_hc = naive_group_action(am.right, point_map=lambda h, r: am.cosets_right.rep_of[am.right.mul(h, r)])
    return struct_gc, action_gc, struct_hc, action_hc
