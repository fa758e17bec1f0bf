"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the production code paths: matrix
arithmetic over SL2(Z) for the amalgam word problem, the letter-by-letter
syllable-list rewrite of amalgam normal forms (``rewrite_normal_form``, the
reference for ``AmalgamGroup.mul`` and ``inv``), breadth-first searches over
explicitly materialised graphs for tree distances and projections, and
first-principles recounts of separating walls and Dirac supports.

``power_tree_term_formula`` is the one exception: the deliberately wrong
d_T**q variant of the closed-form amalgam energy, built on the production
formula, which the negative controls check against the oracle.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from labparts.amalgam import amalgam_energy_formula
from labparts.core import NormSpec


# ---------------------------------------------------------------------------
# SL2(Z) as the Z/4 * Z/6 amalgam over Z/2: a -> S, b -> S T


def mat2_mul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


SL2_ID = ((1, 0), (0, 1))
SL2_S = ((0, -1), (1, 0))
SL2_U = ((0, -1), (1, 1))


def mat2_pow(a, k):
    out = SL2_ID
    for _ in range(k):
        out = mat2_mul(out, a)
    return out


def sl2_of_letters(letters):
    """Matrix of a word in the letters ('L', a^k) and ('R', b^k)."""
    out = SL2_ID
    for side, x in letters:
        out = mat2_mul(out, mat2_pow(SL2_S, x) if side == "L" else mat2_pow(SL2_U, x))
    return out


# ---------------------------------------------------------------------------
# amalgam normal forms by the syllable-list rewrite


def rewrite_normal_form(am, letters):
    """Reduced word of a product of letters from G ('L') and H ('R'),
    prepended one at a time onto a list of genuine syllables.

    Each side's lookups come from the amalgam's coset tables and embeddings
    and its factor groups' ``mul``; ``am.mul``, ``am._tables`` and
    ``am._side`` are never read, so the result is independent of the
    product under test.
    """
    from labparts.groups import ReducedWord

    sides = {}
    for side, group, cosets, embed in (("L", am.left, am.cosets_left, am.embed_left),
                                       ("R", am.right, am.cosets_right, am.embed_right)):
        unembed = {g: c for c, g in enumerate(embed)}
        sides[side] = (group, cosets.rep_of, [unembed[f] for f in cosets.factor_of], embed)

    def push_c(c, flat):
        """Rewrite embed(c) * s1 ... sk as s1' ... sk' * c_out: interior
        syllables never lie in C, so the pattern of sides is unchanged."""
        out = []
        for side, s in flat:
            group, rep_of, c_part, embed = sides[side]
            y = group.mul(embed[c], s)
            out.append((side, rep_of[y]))
            c = c_part[y]
        return out, c

    flat, tail = [], am.common.identity
    for side, x in reversed(list(letters)):
        group, rep_of, c_part, embed = sides[side]
        if not flat:
            y = group.mul(x, embed[tail])
            flat, tail = [(side, rep_of[y])] if rep_of[y] != group.identity else [], c_part[y]
            continue
        if flat[0][0] == side:
            y = group.mul(x, flat[0][1])
            flat = flat[1:]
        else:
            y = x
        pushed, c_out = push_c(c_part[y], flat)
        flat = ([(side, rep_of[y])] if rep_of[y] != group.identity else []) + pushed
        tail = am.common.mul(c_out, tail)

    pairs, pending_g = [], None
    for side, s in flat:
        if side == "L":
            if pending_g is not None:
                pairs.append((pending_g, am.right.identity))
            pending_g = s
        else:
            pairs.append((am.left.identity if pending_g is None else pending_g, s))
            pending_g = None
    if pending_g is not None:
        pairs.append((pending_g, am.right.identity))
    return ReducedWord(tuple(pairs), tail)


# ---------------------------------------------------------------------------
# brute-force Bass-Serre geometry


def bfs_tree_vertices(tree, radius):
    """All vertices within the given tree distance of the base, via explicit
    neighbour generation (multiplying by every factor element)."""
    am = tree.am
    seen = {tree.base_vertex: 0}
    queue = deque([tree.base_vertex])
    while queue:
        v = queue.popleft()
        if seen[v] >= radius:
            continue
        side, word = v
        if side == "L":
            neighbours = {
                tree.vertex_of_word("R", am.mul(word, am.letter_word("L", g)))
                for g in range(am.left.size)
            }
        else:
            neighbours = {
                tree.vertex_of_word("L", am.mul(word, am.letter_word("R", h)))
                for h in range(am.right.size)
            }
        for n in neighbours:
            if n not in seen:
                seen[n] = seen[v] + 1
                queue.append(n)
    return seen


def bfs_tree_distance(tree, v, w, cap=40):
    """Tree distance by breadth-first search from v, independent of the
    syllable walk used in production."""
    am = tree.am
    seen = {v: 0}
    queue = deque([v])
    while queue:
        u = queue.popleft()
        if u == w:
            return seen[u]
        if seen[u] > cap:
            break
        side, word = u
        if side == "L":
            neighbours = (
                tree.vertex_of_word("R", am.mul(word, am.letter_word("L", g)))
                for g in range(am.left.size)
            )
        else:
            neighbours = (
                tree.vertex_of_word("L", am.mul(word, am.letter_word("R", h)))
                for h in range(am.right.size)
            )
        for n in neighbours:
            if n not in seen:
                seen[n] = seen[u] + 1
                queue.append(n)
    raise AssertionError("vertices not connected within cap")


def brute_projection_sum_energy(tree, struct_gc, struct_hc, q, x, y, radius=12):
    """Orbital energy by summing quotient energies of projections over every
    vertex in a large ball, plus the tree distance, with no support shortcut."""
    from labparts.core import q_energy

    structs = {"L": struct_gc, "R": struct_hc}
    total = Fraction(0)
    for v in bfs_tree_vertices(tree, radius):
        px = tree.project(v, x)
        py = tree.project(v, y)
        if px != py:
            struct = structs[v[0]]
            total += q_energy(struct.norm, struct.diff(tree.side_point(v, px), tree.side_point(v, py)))
    total += bfs_tree_distance(tree, x.vertex, y.vertex)
    return total


# ---------------------------------------------------------------------------
# free-group Cayley tree, first principles


def free_letters(free):
    return [(i,) for i in range(1, free.rank + 1)] + [(-i,) for i in range(1, free.rank + 1)]


def free_ball(free, radius):
    """The vertices within Cayley-graph distance ``radius`` of the identity,
    found by breadth-first search (multiplying by every generator)."""
    depth = {(): 0}
    queue = deque([()])
    while queue:
        u = queue.popleft()
        if depth[u] == radius:
            continue
        for s in free_letters(free):
            v = free.mul(u, s)
            if v not in depth:
                depth[v] = depth[u] + 1
                queue.append(v)
    return depth


def free_steps_toward(free, x, radius):
    """First vertex after a on the path from a to x, for every a in the
    identity ball of the given radius (which must be >= |x|): the parents of
    one breadth-first search rooted at x over the Cayley graph restricted to
    that ball.  A ball about the identity is a subtree, so it holds the whole
    tree path from any of its vertices to x."""
    ball = free_ball(free, radius)
    assert x in ball
    parent = {x: x}
    queue = deque([x])
    while queue:
        u = queue.popleft()
        for s in free_letters(free):
            v = free.mul(u, s)
            if v in ball and v not in parent:
                parent[v] = u
                queue.append(v)
    return parent


def free_first_step(free, a, x):
    """First vertex after a on the path to x (a itself if a = x), by one
    breadth-first search from x over the ball of radius max(|a|, |x|)."""
    return free_steps_toward(free, x, max(len(a), len(x)))[a]


def mineyev_disjoint_count(free, x, y, radius):
    """Number of base points a (in a ball) whose Dirac masses toward x and y
    sit at different vertices."""
    toward_x = free_steps_toward(free, x, max(radius, len(x)))
    toward_y = free_steps_toward(free, y, max(radius, len(y)))
    return sum(1 for a in free_ball(free, radius) if toward_x[a] != toward_y[a])


def mineyev_brute_energy(free, x, y, radius, q_int):
    """Separation energy recomputed label by label over all pairs (a, b)
    with b in the closed unit ball around a."""
    toward_x = free_steps_toward(free, x, max(radius, len(x)))
    toward_y = free_steps_toward(free, y, max(radius, len(y)))
    total = 0
    for a in free_ball(free, radius):
        if toward_x[a] != toward_y[a]:
            total += 2  # two labels, values +-1, |v|^q = 1
    return total


# ---------------------------------------------------------------------------
# metrics


def random_rational_metric(rng, n):
    """A random exact metric: random positive rational weights, then the
    shortest-path closure, which satisfies the triangle inequality exactly."""
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = Fraction(rng.randrange(1, 40), rng.randrange(1, 7))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return tuple(tuple(row) for row in d)


def l1_distance(x, y):
    return sum(abs(a - b) for a, b in zip(x, y))


# ---------------------------------------------------------------------------
# the negative control for the closed-form amalgam energy


def power_tree_term_formula(tree, struct_gc, struct_hc, q, gamma):
    """``amalgam_energy_formula`` with the tree distance d_T(gamma G, G) raised
    to the q-th power instead of entering linearly: equal to it at q = 1 and
    wrong for q > 1 as soon as d_T >= 2."""
    d_t = tree.tree_distance(tree.act_vertex(gamma, tree.base_vertex), tree.base_vertex)
    return amalgam_energy_formula(tree, struct_gc, struct_hc, q, gamma) - d_t + d_t ** NormSpec(q).q
