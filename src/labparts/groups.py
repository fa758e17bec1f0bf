"""Desk-scale group machinery.

Groups enter the constructions through a small duck-typed handle: an
``identity`` attribute, ``mul``/``inv`` methods, a ``generators`` tuple and a
deterministic ``element_key`` used to order elements reproducibly.  Concrete
handles provided here:

* :class:`FiniteGroup`: an indexed element list with a multiplication table
  (loadable from and saveable to a plain text file, bit-exact round trip);
* :class:`ZGroup` and :class:`FreeGroup`: infinite groups with lazily
  enumerated balls;
* :class:`DirectSumGroup`: restricted direct sums with finite-support
  elements;
* :class:`SemidirectGroup`: pairs twisted by a homomorphism into Aut;
* :class:`AmalgamGroup`: amalgamated free products of two finite groups over
  a common finite subgroup, with reduced-word normal forms over fixed coset
  representative systems.

Word lengths and balls are computed by breadth-first search over the Cayley
graph of the symmetrised generating set.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from .core import InvalidInput


# ---------------------------------------------------------------------------
# finite groups


class FiniteGroup:
    """A finite group as an element list plus a multiplication table on indices.

    Elements are their indices 0..n-1; ``name`` labels the group in its repr.
    The table is validated on construction: exact identity and inverses,
    declared generators that generate, a full associativity check for small
    orders (Light's test over the generators) and a sampled check beyond.
    """

    def __init__(self, table: Sequence[Sequence[int]], generators: Iterable[int] = (), name: str = ""):
        self.table = tuple(tuple(row) for row in table)
        self.generators = tuple(generators)
        n = len(self.table)
        if any(len(row) != n for row in self.table):
            raise InvalidInput("multiplication table must be square")
        if any(not 0 <= v < n for v in itertools.chain(*self.table, self.generators)):
            raise InvalidInput("table entries and generators must be element indices")
        self.size = n
        self.name = name

        t = self.table
        identity = None
        for e in range(n):
            if all(t[e][x] == x == t[x][e] for x in range(n)):
                identity = e
                break
        if identity is None:
            raise InvalidInput("table has no identity element")
        self.identity = identity

        inverse = [None] * n
        for x in range(n):
            for y in range(n):
                if t[x][y] == identity and t[y][x] == identity:
                    inverse[x] = y
                    break
            if inverse[x] is None:
                raise InvalidInput(f"element {x} has no inverse")
        self._inverse = tuple(inverse)

        # the symmetrised declared generators: they must generate the group,
        # and they are the middle elements of the associativity test below
        gens = {*self.generators, *(inverse[g] for g in self.generators)}
        if gens and sum(map(len, spheres(self, self.generators))) != n:
            raise InvalidInput("declared generators do not generate the group")

        if n <= 24:
            # Light's test: the b with (a.b).c == a.(b.c) for all a, c contain e
            # and are closed under products, so b over a generating set covers
            # the whole group; with no declared generators b runs over all of it
            triples = itertools.product(range(n), gens or range(n), range(n))
        else:
            rng = random.Random(0)
            triples = ((rng.randrange(n), rng.randrange(n), rng.randrange(n)) for _ in range(4096))
        for a, b, c in triples:
            if t[t[a][b]][c] != t[a][t[b][c]]:
                raise InvalidInput("table is not associative")

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inverse[a]

    def element_key(self, a: int):
        return a

    def elements(self):
        return range(self.size)

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name or self.size}, n={self.size})"

    # -- constructors -------------------------------------------------------

    @staticmethod
    def cyclic(n: int, name: str = "") -> "FiniteGroup":
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        gens = (1,) if n > 1 else ()
        return FiniteGroup(table, gens, name=name or f"Z{n}")

    @staticmethod
    def from_permutations(perms: Sequence[tuple], generators: Iterable[int] = (), name: str = "") -> "FiniteGroup":
        """Group of the given permutation tuples under composition p(q(.))."""
        perms = [tuple(p) for p in perms]
        index = {p: i for i, p in enumerate(perms)}
        if len(index) != len(perms):
            raise InvalidInput("duplicate permutations")
        table = []
        for p in perms:
            row = []
            for q in perms:
                comp = tuple(p[q[k]] for k in range(len(p)))
                if comp not in index:
                    raise InvalidInput("permutation set is not closed under composition")
                row.append(index[comp])
            table.append(row)
        return FiniteGroup(table, generators, name=name)

    @staticmethod
    def symmetric(n: int) -> "FiniteGroup":
        perms = sorted(itertools.permutations(range(n)))
        gens: list[int] = []
        if n >= 2:
            gens.append(perms.index(tuple([1, 0] + list(range(2, n)))))
        if n >= 3:
            gens.append(perms.index(tuple(list(range(1, n)) + [0])))
        return FiniteGroup.from_permutations(perms, generators=gens, name=f"S{n}")

    # -- file round trip ------------------------------------------------------

    def save(self, path) -> None:
        """Write the table file: first line n, then n index rows, then generators."""
        lines = [str(self.size)]
        lines += [" ".join(str(v) for v in row) for row in self.table]
        lines.append("generators " + " ".join(str(g) for g in self.generators))
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")

    @staticmethod
    def load(path) -> "FiniteGroup":
        with open(path, encoding="ascii") as fh:
            tokens = [line.split() for line in fh if line.strip()]
        try:
            n = int(tokens[0][0])
            table = [[int(v) for v in tokens[1 + i]] for i in range(n)]
            trailer = tokens[1 + n] if len(tokens) > 1 + n else ["generators"]
            generators = tuple(int(v) for v in trailer[1:])
        except (IndexError, ValueError) as exc:
            raise InvalidInput(f"malformed group table file {path}") from exc
        if trailer[0] != "generators":
            raise InvalidInput(f"unexpected trailer line in {path}")
        if len(tokens) > 2 + n:
            raise InvalidInput(f"unexpected line after the generators line in {path}")
        return FiniteGroup(table, generators)


def is_subgroup(group: FiniteGroup, subset: Iterable[int]) -> bool:
    subset = set(subset)
    if group.identity not in subset:
        return False
    return all(group.mul(a, b) in subset and group.inv(a) in subset for a in subset for b in subset)


# ---------------------------------------------------------------------------
# coset tables


@dataclass(frozen=True)
class CosetTable:
    """Left cosets gC of a subgroup, with a fixed representative system.

    The identity represents C itself; every other representative is the
    minimal element of its coset in the group's enumeration order, so normal
    forms downstream are reproducible.  Every g decomposes uniquely as
    g = rep(g) * factor(g) with factor(g) in C.
    """

    group: FiniteGroup
    subgroup: tuple
    reps: tuple
    rep_of: tuple
    factor_of: tuple


def coset_table(group: FiniteGroup, subgroup: Iterable[int]) -> CosetTable:
    sub = tuple(sorted(set(subgroup)))
    if not is_subgroup(group, sub):
        raise InvalidInput("subset is not a subgroup")
    rep_of: list = [None] * group.size
    reps = []
    for g in range(group.size):
        if rep_of[g] is not None:
            continue
        coset = sorted(group.mul(g, c) for c in sub)
        rep = group.identity if group.identity in coset else coset[0]
        reps.append(rep)
        for x in coset:
            rep_of[x] = rep
    reps.sort(key=lambda r: (r != group.identity, r))
    factor_of = tuple(group.mul(group.inv(rep_of[g]), g) for g in range(group.size))
    if any(f not in sub for f in factor_of):
        raise InvalidInput("coset decomposition left the subgroup")
    return CosetTable(group, sub, tuple(reps), tuple(rep_of), factor_of)


# ---------------------------------------------------------------------------
# generic infinite handles


class ZGroup:
    """The integers under addition; generators (1,)."""

    identity = 0
    generators = (1,)

    def mul(self, a: int, b: int) -> int:
        return a + b

    def inv(self, a: int) -> int:
        return -a

    def element_key(self, a: int):
        return (abs(a), a < 0)

    def __repr__(self) -> str:
        return "ZGroup()"


class FreeGroup:
    """Free group of finite rank; elements are reduced words.

    A word is a tuple of nonzero ints: i encodes the i-th generator
    (1-based), -i its inverse.  Multiplication concatenates and cancels.
    """

    def __init__(self, rank: int):
        if rank < 1:
            raise InvalidInput("free group rank must be >= 1")
        self.rank = rank
        self.identity: tuple = ()
        self.generators = tuple((i,) for i in range(1, rank + 1))

    def is_reduced(self, word) -> bool:
        return (
            isinstance(word, tuple)
            and all(isinstance(v, int) and v != 0 and abs(v) <= self.rank for v in word)
            and all(word[i] != -word[i + 1] for i in range(len(word) - 1))
        )

    def mul(self, a: tuple, b: tuple) -> tuple:
        out = list(a)
        for letter in b:
            if out and out[-1] == -letter:
                out.pop()
            else:
                out.append(letter)
        return tuple(out)

    def inv(self, a: tuple) -> tuple:
        return tuple(-v for v in reversed(a))

    def element_key(self, a: tuple):
        return (len(a), a)

    def __repr__(self) -> str:
        return f"FreeGroup(rank={self.rank})"


class DirectSumGroup:
    """Restricted direct sum over an index set of copies of one group.

    Elements are sorted tuples of (index, factor element) with factor
    elements different from the factor identity; the empty tuple is the
    identity.  The index set may be infinite; ``index_window`` fixes the
    finite window used for generator enumeration.
    """

    def __init__(self, factor, index_window: Sequence):
        self.factor = factor
        self.index_window = tuple(index_window)
        self.identity: tuple = ()
        self.generators = tuple(((i, s),) for i in self.index_window for s in factor.generators)

    def delta(self, index, h) -> tuple:
        return ((index, h),) if h != self.factor.identity else ()

    def component(self, w: tuple, index):
        for i, h in w:
            if i == index:
                return h
        return self.factor.identity

    def support(self, w: tuple) -> tuple:
        return tuple(i for i, _ in w)

    def mul(self, a: tuple, b: tuple) -> tuple:
        acc = dict(a)
        for i, h in b:
            merged = self.factor.mul(acc.get(i, self.factor.identity), h)
            if merged == self.factor.identity:
                acc.pop(i, None)
            else:
                acc[i] = merged
        return tuple(sorted(acc.items()))

    def inv(self, a: tuple) -> tuple:
        return tuple(sorted((i, self.factor.inv(h)) for i, h in a))

    def element_key(self, a: tuple):
        return (len(a), tuple((i, self.factor.element_key(h)) for i, h in a))

    def elements(self):
        """All elements supported on the index window (factor must be finite)."""
        per_index = [
            [(i, h) for h in self.factor.elements() if h != self.factor.identity] + [None]
            for i in self.index_window
        ]
        for choice in itertools.product(*per_index):
            yield tuple(sorted(c for c in choice if c is not None))

    def __repr__(self) -> str:
        return f"DirectSumGroup({self.factor!r}, window={self.index_window})"


class SemidirectGroup:
    """Semidirect product N x| H for a twist homomorphism H -> Aut(N).

    ``twist(h, n)`` applies the automorphism attached to h to n.  Elements
    are pairs (n, h) with (n1, h1)(n2, h2) = (n1 * twist(h1, n2), h1 h2).
    """

    def __init__(self, normal, quotient, twist: Callable[[Any, Any], Any]):
        self.normal = normal
        self.quotient = quotient
        self.twist = twist
        self.identity = (normal.identity, quotient.identity)
        self.generators = tuple((n, quotient.identity) for n in normal.generators) + tuple(
            (normal.identity, h) for h in quotient.generators
        )

    def mul(self, a, b):
        n1, h1 = a
        n2, h2 = b
        return (self.normal.mul(n1, self.twist(h1, n2)), self.quotient.mul(h1, h2))

    def inv(self, a):
        n, h = a
        hinv = self.quotient.inv(h)
        return (self.twist(hinv, self.normal.inv(n)), hinv)

    def element_key(self, a):
        return (self.normal.element_key(a[0]), self.quotient.element_key(a[1]))

    def __repr__(self) -> str:
        return f"SemidirectGroup({self.normal!r}, {self.quotient!r})"


def infinite_dihedral() -> SemidirectGroup:
    """Z x| Z/2 with the flip acting by negation."""
    flip = FiniteGroup.cyclic(2, name="Z2")
    return SemidirectGroup(ZGroup(), flip, twist=lambda s, n: -n if s == 1 else n)


class ProductGroup:
    """Finite direct product; elements are tuples, one coordinate per factor."""

    def __init__(self, factors: Sequence):
        self.factors = tuple(factors)
        self.identity = tuple(f.identity for f in self.factors)
        gens = []
        for i, f in enumerate(self.factors):
            for s in f.generators:
                gens.append(tuple(s if j == i else g.identity for j, g in enumerate(self.factors)))
        self.generators = tuple(gens)

    def mul(self, a, b):
        return tuple(f.mul(x, y) for f, x, y in zip(self.factors, a, b))

    def inv(self, a):
        return tuple(f.inv(x) for f, x in zip(self.factors, a))

    def element_key(self, a):
        return tuple(f.element_key(x) for f, x in zip(self.factors, a))

    def elements(self):
        return itertools.product(*(f.elements() for f in self.factors))

    def __repr__(self) -> str:
        return f"ProductGroup({list(self.factors)!r})"


# ---------------------------------------------------------------------------
# ball enumeration


def spheres(group, generators: Iterable | None = None) -> Iterator[list]:
    """The word spheres of radius 0, 1, 2, ..., computed lazily.

    Breadth-first search over the Cayley graph of the symmetrised generating
    set, deduplicated by element equality (for amalgam handles this is the
    reduced-word normal form).  Each sphere is sorted by ``element_key``; a
    sphere is only computed when it is asked for, and the search stops after
    the last nonempty sphere of a finite group.
    """
    gens = list(generators if generators is not None else group.generators)
    gens = gens + [group.inv(g) for g in gens]
    seen = {group.identity}
    sphere = [group.identity]
    while sphere:
        yield sphere
        nxt = []
        for x in sphere:
            for s in gens:
                y = group.mul(x, s)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        sphere = sorted(nxt, key=group.element_key)


def sphere_list(group, radius: int, generators=None) -> list[list]:
    """Elements grouped by exact word length 0..radius (empty past a finite
    group's diameter)."""
    if radius < 0:
        raise InvalidInput("radius must be >= 0")
    out = list(itertools.islice(spheres(group, generators), radius + 1))
    return out + [[] for _ in range(radius + 1 - len(out))]


def ball_enumerate(group, radius: int, generators: Iterable | None = None) -> list[tuple[Any, int]]:
    """All elements of word length <= radius, as (element, length) pairs,
    sorted by (length, element_key)."""
    return [(x, r) for r, sphere in enumerate(sphere_list(group, radius, generators)) for x in sphere]


# ---------------------------------------------------------------------------
# amalgamated free products


class ReducedWord(NamedTuple):
    """Normal form g1 h1 ... gn hn c over fixed coset representative systems.

    ``pairs`` alternates representatives of G/C and H/C; interior syllables
    are nontrivial (g_i != e for i > 1, h_i != e for i < n) while the leading
    g1 and the trailing hn may be the identity.  ``tail`` is an element of
    the common subgroup C.  Tuple equality is exactly equality in the
    amalgam; as a tuple, a word also equals the plain tuple (pairs, tail),
    so a membership test that must reject plain tuples tests the type.
    """

    pairs: tuple[tuple[int, int], ...]
    tail: int

    @property
    def syllable_count(self) -> int:
        return len(self.pairs)


class AmalgamGroup:
    """Amalgamated free product of two finite groups over a common subgroup.

    ``embed_left`` and ``embed_right`` list, per element of ``common``, its
    image in ``left`` and ``right``; both must be injective homomorphisms.
    Elements are :class:`ReducedWord` values.  Multiplication works at the
    junction only, through per-side product tables built once: the product
    shares the left factor's untouched pairs and costs O(|v| + cancelled
    syllables) steps (see :meth:`mul`).  Normal forms are
    canonical for the fixed representative choice (identity first, then
    minimal element per coset), so a product equals the letter-by-letter
    rewrite of :meth:`normal_form`.
    """

    def __init__(self, left: FiniteGroup, right: FiniteGroup, common: FiniteGroup,
                 embed_left: Sequence[int], embed_right: Sequence[int], name: str = ""):
        self.left = left
        self.right = right
        self.common = common
        self.embed_left = tuple(embed_left)
        self.embed_right = tuple(embed_right)
        self.name = name
        for embed, target, side in ((self.embed_left, left, "left"), (self.embed_right, right, "right")):
            if len(embed) != common.size or len(set(embed)) != common.size:
                raise InvalidInput(f"{side} embedding is not injective on C")
            if not all(0 <= g < target.size for g in embed):
                raise InvalidInput(f"{side} embedding leaves the {side} factor")
            for a in range(common.size):
                for b in range(common.size):
                    if embed[common.mul(a, b)] != target.mul(embed[a], embed[b]):
                        raise InvalidInput(f"{side} embedding is not a homomorphism")
        self.cosets_left = coset_table(left, self.embed_left)
        self.cosets_right = coset_table(right, self.embed_right)
        # per side, what every product reads: the multiplication table, the
        # representative and the C-part of each x (x = rep_of[x] * embed[c_part[x]]),
        # the embedding of C and the side identity
        self._tables = {}
        for side, group, cosets, embed in (("L", left, self.cosets_left, self.embed_left),
                                            ("R", right, self.cosets_right, self.embed_right)):
            unembed = {g: c for c, g in enumerate(embed)}
            c_part = tuple(unembed[f] for f in cosets.factor_of)
            self._tables[side] = (group.table, cosets.rep_of, c_part, embed, group.identity)

        self.identity = ReducedWord((), common.identity)
        self.generators = tuple(
            self.letter_word(side, g)
            for side, grp in (("L", left), ("R", right))
            for g in grp.generators
        )

    # -- side helpers ---------------------------------------------------------

    def side_group(self, side: str) -> FiniteGroup:
        return self.left if side == "L" else self.right

    def _side(self, side: str):
        """The factor group, coset table, embedding of C and product tables of one side."""
        if side == "L":
            return self.left, self.cosets_left, self.embed_left, self._tables["L"]
        if side == "R":
            return self.right, self.cosets_right, self.embed_right, self._tables["R"]
        raise InvalidInput(f"side must be 'L' or 'R', got {side!r}")

    def flat(self, pairs: tuple) -> list[tuple[str, int]]:
        """The genuine alternating syllable list of a pair tuple, trivial edge
        slots dropped; a run of pairs out of a reduced word gives its own
        syllables, since only a word's end slots may be trivial."""
        out = []
        last = len(pairs) - 1
        for i, (g, h) in enumerate(pairs):
            if i or g != self.left.identity:
                out.append(("L", g))
            if i < last or h != self.right.identity:
                out.append(("R", h))
        return out

    def _assemble(self, flat: list[tuple[str, int]], tail: int, prefix: tuple = ()) -> ReducedWord:
        """The word prefix + flat + tail; flat starts with a G-syllable
        whenever prefix is nonempty (the prefix ends in a genuine H-syllable)."""
        pairs = []
        pending_g = None
        for side, s in flat:
            if side == "L":
                if pending_g is not None:
                    pairs.append((pending_g, self.right.identity))
                pending_g = s
            else:
                pairs.append((self.left.identity if pending_g is None else pending_g, s))
                pending_g = None
        if pending_g is not None:
            pairs.append((pending_g, self.right.identity))
        return ReducedWord(prefix + tuple(pairs), tail)

    def _push_c(self, c: int, flat: list[tuple[str, int]]):
        """Rewrite embed(c) * s1 ... sk as s1' ... sk' * c_out.

        Interior syllables never lie in C, so their rewritten representatives
        stay nontrivial and the alternation pattern is unchanged.
        """
        out = []
        for side, s in flat:
            table, rep_of, c_part, embed, _ = self._tables[side]
            y = table[embed[c]][s]
            out.append((side, rep_of[y]))
            c = c_part[y]
        return out, c

    # -- normal form and arithmetic --------------------------------------------

    def letter_word(self, side: str, x: int) -> ReducedWord:
        return self.prepend_letter(side, x, self.identity)

    def prepend_letter(self, side: str, x: int, word: ReducedWord) -> ReducedWord:
        table, rep_of, c_part, embed, e = self._side(side)[3]
        flat = self.flat(word.pairs)
        if not flat:
            y = table[x][embed[word.tail]]
            return self._assemble([(side, rep_of[y])] if rep_of[y] != e else [], c_part[y])
        if flat[0][0] == side:
            y = table[x][flat[0][1]]
            flat = flat[1:]
        else:
            y = x
        pushed, c_out = self._push_c(c_part[y], flat)
        head = [(side, rep_of[y])] if rep_of[y] != e else []
        return self._assemble(head + pushed, self.common.mul(c_out, word.tail))

    def normal_form(self, letters: Iterable[tuple[str, int]]) -> ReducedWord:
        """Reduced word of a product of letters from G ('L') and H ('R')."""
        word = self.identity
        for side, x in reversed(list(letters)):
            word = self.prepend_letter(side, x, word)
        return word

    def letters(self, word: ReducedWord) -> list[tuple[str, int]]:
        out = self.flat(word.pairs)
        if word.tail != self.common.identity:
            out.append(("L", self.embed_left[word.tail]))
        return out

    def mul(self, u: ReducedWord, v: ReducedWord) -> ReducedWord:
        """u * v on the pair tuples, in O(|v| + cancelled syllables) steps.

        A v with no syllables only moves u's tail.  Otherwise v's leading
        syllables cancel against u's trailing ones while each merged syllable
        falls into C; u's pairs are unpacked into syllables only as far as
        that cancellation reaches, and the one pending C element is then
        pushed through the rest of v.  The result shares u's untouched pairs
        as a tuple slice.
        """
        if not v.pairs:
            return ReducedWord(u.pairs, self.common.table[u.tail][v.tail])
        pairs = u.pairs
        i = len(pairs)  # pairs[:i] is kept as it is
        head: list = []  # the syllables of pairs[i:] still standing
        rest = self.flat(v.pairs)
        c = u.tail
        k = 0
        while k < len(rest):
            if not head and i:
                i -= 1
                head = self.flat(pairs[i:i + 1])
            side, y = rest[k]
            table, rep_of, c_part, embed, e = self._tables[side]
            y = table[embed[c]][y]
            k += 1
            if not head or head[-1][0] != side:
                head.append((side, rep_of[y]))
                c = c_part[y]
                break
            y = table[head[-1][1]][y]
            c = c_part[y]
            if rep_of[y] != e:
                head[-1] = (side, rep_of[y])
                break
            head.pop()
        if k < len(rest):
            pushed, c = self._push_c(c, rest[k:])
            head += pushed
        return self._assemble(head, self.common.table[c][v.tail], pairs[:i])

    def inv(self, u: ReducedWord) -> ReducedWord:
        """u^{-1} = c^{-1} s_k^{-1} ... s_1^{-1} for u = s_1 ... s_k c, in one
        pass: the inverted syllables still alternate and lie outside C, so
        pushing c^{-1} through them once gives the normal form."""
        inverted = [(side, self.side_group(side).inv(x)) for side, x in reversed(self.flat(u.pairs))]
        pushed, c = self._push_c(self.common.inv(u.tail), inverted)
        return self._assemble(pushed, c)

    def element_key(self, word: ReducedWord):
        return (len(word.pairs), word.pairs, word.tail)

    def as_side_element(self, side: str, word: ReducedWord) -> int | None:
        """The factor-group element equal to this word, or None if it has
        genuine syllables from the other side."""
        group, _, embed, _ = self._side(side)
        flat = self.flat(word.pairs)
        if not flat:
            return embed[word.tail]
        if len(flat) == 1 and flat[0][0] == side:
            return group.mul(flat[0][1], embed[word.tail])
        return None

    def is_reduced(self, word: ReducedWord) -> bool:
        n = len(word.pairs)
        for i, (g, h) in enumerate(word.pairs):
            if g not in self.cosets_left.reps or h not in self.cosets_right.reps:
                return False
            if i > 0 and g == self.left.identity:
                return False
            if i < n - 1 and h == self.right.identity:
                return False
            if n == 1 and g == self.left.identity and h == self.right.identity:
                return False
        return 0 <= word.tail < self.common.size

    def __repr__(self) -> str:
        return f"AmalgamGroup({self.name or (self.left.name + '*' + self.right.name)})"


def z4_z6_amalgam() -> AmalgamGroup:
    """Z/4 amalgamated with Z/6 over the common Z/2 (a^2 = b^3)."""
    z4 = FiniteGroup.cyclic(4)
    z6 = FiniteGroup.cyclic(6)
    z2 = FiniteGroup.cyclic(2)
    return AmalgamGroup(z4, z6, z2, embed_left=(0, 2), embed_right=(0, 3), name="Z4*Z6")
