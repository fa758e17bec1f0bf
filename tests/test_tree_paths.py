"""Base paths of the Bass-Serre tree, read off the pair tuples of vertex words."""

import pytest

from labparts.amalgam import TreeOfCosetSpaces
from labparts.core import DomainError, InvalidInput
from labparts.groups import ReducedWord, z4_z6_amalgam
from oracles import bfs_tree_vertices
from test_group_search import s3_amalgam


@pytest.mark.parametrize("make_amalgam", [z4_z6_amalgam, s3_amalgam], ids=["Z4*Z6", "S3*S3"])
def test_base_paths_climb_the_bfs_levels(make_amalgam):
    tree = TreeOfCosetSpaces(make_amalgam())
    dist = bfs_tree_vertices(tree, 6)
    for v, d in dist.items():
        path = tree.path_from_base(v)
        assert len(path) == d + 1 and path[-1] == v
        assert [dist[u] for u in path] == list(range(d + 1))
        for u, w in zip(path, path[1:]):
            tree.edge_between(u, w)


def non_canonical_vertices(am):
    """One vertex-like pair per way of missing the canonical form."""
    e_g, e_h, e_c = am.left.identity, am.right.identity, am.common.identity
    g = next(r for r in am.cosets_left.reps if r != e_g)
    h = next(r for r in am.cosets_right.reps if r != e_h)
    c = next(x for x in am.common.elements() if x != e_c)
    return {
        "G-vertex ending in a trivial H-slot": ("L", ReducedWord(((g, e_h),), e_c)),
        "H-vertex ending in a nontrivial H-syllable": ("R", ReducedWord(((g, h),), e_c)),
        "nonidentity tail": ("L", ReducedWord(((g, h),), c)),
        "interior trivial syllable": ("L", ReducedWord(((g, e_h), (g, h)), e_c)),
    }


Z46_TREE = TreeOfCosetSpaces(z4_z6_amalgam())
NON_CANONICAL = non_canonical_vertices(Z46_TREE.am)


@pytest.mark.parametrize("case", list(NON_CANONICAL))
def test_path_from_base_rejects_non_canonical_vertices(case):
    v = NON_CANONICAL[case]
    assert not Z46_TREE.is_vertex(v)
    with pytest.raises(DomainError):
        Z46_TREE.path_from_base(v)


def test_vertex_of_word_rejects_an_unknown_side():
    with pytest.raises(InvalidInput):
        Z46_TREE.vertex_of_word("X", Z46_TREE.am.identity)
