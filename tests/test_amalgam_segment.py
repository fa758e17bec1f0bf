"""The shared Bass-Serre segment of the amalgam oracle and the one-entry
memos of the amalgam label map, each against an unmemoised reference."""

import json
import random
import sys
import threading
import time
from pathlib import Path

import pytest

from labparts.amalgam import TotalPoint, TreeOfCosetSpaces, amalgam_space, naive_quotient_structures
from labparts.cli import build_space
from labparts.core import MINUS_ONE, ONE, SparseVec, relabel, vertex_tag, wall
from labparts.groups import ReducedWord, ball_enumerate, z4_z6_amalgam
from oracles import bfs_tree_vertices
from test_group_search import s3_amalgam

AMALGAMS = {"Z4*Z6": z4_z6_amalgam, "S3*S3": s3_amalgam}


def copy_vertex(v):
    """An equal vertex that shares no object with v, so a memo must compare by value."""
    return v[0], ReducedWord(tuple(v[1].pairs), v[1].tail)


def reference_segment(tree, v, w):
    path = tree.vertex_path(v, w)
    return path, [tree.edge_between(a, b) for a, b in zip(path, path[1:])]


def close_pairs(tree, radius=5):
    """Every ordered pair of vertices of the radius-5 ball within tree distance 5."""
    vertices = list(bfs_tree_vertices(tree, radius))
    return [(v, w) for v in vertices for w in vertices if len(tree.vertex_path(v, w)) <= radius + 1]


def amalgam_setup(make_amalgam, q=2):
    tree = TreeOfCosetSpaces(make_amalgam())
    sgc, agc, shc, ahc = naive_quotient_structures(tree, q)
    space, action = amalgam_space(tree, sgc, agc, shc, ahc, q)
    return tree, space, action, {"L": sgc, "R": shc}, {"L": agc, "R": ahc}


def vertex_points(tree, v):
    """Every point of the vertex space X_v: the cosets v g C (or v h C)."""
    am = tree.am
    reps = (am.cosets_left if v[0] == "L" else am.cosets_right).reps
    points = {TotalPoint(v, tree.tail_free(am.mul(v[1], am.letter_word(v[0], r)))) for r in reps}
    assert all(tree.contains_point(p) for p in points)
    return sorted(points, key=repr)


# ---------------------------------------------------------------------------
# the segment reader


@pytest.mark.parametrize("name", sorted(AMALGAMS))
def test_segment_is_the_vertex_path_with_its_edges(name):
    tree = TreeOfCosetSpaces(AMALGAMS[name]())
    pairs = close_pairs(tree)
    assert len(pairs) > 300
    for v, w in pairs:
        path, edges = tree.segment(v, w)
        assert (path, edges) == reference_segment(tree, v, w)
        assert tree.tree_distance(v, w) == len(path) - 1


@pytest.mark.parametrize("name", sorted(AMALGAMS))
def test_interleaved_segment_queries_never_return_a_stale_memo(name):
    tree = TreeOfCosetSpaces(AMALGAMS[name]())
    pairs = close_pairs(tree)
    rng = random.Random(1301)
    for _ in range(400):
        (v, w), (a, b) = rng.sample(pairs, 2)
        for s, t in ((v, w), (w, v), (a, b), (copy_vertex(v), copy_vertex(w)), (v, w), (b, a), (w, v)):
            assert tree.segment(s, t) == reference_segment(tree, s, t), (s, t)


def reference_diff(tree, structs, x, y):
    """The separation vector with each part walking the path on its own."""
    path = tree.vertex_path(x.vertex, y.vertex)
    edges = [tree.edge_between(u, w) for u, w in zip(path, path[1:])]
    toward_x = [tree.project(path[0], x)] + edges
    toward_y = edges + [tree.project(path[-1], y)]
    entries = []
    for v, px, py in zip(path, toward_x, toward_y):
        if px != py:
            for label, value in structs[v[0]].diff(tree.side_point(v, px), tree.side_point(v, py)).items():
                entries.append((vertex_tag(v, label), value))
    for u, v in zip(path, path[1:]):
        edge = tree.edge_between(u, v)
        entries += [(wall((edge, u[0])), ONE), (wall((edge, v[0])), MINUS_ONE)]
    return SparseVec(entries)


@pytest.mark.parametrize("name", sorted(AMALGAMS))
def test_amalgam_diff_matches_the_per_part_reference(name):
    tree, space, _, structs, _ = amalgam_setup(AMALGAMS[name])
    rng = random.Random(1302)
    sample = [space.universe.sample(rng, 1)[0] for _ in range(60)]
    same_vertex = [(p, r) for x in sample[:8] for p in vertex_points(tree, x.vertex)
                   for r in vertex_points(tree, x.vertex)]
    pairs = same_vertex + [(x, x) for x in sample[:20]]
    pairs += [tuple(rng.sample(sample, 2)) for _ in range(300 - len(pairs))]
    assert len(pairs) == 300 and any(x != y and x.vertex == y.vertex for x, y in pairs)
    for x, y in pairs:
        # c(x, y), then c(y, x) from the reversed memo, then c(x, y) again
        for s, t in ((x, y), (y, x), (x, y)):
            assert space.diff(s, t) == reference_diff(tree, structs, s, t), (s, t)


# ---------------------------------------------------------------------------
# the label-map memos


def reference_label_map(tree, actions, gamma, label):
    am = tree.am
    gamma_inv = am.inv(gamma)
    tag, slot = label[0]
    if tag == "wall":
        edge, side = slot
        return wall((tree.tail_free(am.mul(gamma_inv, edge)), side)), 1
    v1 = tree.act_vertex(gamma_inv, slot)
    g = am.as_side_element(slot[0], am.mul(am.inv(slot[1]), am.mul(gamma, v1[1])))
    target, sign = actions[slot[0]].label_map(g, label[1:])
    return vertex_tag(v1, target), sign


@pytest.mark.parametrize("name", sorted(AMALGAMS))
def test_label_map_memos_match_an_unmemoised_reference(name):
    tree, space, action, _, actions = amalgam_setup(AMALGAMS[name])
    rng = random.Random(1303)
    words = [w for w, _ in ball_enumerate(tree.am, 3)]
    labels = []
    for _ in range(30):
        labels += space.diff(*space.universe.sample(rng, 2)).support()
    assert {label[0][0] for label in labels} == {"vertex", "wall"}
    steps = []
    for _ in range(200):
        g, h = rng.sample(words, 2)
        run = rng.sample(labels, 4)
        # runs of one element, alternation on one label, and revisits
        steps += [(g, label) for label in run] + [(h, label) for label in run]
        steps += [(g, run[0]), (h, run[0]), (g, run[0]), (ReducedWord(g.pairs, g.tail), run[1]), (h, run[1])]
    vertex_moves = set()
    for gamma, label in steps:
        expected = reference_label_map(tree, actions, gamma, label)
        assert action.label_map(gamma, label) == expected, (gamma, label)
        if label[0][0] == "vertex":
            vertex_moves.add((label[0][1], gamma, expected[0][0][1]))
    # the sequence moves some vertex to two different vertices, which a memo
    # keyed on the vertex alone would get wrong
    assert len({(v, moved) for v, _, moved in vertex_moves}) > len({v for v, _, _ in vertex_moves})


@pytest.mark.parametrize("name", sorted(AMALGAMS))
def test_relabelled_vectors_match_the_reference_in_both_directions(name):
    tree, space, action, _, actions = amalgam_setup(AMALGAMS[name])
    rng = random.Random(1304)
    words = [w for w, _ in ball_enumerate(tree.am, 3)]
    for _ in range(60):
        g = rng.choice(words)
        vec = space.diff(*space.universe.sample(rng, 2))
        inv = tree.am.inv(g)
        for element in (inv, g, inv):
            moved = [(reference_label_map(tree, actions, element, label), value) for label, value in vec.items()]
            expected = SparseVec([(target, sign * value) for (target, sign), value in moved])
            assert relabel(vec, lambda l: action.label_map(element, l)) == expected


def test_threads_sharing_the_label_map_get_the_sequential_labels():
    """Five threads map the same labels with five fixed elements through one
    shared action, with a short switch interval so that a thread can lose the
    interpreter between reading a memo's key and reading its value; every
    result must equal the one-thread mapping of a separately built space."""
    config = Path(__file__).resolve().parents[1] / "configs" / "amalgam_q2.json"
    node = json.loads(config.read_text())
    shared, reference = build_space(node, config.parent), build_space(node, config.parent)
    points = reference.points(40)
    labels = list(dict.fromkeys(label for i in range(0, 40, 3) for label in
                                reference.space.diff(points[i], points[-1 - i]).support()))[:33]
    assert len(labels) == 33 and {label[0][0] for label in labels} == {"vertex", "wall"}
    gammas = [g for g, _ in ball_enumerate(reference.group, 3)][5:30:5]
    expected = [[reference.actions["main"].label_map(g, label) for label in labels] for g in gammas]
    label_map = shared.actions["main"].label_map
    failures: list = []

    def worker(k: int, deadline: float) -> None:
        try:
            while time.monotonic() < deadline:
                got = [label_map(gammas[k], label) for label in labels]
                if got != expected[k]:
                    failures.append((k, "wrong labels"))
                    return
        except Exception as exc:  # a thread's exception is a failure of this test
            failures.append((k, repr(exc)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 1.0
        threads = [threading.Thread(target=worker, args=(k, deadline)) for k in range(len(gammas))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
