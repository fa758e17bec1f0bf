"""The benchmark's workloads: closed-loop sessions of ``labparts`` CLI calls.

A workload is one client sending a fixed list of CLI invocations, each
started after the previous one returned.  The seed picks the ``dist`` pairs
and literal points and the ``check --seed`` value; every other command is
fixed, so its output can be compared with a stored SHA-256 reference.

Why these three workloads:

* ``amalgam``: most of the time is amalgam normal-form arithmetic under the
  Bass-Serre tree paths and projections; a faster tree oracle shows here.
* ``tree-walls``: the free-group tree and Z^2 walls oracles are cheap, so
  ``core.q_energy`` and ``SparseVec`` arithmetic dominate and no amalgam code
  runs; a core change shows here and an amalgam-only change must not.
* ``sums-check``: invariant suites over the sum, product, wreath, semidirect
  and quotient constructions run vector algebra and the factor-tagging label
  maps rather than energy sums.

Every workload holds every subcommand, so each end-to-end metric is defined
on each of them.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("amalgam", "tree-walls", "sums-check")

AMALGAM = "configs/amalgam_q2.json"
FREE_TREE = "configs/free_tree.json"
Z2_WALLS = "configs/z2_walls.json"
PROPER_SUM = "configs/proper_sum.json"
DIHEDRAL = "configs/dihedral.json"
SUMS_CHECKED = (PROPER_SUM, "configs/wreath.json", "configs/product.json", DIHEDRAL,
                "configs/quotient_average.json", "configs/z_walls.json")

# configs whose build cost makes up the workload's set-up time
CONFIGS = {
    "amalgam": (AMALGAM,),
    "tree-walls": (FREE_TREE, Z2_WALLS),
    "sums-check": SUMS_CHECKED,
}

DIST_CALLS = 40
TINY_DIST_CALLS = 4


def session_seed(seed: int, session: int) -> int:
    """The ``check --seed`` value of one session; session 0 uses the seed itself."""
    return seed + 1000 * session


def _rng(workload: str, seed: int, session: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{session}")


def _index_pairs(rng: random.Random, n_points: int, calls: int) -> list[tuple[int, int]]:
    # every index appears equally often on each side, so the cost mix of a
    # stream varies little between seeds while the pairing stays random
    xs = [i % n_points for i in range(calls)]
    ys = list(xs)
    rng.shuffle(xs)
    rng.shuffle(ys)
    return list(zip(xs, ys))


def _index_stream(rng, config: str, n_points: int, calls: int) -> list[list[str]]:
    return [["dist", config, f"#{i}", f"#{j}"] for i, j in _index_pairs(rng, n_points, calls)]


def _literal_stream(rng, config: str, dim: int, extent: int, calls: int) -> list[list[str]]:
    def point() -> str:
        return json.dumps([rng.randint(-extent, extent) for _ in range(dim)], separators=(",", ":"))

    return [["dist", config, point(), point()] for _ in range(calls)]


def _check(config: str, seed: int, samples: int) -> list[str]:
    return ["check", config, "--suite", "all", "--seed", str(seed), "--samples", str(samples)]


def session_commands(workload: str, seed: int, session: int, tiny: bool = False) -> list[list[str]]:
    """The timed CLI argv lists of one session, in the order they are sent."""
    rng = _rng(workload, seed, session)
    check_seed = session_seed(seed, session)
    calls = TINY_DIST_CALLS if tiny else DIST_CALLS
    if workload == "amalgam":
        n = 6 if tiny else 20
        return [
            ["table", AMALGAM, "--limit", str(n)],
            ["growth", AMALGAM, "--radius", "3" if tiny else "7"],
            _check(AMALGAM, check_seed, 5 if tiny else 50),
            ["export", AMALGAM, "--what", "vectors", "--limit", str(n)],
        ] + _index_stream(rng, AMALGAM, 8 if tiny else 40, calls)
    if workload == "tree-walls":
        # a quarter of the dist calls go to the faster Z^2 walls config, so the
        # median latency lies inside the free-tree population, not between the two
        stream = (_index_stream(rng, FREE_TREE, 8 if tiny else 80, calls - calls // 4)
                  + _literal_stream(rng, Z2_WALLS, 2, 8, calls // 4))
        return [
            ["growth", FREE_TREE, "--radius", "3" if tiny else "6"],
            ["table", FREE_TREE, "--limit", "8" if tiny else "40"],
            ["growth", Z2_WALLS, "--radius", "4" if tiny else "20"],
            ["table", Z2_WALLS, "--limit", "8" if tiny else "40"],
            _check(FREE_TREE, check_seed, 5 if tiny else 100),
            ["export", FREE_TREE, "--what", "vectors", "--limit", "6" if tiny else "30"],
        ] + stream
    if workload == "sums-check":
        return [_check(c, check_seed, 5 if tiny else 100) for c in SUMS_CHECKED] + [
            ["export", PROPER_SUM, "--what", "labels", "--limit", "6" if tiny else "30"],
            ["table", PROPER_SUM, "--limit", "6" if tiny else "25"],
            ["growth", DIHEDRAL, "--radius", "5" if tiny else "50"],
        ] + _index_stream(rng, PROPER_SUM, 8 if tiny else 30, calls)
    raise ValueError(f"unknown workload {workload!r}")


def deterministic_commands(tiny: bool) -> list[list[str]]:
    """The commands whose output does not depend on the seed (hash-checked)."""
    out = []
    for workload in WORKLOADS:
        for argv in session_commands(workload, 0, 0, tiny):
            if argv[0] in ("table", "growth", "export"):
                out.append(argv)
    return out


# Known defects (ROADMAP item 4).  Each runs untimed once per run with the
# exit code the CLI contract expects: 0 success, 1 check failed, 2 bad input.
# They stay in the run so that a fix, or a new break, shows in error_rate.
def known_defects(seed: int) -> list[dict]:
    top_seed = seed + 1  # never the check subparser's default of 0
    z_walls, wreath = "configs/z_walls.json", "configs/wreath.json"
    ops = [
        ("top-level-seed", 0, z_walls, ["--seed", str(top_seed), "check", z_walls, "--samples", "5"]),
        ("dist-outside-domain", 2, z_walls, ["dist", z_walls, "[1,2]", "0"]),
        ("growth-past-diameter", 0, wreath, ["growth", wreath, "--radius", "6"]),
        ("dist-infinite-orbit-index", 0, DIHEDRAL, ["dist", DIHEDRAL, "#40", "#0"]),
        ("free-word-literal", 0, FREE_TREE, ["dist", FREE_TREE, "[1,2,1]", "[2]"]),
    ]
    return [{"name": n, "expect": e, "config": c, "argv": a, "seed": top_seed if n == "top-level-seed" else None}
            for n, e, c, a in ops]


def files_used(workload: str, root: Path) -> list[str]:
    """Config and group-table files a workload reads, relative to ``root``."""
    configs = set(CONFIGS[workload])
    configs.update(argv[1] for argv in session_commands(workload, 0, 0))
    configs.update(p["config"] for p in known_defects(0))
    out = set()
    for config in configs:
        out.add(config)
        text = (root / config).read_text()
        for value in _strings(json.loads(text)):
            if value.endswith(".tbl"):
                out.add(str(Path(config).parent / value))
    return sorted(out)


def _strings(node):
    if isinstance(node, str):
        yield node
    elif isinstance(node, dict):
        for v in node.values():
            yield from _strings(v)
    elif isinstance(node, list):
        for v in node:
            yield from _strings(v)
