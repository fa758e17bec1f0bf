"""The ``export`` subcommand against a direct pairwise export.

``export`` calls the oracle once per listed point, c(x, x0) with x0 the first
point, and derives every pair by the Chasles relation c(x, y) = c(x, x0) +
c(x0, y).  These tests rebuild the export the direct way, one oracle call per
pair, and compare the printed bytes.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from labparts import cli
from labparts.cli import build_space, main, rational_str
from labparts.core import SparseVec, label_key, sep

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
ALL_CONFIGS = sorted(path.stem for path in CONFIGS.glob("*.json"))


def built_of(config: Path):
    return build_space(json.loads(config.read_text()), config.parent)


def direct_export(built, limit: int, what: str) -> str:
    """``export --what what --limit limit`` with one oracle call per pair i < j."""
    points = built.points(limit)
    pairs = [(x, y, sep(built.space, x, y)) for i, x in enumerate(points) for y in points[i + 1 :]]
    if what == "vectors":
        payload = [
            {"x": repr(x), "y": repr(y), "vector": {label_key(l): rational_str(v) for l, v in vec.items()}}
            for x, y, vec in pairs
        ]
    else:
        labels = {label_key(l): rational_str(built.space.norm.weight(l)) for _, _, vec in pairs for l in vec.support()}
        payload = [{"label": k, "weight": labels[k]} for k in sorted(labels)]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def exported(capsys, config: Path, limit: int, what: str) -> str:
    assert main(["export", str(config), "--what", what, "--limit", str(limit)]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("what", ["labels", "vectors"])
@pytest.mark.parametrize("limit", [0, 1, 12])
@pytest.mark.parametrize("name", ALL_CONFIGS)
def test_export_equals_the_direct_pairwise_export(capsys, name, limit, what):
    config = CONFIGS / f"{name}.json"
    assert exported(capsys, config, limit, what) == direct_export(built_of(config), limit, what)


def counting_root_diff(monkeypatch) -> list:
    """Patch ``cli.build_space`` so that the root node's ``diff`` counts its
    calls; the returned one-item list holds the count."""
    calls = [0]

    def counted_build(node, base_dir, path="root"):
        built = build_space(node, base_dir, path)
        if path == "root":
            diff = built.space.diff

            def counted(x, y):
                calls[0] += 1
                return diff(x, y)

            built.space = dataclasses.replace(built.space, diff=counted)
        return built

    monkeypatch.setattr(cli, "build_space", counted_build)
    return calls


@pytest.mark.parametrize("what", ["labels", "vectors"])
@pytest.mark.parametrize("name", ALL_CONFIGS)
def test_export_makes_one_oracle_call_per_point(monkeypatch, capsys, name, what):
    calls = counting_root_diff(monkeypatch)
    exported(capsys, CONFIGS / f"{name}.json", 12, what)
    assert calls[0] <= 12


def test_amalgam_export_makes_n_oracle_calls_not_one_per_pair(monkeypatch, capsys):
    calls = counting_root_diff(monkeypatch)
    assert len(json.loads(exported(capsys, CONFIGS / "amalgam_q2.json", 20, "vectors"))) == 190
    assert calls[0] == 20  # one call per pair would be 190


def test_an_oracle_that_breaks_chasles_is_caught(capsys, monkeypatch):
    # an extra label on c(x, y) only when x < y: antisymmetry and Chasles both
    # fail, so pairs derived through x0 differ from the oracle's own vectors
    extra = SparseVec({("extra",): 1})

    def mutated(node, base_dir, path="root"):
        built = build_space(node, base_dir, path)
        if path == "root":
            diff = built.space.diff
            built.space = dataclasses.replace(built.space, diff=lambda x, y: diff(x, y) + extra if x < y else diff(x, y))
        return built

    config = CONFIGS / "z2_walls.json"
    direct = direct_export(mutated(json.loads(config.read_text()), config.parent), 12, "vectors")
    monkeypatch.setattr(cli, "build_space", mutated)
    assert exported(capsys, config, 12, "vectors") != direct
