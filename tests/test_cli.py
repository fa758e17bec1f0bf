import gc
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from labparts import amalgam as amalgam_mod
from labparts import cli, core
from labparts.cli import (
    ConfigError,
    build_space,
    growth_profile,
    main,
    profile_csv,
    run_checks,
)
from labparts.constructions import wreath_glue, group_naive_space
from labparts.amalgam import amalgam_energy_formula
from labparts.core import InvalidInput, check_equivariance, pair_energy
from labparts.groups import FiniteGroup, ball_enumerate, coset_table
from labparts.walls import wreath_walls
from oracles import power_tree_term_formula


@pytest.fixture
def workdir(tmp_path):
    FiniteGroup.cyclic(4).save(tmp_path / "Z4.tbl")
    FiniteGroup.cyclic(6).save(tmp_path / "Z6.tbl")
    FiniteGroup.symmetric(3).save(tmp_path / "S3.tbl")
    return tmp_path


def write_config(workdir, name, node):
    path = workdir / name
    path.write_text(json.dumps(node))
    return str(path)


AMALGAM_NODE = {
    "kind": "amalgam",
    "left": "Z4.tbl",
    "right": "Z6.tbl",
    "common": {"left": [0, 2], "right": [0, 3]},
    "q": 1,
    "factors": "naive",
}


# ---------------------------------------------------------------------------
# building


def test_build_naive_and_dist(workdir, capsys):
    cfg = write_config(workdir, "naive.json", {"kind": "naive", "points": 4, "q": 1})
    assert main(["dist", cfg, "0", "3"]) == 0
    out = capsys.readouterr().out
    assert "energy 1/1" in out and "dist 1" in out


def test_build_rejects_unknown_kind(workdir):
    with pytest.raises(ConfigError):
        build_space({"kind": "mystery"}, workdir)


def test_build_rejects_missing_keys(workdir):
    with pytest.raises(ConfigError):
        build_space({"kind": "naive"}, workdir)
    with pytest.raises(ConfigError):
        build_space({"kind": "amalgam", "left": "Z4.tbl", "q": 1}, workdir)


def test_missing_file_is_config_error(workdir):
    with pytest.raises(ConfigError):
        build_space({"kind": "naive", "group": "nope.tbl", "q": 1}, workdir)


def test_invalid_group_table_is_config_error(workdir):
    (workdir / "bad.tbl").write_text("2\n0 1\n0 1\n")
    with pytest.raises(ConfigError):
        build_space({"kind": "naive", "group": "bad.tbl", "q": 1}, workdir)


def test_nested_product_config(workdir):
    built = build_space(
        {
            "kind": "product",
            "factors": [
                {"kind": "walls_zn", "dim": 1, "q": 2},
                {"kind": "naive", "points": 3, "q": 2},
            ],
        },
        workdir,
    )
    assert pair_energy(built.space, ((0,), 0), ((3,), 1)) == 4


def test_amalgam_config_builds_and_checks(workdir):
    built = build_space(AMALGAM_NODE, workdir)
    result = run_checks(built, ["metric", "equivariance", "amalgam"], samples=30, seed=0)
    assert result["passed"]


def use_power_tree_term(monkeypatch):
    """Make the amalgam suite check the wrong d_T**q variant of the closed form."""
    monkeypatch.setattr(amalgam_mod, "amalgam_energy_formula", power_tree_term_formula)


def test_exit_codes(workdir, capsys, monkeypatch):
    cfg = write_config(workdir, "am.json", AMALGAM_NODE)
    assert main(["check", cfg, "--suite", "amalgam", "--samples", "10"]) == 0
    cfg2 = write_config(workdir, "am2.json", dict(AMALGAM_NODE, q=2))
    use_power_tree_term(monkeypatch)
    assert main(["check", cfg2, "--suite", "amalgam"]) == 1
    assert main(["dist", str(workdir / "missing.json"), "0", "1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("literal", ["[1,2]", '["a"]', '{"x": 1}'])
def test_dist_outside_the_domain_is_a_config_error(workdir, capsys, literal):
    cfg = write_config(workdir, "zw.json", {"kind": "walls_zn", "dim": 1, "q": 2})
    assert main(["dist", cfg, literal, "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Traceback" not in err


def test_free_tree_points_accept_json_lists(workdir, capsys):
    cfg = write_config(workdir, "ft.json", {"kind": "free_tree_mineyev", "rank": 2, "q": 2})
    assert main(["dist", cfg, "[1,2,1]", "[2]"]) == 0
    assert capsys.readouterr().out.startswith("energy 10/1\n")  # 2 (d + 1) with d = 4
    assert main(["dist", cfg, "[1,-1]", "[]"]) == 2  # not a reduced word
    capsys.readouterr()


def test_top_level_seed_reaches_check(workdir, monkeypatch, capsys):
    seeds = []
    run_checks_orig = cli.run_checks

    def spy(built, suites, samples, seed, *rest):
        seeds.append(seed)
        return run_checks_orig(built, suites, samples, seed, *rest)

    monkeypatch.setattr(cli, "run_checks", spy)
    cfg = write_config(workdir, "zw.json", {"kind": "walls_zn", "dim": 1, "q": 2})
    assert main(["--seed", "5", "check", cfg, "--samples", "3"]) == 0
    assert main(["--seed", "5", "check", cfg, "--samples", "3", "--seed", "7"]) == 0
    assert main(["check", cfg, "--samples", "3"]) == 0
    capsys.readouterr()
    assert seeds == [5, 7, 0]


def test_negative_control_reports_counterexample(workdir, monkeypatch):
    built = build_space(dict(AMALGAM_NODE, q=2), workdir)
    use_power_tree_term(monkeypatch)
    result = run_checks(built, ["amalgam"], samples=10, seed=0)
    assert not result["passed"]
    failing = result["suites"][0]["failures"]
    assert failing and "word" in failing[0]


# ---------------------------------------------------------------------------
# growth profiles


def test_growth_profile_z_walls(workdir):
    built = build_space({"kind": "walls_zn", "dim": 1, "q": 2}, workdir)
    profile = growth_profile(built, 5)
    for row in profile["rows"]:
        assert row["min_energy"] == row["radius"]
        assert row["sphere_size"] == (1 if row["radius"] == 0 else 2)
    assert not profile["partial"]


@pytest.mark.parametrize(
    "node, diameter",
    [
        ({"kind": "wreath_glue", "group": "Z4.tbl", "co_subgroup": [0], "q": 2}, 4),
        ({"kind": "naive", "group": {"cyclic": 3}, "q": 1}, 1),
    ],
)
def test_growth_past_a_finite_groups_diameter(workdir, tmp_path, node, diameter):
    cfg = write_config(workdir, "finite.json", node)
    exact, past = tmp_path / "exact.csv", tmp_path / "past.csv"
    assert main(["growth", cfg, "--radius", str(diameter), "--out", str(exact)]) == 0
    assert main(["growth", cfg, "--radius", str(diameter + 2), "--out", str(past)]) == 0
    lines = past.read_text().splitlines(keepends=True)
    assert "".join(lines[:-1]) == exact.read_text()
    assert lines[-1] == f"# radius {diameter + 2} requested; spheres past radius {diameter} are empty\n"


def test_growth_profile_needs_action(workdir):
    built = build_space({"kind": "naive", "points": 4, "q": 1}, workdir)
    with pytest.raises(ConfigError):
        growth_profile(built, 3)


def test_profile_csv_deterministic(workdir):
    built = build_space({"kind": "walls_zn", "dim": 1, "q": 2}, workdir)
    a = profile_csv(growth_profile(built, 4))
    b = profile_csv(growth_profile(built, 4))
    assert a == b
    assert a.splitlines()[0] == "radius,sphere_size,min_energy,min_dist,max_dist,mean_dist"


# SHA-256 of each CSV that scripts/growth_profiles.py writes, recorded when
# the script still kept its own sphere loop
GROWTH_SCRIPT_CSVS = {
    "amalgam.csv": "fea6f2edcee85ce473395a31e06cedf1549bed992f99fd28f4b21bccabc0c1df",
    "free_tree.csv": "16d826483ab99f701997067e6220cb6bece5892f0efd868ab636a382c52deba5",
    "infinite_dihedral.csv": "83db96aa7a9b6c84b09039bac65d79de986d65bc82ec1479dd478731da107949",
    "lamp_sum.csv": "e1fe59b06a715d76b97d82d8ea35ca799d86a6f792a8597bbb1ba223e0babca6",
    "z_walls.csv": "70b4bc611c795684fc459c19abdd0ed70ae704212c35cfd15669da887e1126f8",
}


def test_growth_profiles_script_output_is_pinned(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    subprocess.run([sys.executable, str(root / "scripts" / "growth_profiles.py"), str(tmp_path)],
                   env=env, check=True, capture_output=True)
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("*.csv")}
    assert written == GROWTH_SCRIPT_CSVS


def test_cli_growth_and_export_files(workdir, tmp_path, capsys):
    cfg = write_config(workdir, "zw.json", {"kind": "walls_zn", "dim": 1, "q": 1})
    out = tmp_path / "growth.csv"
    assert main(["growth", cfg, "--radius", "4", "--out", str(out)]) == 0
    assert out.read_text().startswith("radius,")
    assert main(["export", cfg, "--what", "labels", "--limit", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(entry["weight"] == "1/1" for entry in payload)
    assert main(["table", cfg, "--limit", "3"]) == 0
    table = capsys.readouterr().out
    assert table.splitlines()[0] == "x,y,energy,dist"


def test_point_index_syntax(workdir, capsys):
    cfg = write_config(workdir, "am.json", AMALGAM_NODE)
    assert main(["dist", cfg, "#0", "#2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("energy ")


def test_dist_enumerates_the_orbit_once_and_runs_the_oracle_once(workdir, monkeypatch, capsys):
    cfg = write_config(workdir, "am.json", AMALGAM_NODE)
    limits, oracle_calls = [], []
    points, sep = cli.Built.points, core.sep
    monkeypatch.setattr(cli.Built, "points", lambda built, limit: limits.append(limit) or points(built, limit))
    monkeypatch.setattr(core, "sep", lambda *args: oracle_calls.append(args[1:]) or sep(*args))
    assert main(["dist", cfg, "#5", "#2"]) == 0
    assert limits == [6] and len(oracle_calls) == 1
    orbit = points(build_space(AMALGAM_NODE, workdir), 6)
    assert oracle_calls == [(orbit[5], orbit[2])]
    capsys.readouterr()


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def config_node(name):
    return json.loads((CONFIGS / name).read_text())


POWER_TERM_REPORT = """\
{
  "passed": false,
  "suites": [
    {
      "failures": [
        {
          "formula": "5/1",
          "oracle": "3/1",
          "word": "ReducedWord(pairs=((0, 1),), tail=0)"
        },
        {
          "formula": "5/1",
          "oracle": "3/1",
          "word": "ReducedWord(pairs=((0, 2),), tail=1)"
        }
      ],
      "name": "amalgam-formula[linear]",
      "passed": false,
      "samples": 6
    }
  ]
}
"""


def test_a_failure_report_writes_each_word_by_its_repr(capsys, monkeypatch):
    # a reduced word is a named tuple; the report keeps it whole, not as nested lists
    config = str(CONFIGS / "amalgam_q2.json")
    use_power_tree_term(monkeypatch)
    assert main(["check", config, "--suite", "amalgam", "--samples", "6"]) == 1
    assert capsys.readouterr().out == POWER_TERM_REPORT


@pytest.mark.parametrize("index", ["#-1", "#abc", "#", "#400"])
def test_bad_point_index_is_a_config_error(capsys, index):
    # the wreath orbit is finite (16 points), so #400 is out of range
    assert main(["dist", str(CONFIGS / "wreath.json"), "#0", index]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Traceback" not in err


@pytest.mark.parametrize("config, index", [("dihedral.json", "#40"), ("amalgam_q2.json", "#400")])
def test_dist_past_radius_8_of_an_infinite_orbit(config, index, capsys):
    assert main(["dist", str(CONFIGS / config), index, "#0"]) == 0
    assert capsys.readouterr().out.startswith("energy ")


def test_z_walls_dist_matches_pair_energy_past_the_window(capsys):
    built = build_space(config_node("z_walls.json"), CONFIGS)
    orbit = built.points(61)
    energy = pair_energy(built.space, orbit[60], orbit[0])
    assert main(["dist", str(CONFIGS / "z_walls.json"), "#60", "#0"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == f"energy {cli.rational_str(energy)}"


def test_table_lists_the_orbit_past_radius_8(monkeypatch, capsys):
    # the row count depends on the enumeration only, so the energies are stubbed
    monkeypatch.setattr(cli, "pair_energy", lambda space, x, y: Fraction(0))
    assert main(["table", str(CONFIGS / "amalgam_q2.json"), "--limit", "120"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 120 ** 2 and len({row.split('","')[0] for row in rows}) == 120


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIGS.glob("*.json")))
def test_points_with_limit_0_is_empty(config):
    assert build_space(config_node(config), CONFIGS).points(0) == []


def test_orbit_enumerated_spaces_are_freed_without_the_cycle_collector():
    gc.disable()
    try:
        for config in sorted(CONFIGS.glob("*.json")):
            built = build_space(config_node(config.name), CONFIGS)
            if built.orbit:
                built.points(5)
                ref = weakref.ref(built)
                del built
                assert ref() is None, config.stem
    finally:
        gc.enable()


def list_scan_points(built, limit):
    """The orbit enumeration as a list scan, acting on the whole ball at every
    radius until the ball stops growing."""
    action = built.actions["main"]
    out = [built.basepoint]
    radius, ball_size = 1, 1
    while len(out) < limit:
        ball = ball_enumerate(action.group, radius)
        if len(ball) == ball_size:
            break
        for g, _ in ball:
            p = action.point_map(g, built.basepoint)
            if p not in out:
                out.append(p)
            if len(out) >= limit:
                break
        radius, ball_size = radius + 1, len(ball)
    return out[:limit]


def test_orbit_enumeration_matches_list_scan():
    uses = []
    for config in sorted(CONFIGS.glob("*.json")):
        built = build_space(json.loads(config.read_text()), CONFIGS)
        if built.orbit:
            uses.append(config.stem)
            for limit in range(1, 61):
                assert built.points(limit) == list_scan_points(built, limit), (config.stem, limit)
    assert uses == ["amalgam_q1", "amalgam_q2", "dihedral", "free_tree", "proper_sum", "wreath", "z2_walls", "z_walls"]


# ---------------------------------------------------------------------------
# the remaining kinds build and pass their own checks


@pytest.mark.parametrize(
    "node",
    [
        {"kind": "naive", "points": 4, "weight": "3", "q": 2},
        {"kind": "metric_linf", "points": ["a", "b"], "matrix": [[0, 5], [5, 0]]},
        {"kind": "pullback", "inner": {"kind": "walls_zn", "dim": 1, "q": 1}, "map": {"type": "scale", "factor": 2}},
        {"kind": "proper_sum", "q": 2, "window": [-2, -1, 0, 1, 2], "phi": "one_plus_abs"},
        {"kind": "semidirect", "q": 2},
        {"kind": "quotient_average", "group": "Z4.tbl", "subgroup": [0, 2], "structure": "naive", "q": 1},
        {
            "kind": "quotient_average",
            "group": "S3.tbl",
            "subgroup": [0, 3],
            "structure": {"subgroups": [[0, 3]]},
            "q": 2,
        },
        {"kind": "wreath_glue", "group": "Z4.tbl", "co_subgroup": [0], "q": 2},
        {"kind": "free_tree_mineyev", "rank": 2, "radius": 3, "q": 2},
    ],
)
def test_all_kinds_build_and_pass_metric_suite(workdir, node):
    if node["kind"] == "quotient_average" and node["group"] == "S3.tbl":
        s3 = FiniteGroup.symmetric(3)
        inv = next(g for g in range(6) if g != s3.identity and s3.mul(g, g) == s3.identity)
        node = json.loads(json.dumps(node))
        node["subgroup"] = [s3.identity, inv]
        node["structure"]["subgroups"] = [[s3.identity, inv]]
    built = build_space(node, workdir)
    suites = ["metric"] + (["equivariance"] if built.actions else [])
    result = run_checks(built, suites, samples=25, seed=1)
    assert result["passed"], result


def test_weighted_naive_example(workdir):
    built = build_space({"kind": "naive", "points": 4, "weight": "3", "q": 2}, workdir)
    assert pair_energy(built.space, 0, 1) == 9


def test_pullback_scale_distance(workdir):
    built = build_space(
        {"kind": "pullback", "inner": {"kind": "walls_zn", "dim": 1, "q": 1}, "map": {"type": "scale", "factor": 2}},
        workdir,
    )
    assert pair_energy(built.space, (0,), (3,)) == 6


def test_cocycle_config(workdir, capsys):
    (workdir / "coc.txt").write_text("q 2\ngen 1 | 1 | 1\n")
    cfg = write_config(workdir, "coc.json", {"kind": "cocycle", "group": "Z", "file": "coc.txt", "radius": 6})
    assert main(["dist", cfg, "3", "-1"]) == 0
    out = capsys.readouterr().out
    assert "energy 16/1" in out and "dist 4" in out
    built = build_space({"kind": "cocycle", "group": "Z", "file": "coc.txt", "radius": 6}, workdir)
    result = run_checks(built, ["metric"], samples=25, seed=0)
    assert result["passed"], result


# (G, L) for I = G/L: plain translation on Z/4, a two-coset quotient of Z/4,
# and S3 over the subgroup of the transposition (0 1), which is not normal
WREATH_CASES = {
    "Z4-trivial": (FiniteGroup.cyclic(4), (0,)),
    "Z4-order2": (FiniteGroup.cyclic(4), (0, 2)),
    "S3-transposition": (FiniteGroup.symmetric(3), (0, FiniteGroup.symmetric(3).generators[0])),
}


def wreath_case(name):
    """The wreath gluing over a case's (G, L) with naive Z/2 lamps, and its walls, lamp group and cosets."""
    group, subgroup = WREATH_CASES[name]
    space, aw, ag = wreath_glue(group, subgroup, *group_naive_space(FiniteGroup.cyclic(2), 2))
    return group, space, aw, ag, wreath_walls(aw.group), aw.group, coset_table(group, subgroup)


@pytest.mark.parametrize("case", WREATH_CASES)
def test_wreath_energy_identity(case):
    group, space, aw, ag, walls, group_w, cosets = wreath_case(case)
    i0 = cosets.reps[0]
    x0 = (((), i0), ())
    for w in group_w.elements():
        moved = aw.point_map(w, x0)
        expected = walls.wall_distance((w, i0), ((), i0)) + len(w)
        assert pair_energy(space, moved, x0) == expected


@pytest.mark.parametrize("case", WREATH_CASES)
def test_wreath_shift_compatibility(case, rng):
    group, space, aw, ag, walls, group_w, cosets = wreath_case(case)
    wball = [g for g, _ in ball_enumerate(group_w, 2)]
    for _ in range(80):
        g = rng.randrange(group.size)
        w = rng.choice(wball)
        x = space.universe.sample(rng, 1)[0]
        lhs = ag.point_map(g, aw.point_map(w, ag.point_map(group.inv(g), x)))
        rho_w = tuple(sorted((cosets.rep_of[group.mul(g, i)], h) for i, h in w))
        assert lhs == aw.point_map(rho_w, x)
    samples = [(rng.randrange(group.size), space.universe.sample(rng, 1)[0], space.universe.sample(rng, 1)[0])
               for _ in range(100)]
    assert check_equivariance(space, ag, samples).passed
    w_samples = [(rng.choice(wball), space.universe.sample(rng, 1)[0], space.universe.sample(rng, 1)[0])
                 for _ in range(100)]
    assert check_equivariance(space, aw, w_samples).passed


def test_byte_identical_outputs(workdir, tmp_path):
    cfg = write_config(
        workdir, "ps.json", {"kind": "proper_sum", "q": 2, "window": [-2, -1, 0, 1, 2], "phi": "one_plus_abs"}
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["growth", cfg, "--radius", "3", "--out", str(a)]) == 0
    assert main(["growth", cfg, "--radius", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    ra, rb = tmp_path / "ra.json", tmp_path / "rb.json"
    assert main(["check", cfg, "--suite", "metric", "--samples", "20", "--out", str(ra)]) == 0
    assert main(["check", cfg, "--suite", "metric", "--samples", "20", "--out", str(rb)]) == 0
    assert ra.read_bytes() == rb.read_bytes()


# stdout of scripts/amalgam_energy_sweep.py per (radius, q) argument pair
SWEEP_SCRIPT_STDOUT = {
    ("4", "2"): "20bc373fa93161b575a07f9994a645f57a0deb92393967480f58af262c0ea6f2",
    ("5", "1"): "a010dc9ea40e8e2b9693a9faaec8187f1c6821dadee2af4484659138f7995980",
}


@pytest.mark.parametrize("args", sorted(SWEEP_SCRIPT_STDOUT))
def test_amalgam_energy_sweep_output_is_pinned(args):
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run([sys.executable, str(root / "scripts" / "amalgam_energy_sweep.py"), *args],
                          env=env, capture_output=True)
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout).hexdigest() == SWEEP_SCRIPT_STDOUT[args]


def test_amalgam_energy_sweep_exits_0_quietly_when_the_reader_closes_the_pipe():
    # radius 14 prints about 120 kB, more than a pipe holds, so the sweep is still writing when it closes
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    with subprocess.Popen([sys.executable, str(root / "scripts" / "amalgam_energy_sweep.py"), "14", "2"],
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as done:
        assert done.stdout.readline().startswith(b"word | n | d_T") and done.stdout.readline()
        done.stdout.close()
        err = done.stderr.read()
    assert done.returncode == 0 and b"Traceback" not in err, err


def test_amalgam_energy_sweep_exits_1_on_a_linear_mismatch(monkeypatch, capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "amalgam_energy_sweep.py"
    spec = importlib.util.spec_from_file_location("amalgam_energy_sweep", path)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    formula = sweep.amalgam_energy_formula

    def off_by_one_linear(*args):
        return formula(*args) + 1

    monkeypatch.setattr(sweep, "amalgam_energy_formula", off_by_one_linear)
    monkeypatch.setattr(sys, "argv", ["amalgam_energy_sweep.py", "2", "1"])
    assert sweep.main() == 1
    out, err = capsys.readouterr()
    assert "LINEAR MISMATCH" in out and err.startswith("linear-formula mismatches:")
    monkeypatch.setattr(sweep, "amalgam_energy_formula", formula)
    assert sweep.main() == 0


def test_amalgam_energy_sweep_exits_2_under_the_sup_norm():
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run([sys.executable, str(root / "scripts" / "amalgam_energy_sweep.py"), "2", "sup"],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 2 and done.stdout == ""
    assert "q must be a rational >= 1" in done.stderr and "Traceback" not in done.stderr


def test_the_amalgam_formula_suite_does_not_apply_under_the_sup_norm(workdir, capsys):
    # the closed form sums q-th powers; a sup-norm energy is a maximum (the
    # oracle gives 1/2 for the word ((0, 1),), the sum would give 5/2)
    node = dict(AMALGAM_NODE, q="sup")
    cfg = write_config(workdir, "am_sup.json", node)
    assert main(["check", cfg, "--suite", "amalgam"]) == 2
    assert "check --suite amalgam does not apply to this config" in capsys.readouterr().err
    assert main(["check", cfg, "--samples", "20"]) == 0
    suites = json.loads(capsys.readouterr().out)["suites"]
    assert [s["name"] for s in suites] == ["pseudo-metric", "equivariance[main]"]
    built = build_space(node, workdir)
    assert run_checks(built, ["amalgam"], samples=5, seed=0) == {"passed": True, "suites": []}
    tree, sgc, shc = (built.extras[key] for key in ("tree", "struct_gc", "struct_hc"))
    with pytest.raises(InvalidInput):
        amalgam_energy_formula(tree, sgc, shc, "sup", tree.am.identity)


@pytest.mark.parametrize("term, code", [("linear", 0), ("power", 1)])
def test_amalgam_formula_at_a_non_integer_q(workdir, capsys, monkeypatch, term, code):
    """At q = 3/2 the power term d_T**q is a float: it fails with a float
    counterexample, and the linear term passes on all 44 words of the ball."""
    cfg = write_config(workdir, "am32.json", dict(AMALGAM_NODE, q="3/2"))
    if term == "power":
        use_power_tree_term(monkeypatch)
    assert main(["check", cfg, "--suite", "amalgam"]) == code
    (suite,) = json.loads(capsys.readouterr().out)["suites"]
    assert suite["samples"] == 44 and suite["passed"] == (code == 0)
    for failure in suite["failures"]:
        assert type(failure["formula"]) is float and failure["formula"] != failure["oracle"]
    assert bool(suite["failures"]) == (term == "power")
    if term == "linear":
        # a q-th power of a nonzero syllable term is a float at q = 3/2, and exact at q = 2
        for q, kind in (("3/2", float), (2, Fraction)):
            built = build_space(dict(AMALGAM_NODE, q=q), workdir)
            tree, sgc, shc = (built.extras[key] for key in ("tree", "struct_gc", "struct_hc"))
            assert type(amalgam_energy_formula(tree, sgc, shc, q, tree.am.letter_word("L", 1))) is kind


@pytest.mark.parametrize("samples, checked", [(0, 0), (5, 5), (50, 44)])  # the radius-4 ball has 44 words
def test_amalgam_suite_checks_at_most_samples_words(capsys, samples, checked):
    argv = ["check", str(CONFIGS / "amalgam_q1.json"), "--suite", "amalgam", "--samples", str(samples)]
    assert main(argv) == 0
    (suite,) = json.loads(capsys.readouterr().out)["suites"]
    assert suite["samples"] == checked and suite["passed"]


def test_amalgam_suite_takes_ball_words_in_ball_order(workdir, monkeypatch):
    # ball word 0 is the identity (d_T = 0); words 1 and 2 have d_T = 2, where the power term is wrong
    built = build_space(dict(AMALGAM_NODE, q=2), workdir)
    use_power_tree_term(monkeypatch)
    assert run_checks(built, ["amalgam"], samples=1, seed=0)["passed"]
    assert not run_checks(built, ["amalgam"], samples=2, seed=0)["passed"]
