"""The CLI's error contract: bad input exits 2, never with a traceback."""

import ast
import dataclasses
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from labparts.cli import build_space, growth_profile, main
from labparts.core import DomainError
from labparts.examples import MAX_METRIC_POINTS

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
CONFIG_NAMES = sorted(p.name for p in CONFIGS.glob("*.json"))


def run(argv, capsys):
    """Exit code and stderr of one in-process CLI call; argparse errors exit
    through SystemExit, configuration errors return their code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


def test_growth_with_a_negative_radius_exits_2(capsys):
    code, err = run(["growth", str(CONFIGS / "wreath.json"), "--radius", "-1"], capsys)
    assert code == 2 and "--radius" in err and "Traceback" not in err


@pytest.mark.parametrize("literal", ["[1.5,2]", "[true,2]", "[2,2.0]"])
def test_dist_rejects_non_integer_walls_coordinates(literal, capsys):
    code, err = run(["dist", str(CONFIGS / "z2_walls.json"), literal, "[2,3]"], capsys)
    assert code == 2 and err.startswith("configuration error:")


# each case carries its id, so dropping one leaves the others' names as they are
@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["table", "z_walls.json", "--limit", "-1"], id="argv0"),
        pytest.param(["export", "z_walls.json", "--what", "labels", "--limit", "-1"], id="argv1"),
        pytest.param(["check", "z_walls.json", "--samples", "-2"], id="argv2"),
        pytest.param(["growth", "z_walls.json", "--radius", "2", "--budget", "-1"], id="argv3"),
    ],
)
def test_negative_counts_exit_2(argv, capsys):
    argv = [argv[0], str(CONFIGS / argv[1])] + argv[2:]
    code, err = run(argv, capsys)
    assert code == 2 and "must be >= 0" in err


def test_negative_phi_weights_are_a_config_error(tmp_path, capsys):
    config = tmp_path / "ps.json"
    config.write_text('{"kind": "proper_sum", "q": 2, "window": [0, 1, 2], "phi": [1, -2, 3]}')
    code, err = run(["dist", str(config), "#0", "#2"], capsys)
    assert code == 2 and "phi values must be nonnegative" in err


# malformed arguments per subcommand, placed after ``<subcommand> <config>``;
# a large orbit index may name a real point in an infinite orbit
BAD_ARGS = {
    "dist": [["#0", bad] for bad in ("#-1", "#abc", "#", "[1.5,2]", "true", '"x"', '{"a": 1}', "[[[]]]", "{")],
    "table": [["--limit", "-1"], ["--limit", "abc"]],
    "growth": [["--radius", "-1"], ["--radius", "2", "--budget", "-1"], ["--radius", "1.5"]],
    "check": [["--samples", "-2"], ["--samples", "x"], ["--suite", "nope"]],
    "export": [["--what", "labels", "--limit", "-1"], ["--what", "nothing"]],
}
MAYBE_VALID = {"dist": [["#0", "#400"]]}
REQUIRED = {"dist": ["#0", "#1"], "growth": ["--radius", "1"], "export": ["--what", "labels"]}


@pytest.mark.parametrize("config", CONFIG_NAMES)
def test_malformed_input_exits_2_without_traceback(config, capsys):
    for command, cases in BAD_ARGS.items():
        for args in cases + MAYBE_VALID.get(command, []):
            argv = [command, str(CONFIGS / config)] + args
            code, err = run(argv, capsys)
            expected = {0, 2} if args in MAYBE_VALID.get(command, []) else {2}
            assert code in expected and "Traceback" not in err, (argv, code, err)


@pytest.mark.parametrize("command", sorted(BAD_ARGS))
def test_missing_config_file_exits_2(command, tmp_path, capsys):
    code, err = run([command, str(tmp_path / "missing.json")] + REQUIRED.get(command, []), capsys)
    assert code == 2 and err.startswith("configuration error:")


def config_node(name: str) -> dict:
    return json.loads((CONFIGS / name).read_text())


# one bad value per node; each raised a bare ValueError, TypeError,
# ZeroDivisionError, IndexError, KeyError (a short phi list, on first use)
# or IsADirectoryError (an empty file name) out of the CLI
BAD_VALUES = {
    "dim": {**config_node("z_walls.json"), "dim": "x"},
    "q": {**config_node("naive.json"), "q": None},
    "q_over_zero": {**config_node("amalgam_q2.json"), "q": "2/0"},
    "window": {**config_node("proper_sum.json"), "window": 5},
    "points": {**config_node("naive.json"), "points": "x"},
    "cyclic": {"kind": "naive", "group": {"cyclic": [2]}, "q": 2},
    "common": {**config_node("amalgam_q1.json"), "common": [0, 2]},
    "rank": {**config_node("free_tree.json"), "rank": "a"},
    "co_subgroup": {**config_node("wreath.json"), "co_subgroup": "ab"},
    "matrix": {"kind": "metric_linf", "points": ["a", "b"], "matrix": [[0, "x"], ["x", 0]]},
    "embedding": {**config_node("amalgam_q1.json"), "common": {"left": [7], "right": [0]}},
    "phi": {**config_node("proper_sum.json"), "phi": [1, 2]},
    "group_file": {**config_node("wreath.json"), "group": ""},
}


@pytest.mark.parametrize("key", sorted(BAD_VALUES))
def test_bad_config_values_exit_2(key, tmp_path, capsys):
    for table in CONFIGS.glob("*.tbl"):
        shutil.copy(table, tmp_path)
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(BAD_VALUES[key]))
    code, err = run(["table", str(config), "--limit", "3"], capsys)
    assert code == 2 and err.startswith("configuration error: root")


def test_a_nested_config_error_keeps_its_own_path(tmp_path, capsys):
    config = tmp_path / "nested.json"
    config.write_text(json.dumps({"kind": "product", "factors": [BAD_VALUES["dim"]]}))
    code, err = run(["table", str(config)], capsys)
    assert code == 2 and err.startswith("configuration error: root.factors[0]: invalid literal")


def value_paths(value, path=()):
    """Every position in a JSON document, the root included, as a key path."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from value_paths(child, path + (key,))


def replaced(document, path, new):
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(document, dict):
        return {**document, head: replaced(document[head], rest, new)}
    return [replaced(v, rest, new) if i == head else v for i, v in enumerate(document)]


SCALARS = st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3)
WRONG_VALUES = (
    st.none()
    | st.text(max_size=3)
    | st.lists(SCALARS, max_size=3)
    | st.dictionaries(st.text(max_size=3), SCALARS, max_size=2)
)


@st.composite
def mutated_configs(draw):
    document = config_node(draw(st.sampled_from(CONFIG_NAMES)))
    path = draw(st.sampled_from(list(value_paths(document))))
    return replaced(document, path, draw(WRONG_VALUES))


@settings(max_examples=150, deadline=None)
@given(document=mutated_configs())
def test_mutated_configs_exit_0_or_2(document):
    with tempfile.TemporaryDirectory() as tmp:
        for table in CONFIGS.glob("*.tbl"):
            shutil.copy(table, tmp)
        config = Path(tmp) / "mutated.json"
        config.write_text(json.dumps(document))
        try:
            code = main(["table", str(config), "--limit", "3", "--out", str(Path(tmp) / "table.csv")])
        except SystemExit as exc:
            code = exc.code
        assert code in (0, 2), document


# malformed group table files: (file text, whether the message names the file)
MALFORMED_TABLES = {
    "fewer_rows_than_n": ("3\n0 1 2\n1 2 0\n", True),
    "non_square_row": ("2\n0 1\n1\n", False),
    "entry_out_of_range": ("2\n0 1\n1 2\n", False),
    "generator_out_of_range": ("2\n0 1\n1 0\ngenerators 5\n", False),
    "negative_generator": ("2\n0 1\n1 0\ngenerators -1\n", False),
    "bad_generators_line": ("2\n0 1\n1 0\ngenerators x\n", True),
    "bad_trailer_line": ("2\n0 1\n1 0\ngens 1\n", True),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_TABLES))
def test_malformed_group_tables_exit_2(name, tmp_path, capsys):
    text, names_file = MALFORMED_TABLES[name]
    (tmp_path / "bad.tbl").write_text(text)
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"kind": "naive", "group": "bad.tbl", "q": 2}))
    code, err = run(["table", str(config)], capsys)
    assert code == 2 and err.startswith("configuration error: root") and "Traceback" not in err, err
    assert ("bad.tbl" in err) == names_file, err


def test_a_line_after_the_generators_line_exits_2(tmp_path, capsys):
    (tmp_path / "bad.tbl").write_text("2\n0 1\n1 0\ngenerators 1\ngarbage here\n")
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"kind": "naive", "group": "bad.tbl", "q": 2}))
    code, err = run(["dist", str(config), "0", "1"], capsys)
    assert code == 2 and err.startswith("configuration error: root") and "bad.tbl" in err, err


@pytest.mark.parametrize("config,suite", [("naive.json", "amalgam"), ("naive.json", "equivariance"),
                                          ("free_tree.json", "amalgam"), ("product.json", "equivariance")])
def test_a_named_suite_that_does_not_apply_exits_2(config, suite, capsys):
    code = main(["check", str(CONFIGS / config), "--suite", suite, "--samples", "3"])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and err.startswith("configuration error:") and f"--suite {suite}" in err, err


def test_suite_all_skips_the_suites_that_do_not_apply(capsys):
    assert main(["check", str(CONFIGS / "naive.json"), "--suite", "all", "--samples", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] and [s["name"] for s in report["suites"]] == ["pseudo-metric"]


COCYCLE = {"kind": "cocycle", "group": "Z", "file": "c.txt"}
PULLBACK_OF_COCYCLE = {"kind": "pullback", "inner": COCYCLE, "map": {"type": "identity"}}


def write_cocycle_config(tmp_path, node) -> Path:
    (tmp_path / "c.txt").write_text("q 2\ngen 1 | 1 0 ; 0 1 | 1 0\n")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(node))
    return config


@pytest.mark.parametrize("node", [COCYCLE, PULLBACK_OF_COCYCLE], ids=["cocycle", "pullback"])
@pytest.mark.parametrize("literal", ["[1]", '{"a": 1}'])
def test_an_unhashable_point_on_a_finite_universe_exits_2(node, literal, tmp_path, capsys):
    config = write_cocycle_config(tmp_path, node)
    assert run(["dist", str(config), "0", "1"], capsys)[0] == 0
    code, err = run(["dist", str(config), literal, "0"], capsys)
    assert code == 2 and "is not in this space" in err and "Traceback" not in err


@pytest.mark.parametrize("name", ["dihedral.json", "proper_sum.json", "wreath.json"])
def test_a_point_that_table_prints_is_a_dist_literal(name, capsys):
    """Each point that ``table`` lists, written back as JSON, names the same
    point as its ``#k`` index: JSON lists are read as the tuples the space holds."""
    config = str(CONFIGS / name)
    assert main(["table", config, "--limit", "6"]) == 0
    listed = list(dict.fromkeys(row.split('",')[0][1:] for row in capsys.readouterr().out.splitlines()[1:]))
    assert len(listed) == 6
    for k, text in enumerate(listed):
        literal = json.dumps(ast.literal_eval(text))
        assert main(["dist", config, literal, "#3"]) == 0
        by_literal = capsys.readouterr().out
        assert main(["dist", config, f"#{k}", "#3"]) == 0
        assert capsys.readouterr().out == by_literal


@pytest.mark.parametrize("config, literal", [
    ("dihedral.json", "[[true],1]"), ("dihedral.json", "[[1.5],1]"), ("proper_sum.json", "[[],[[0,true]]]"),
    ("amalgam_q2.json", "[[],[]]"),
    # lamp configurations out of normal form: a repeated index, unsorted indices, an identity lamp
    ("wreath.json", "[[[[0,1],[0,1]],0],[]]"), ("wreath.json", "[[[[1,1],[0,1]],0],[]]"),
    ("wreath.json", "[[[[0,0]],0],[]]"),
])
def test_a_literal_outside_the_space_or_with_a_boolean_or_a_decimal_exits_2(config, literal, capsys):
    code, err = run(["dist", str(CONFIGS / config), literal, "#0"], capsys)
    assert code == 2 and err.startswith("configuration error:") and "Traceback" not in err


@pytest.mark.parametrize("depth", [900, 5000])
def test_a_deeply_nested_point_literal_exits_2(depth, capsys):
    code, err = run(["dist", str(CONFIGS / "dihedral.json"), "[" * depth + "]" * depth, "#0"], capsys)
    assert code == 2 and err.startswith("configuration error:") and "Traceback" not in err


def test_true_is_not_the_point_1_of_a_cocycle_node(tmp_path, capsys):
    config = write_cocycle_config(tmp_path, COCYCLE)
    assert run(["dist", str(config), "1", "0"], capsys)[0] == 0
    code, err = run(["dist", str(config), "true", "0"], capsys)
    assert code == 2 and "neither an index (#k) nor JSON" in err


@pytest.mark.parametrize("inner, value", [({"kind": "naive", "points": 3, "q": 1}, 99), (COCYCLE, [1])],
                         ids=["naive", "cocycle"])
def test_a_constant_pullback_value_outside_inner_exits_2(inner, value, tmp_path, capsys):
    node = {"kind": "pullback", "inner": inner, "map": {"type": "constant", "value": value}}
    config = write_cocycle_config(tmp_path, node)
    code, err = run(["dist", str(config), "0", "1"], capsys)
    assert code == 2 and err.startswith("configuration error: root:") and "is not a point of 'inner'" in err
    node["map"]["value"] = 2 if value == 99 else 1
    config.write_text(json.dumps(node))
    assert run(["dist", str(config), "0", "1"], capsys) == (0, "")


def test_a_constant_pullback_value_is_read_as_a_point_literal(tmp_path, capsys):
    """A constant map's value is read as ``dist`` reads a point: lists are tuples."""
    node = {"kind": "pullback", "inner": {"kind": "proper_sum", "q": 2, "window": [0, 1]},
            "map": {"type": "constant", "value": [[], [[0, 1]]]}}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(node))
    assert run(["dist", str(config), "#0", "#1"], capsys) == (0, "")
    config.write_text(json.dumps(node).replace("[0, 1]]]", "[0, 1.5]]]"))
    code, err = run(["dist", str(config), "#0", "#1"], capsys)
    assert code == 2 and err.startswith("configuration error: root: invalid literal for a point: 1.5")


def scale_pullback_config(tmp_path, points, factor) -> str:
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"kind": "pullback", "inner": {"kind": "naive", "points": points, "q": 1},
                                  "map": {"type": "scale", "factor": factor}}))
    return str(config)


def test_a_point_whose_scale_image_leaves_inner_exits_2(tmp_path, capsys):
    config = scale_pullback_config(tmp_path, 3, 5)
    code, err = run(["dist", config, "1", "2"], capsys)
    assert code == 2 and "is not in this space" in err and "Traceback" not in err
    assert run(["dist", config, "0", "0"], capsys) == (0, "")


def test_table_and_check_keep_to_the_preimage_of_a_scale_pullback(tmp_path, capsys):
    # doubling sends 0, 1, 2 into the naive points 0..4, and 3, 4 out of them
    config = scale_pullback_config(tmp_path, 5, 2)
    assert main(["table", config, "--limit", "10"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert {row.split(",")[0] for row in rows} == {'"0"', '"1"', '"2"'} and len(rows) == 9
    assert main(["check", config, "--samples", "30"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] and report["suites"][0]["samples"] == 30


SAMPLED_SCALE_PULLBACK = {
    "kind": "pullback",
    "inner": {"kind": "product", "factors": [{"kind": "naive", "points": 3, "q": 1},
                                             {"kind": "walls_zn", "dim": 1, "q": 1}]},
    "map": {"type": "scale", "factor": 5},
}


def write_config(tmp_path, node) -> str:
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(node))
    return str(config)


@pytest.mark.parametrize("argv, message", [
    (["table", "z_walls.json", "--radius", "3"], "unrecognized arguments: --radius 3"),
    (["check", "amalgam_q2.json", "--amalgam-tree-term", "power"], "unrecognized arguments: --amalgam-tree-term power"),
    (["check", "amalgam_q2.json", "--amalgam-tree-term", "linear"], "unrecognized arguments: --amalgam-tree-term linear"),
    (["dist", {**config_node("dihedral.json"), "preset": "infinite_dihedral"}, "#0", "#1"],
     "configuration error: root: unknown key 'preset'; allowed keys: q\n"),
    (["dist", {**config_node("wreath.json"), "factor_cyclic": 2}, "#0", "#1"],
     "configuration error: root: unknown key 'factor_cyclic'; allowed keys: q, group, co_subgroup\n"),
    # a product takes its exponent from its factors
    (["dist", {**config_node("product.json"), "q": 2}, "#0", "#1"],
     "configuration error: root: unknown key 'q'; allowed keys: factors\n"),
    # one kind has one name: 'weighted_naive' was another name for 'naive'
    (["dist", {"kind": "weighted_naive", "points": 4, "q": 2}, "#0", "#1"],
     "configuration error: root: kind must be one of naive, walls_zn, walls_custom, metric_linf, pullback, product, "
     "proper_sum, semidirect, quotient_average, wreath_glue, amalgam, free_tree_mineyev, cocycle; "
     "got 'weighted_naive'\n"),
    # an object structure is told apart from 'naive' by its type
    (["dist", {"kind": "quotient_average", "group": {"cyclic": 4}, "subgroup": [0, 2], "q": 1,
               "structure": {"kind": "walls_cosets", "subgroups": [[0, 2]]}}, "#0", "#1"],
     "configuration error: root: unknown key 'structure.kind'; allowed keys: structure.subgroups\n"),
], ids=["table-radius", "amalgam-tree-term-power", "amalgam-tree-term-linear", "semidirect-preset",
        "wreath_glue-factor_cyclic", "product-q", "weighted_naive", "quotient_average-structure-kind"])
def test_a_removed_flag_or_key_exits_2(argv, message, tmp_path, capsys):
    config = write_config(tmp_path, argv[1]) if isinstance(argv[1], dict) else str(CONFIGS / argv[1])
    code, err = run([argv[0], config] + argv[2:], capsys)
    assert code == 2 and message in err and "Traceback" not in err, err


def test_table_and_check_draw_a_sampled_scale_pullback_from_its_preimage(tmp_path, capsys):
    # quintupling keeps only the naive point 0 in inner: the sampler redraws until it gets there
    config = write_config(tmp_path, SAMPLED_SCALE_PULLBACK)
    assert main(["table", config, "--limit", "3"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 9 and all(row.startswith('"(0, (') for row in rows)
    assert main(["check", config, "--samples", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] and report["suites"][0]["samples"] == 3


def test_scale_maps_the_leaves_of_a_nested_point(tmp_path, capsys):
    config = write_config(tmp_path, SAMPLED_SCALE_PULLBACK)
    assert main(["dist", config, "[0,[1]]", "[0,[2]]"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "energy 5/1"


# doubling sends the metric points 1 and 3 to 2 and 6, which are not in inner
UNDRAWABLE_PULLBACK = {
    "kind": "product", "factors": [
        {"kind": "pullback", "map": {"type": "scale", "factor": 2},
         "inner": {"kind": "product", "factors": [
             {"kind": "metric_linf", "points": [1, 3], "matrix": [[0, 1], [1, 0]]},
             {"kind": "walls_zn", "dim": 1, "q": "sup"}]}},
        {"kind": "naive", "points": 2, "q": "sup"}],
}


def test_check_exits_2_naming_the_node_whose_sampler_gives_up(tmp_path, capsys):
    config = write_config(tmp_path, UNDRAWABLE_PULLBACK)
    code, err = run(["check", config, "--samples", "3"], capsys)
    assert code == 2 and err.startswith("configuration error: root.factors[0]: none of") and "Traceback" not in err


@pytest.mark.parametrize("argv", [["table", "--limit", "3"], ["export", "--what", "labels", "--limit", "3"]])
def test_table_and_export_list_what_an_undrawable_sampler_gave(argv, tmp_path, capsys):
    config = write_config(tmp_path, UNDRAWABLE_PULLBACK)
    assert main([argv[0], config, *argv[1:]]) == 0
    captured = capsys.readouterr()
    assert "# listed 0 of 3 points: seeded sampling found no more" in captured.out + captured.err


AMALGAM = {"kind": "amalgam", "left": {"cyclic": 4}, "right": {"cyclic": 6},
           "common": {"left": [0, 2], "right": [0, 3]}, "q": 2}
METRIC = {"kind": "metric_linf", "points": ["a", "b"], "matrix": [[0, 1], [1, 0]]}
WALLS = {"kind": "walls_custom", "q": 2, "file": "walls.txt"}


@pytest.mark.parametrize("inner, argv", [
    (AMALGAM, ["table", "--limit", "3"]),
    (AMALGAM, ["check", "--samples", "3"]),
    (METRIC, ["dist", "0", "0"]),
    (WALLS, ["table", "--limit", "3"]),
    ({"kind": "product", "factors": [{"kind": "walls_zn", "dim": 1, "q": "sup"}, METRIC]},
     ["check", "--samples", "3"]),
], ids=["amalgam-table", "amalgam-check", "metric", "walls_custom", "product-with-metric"])
def test_a_scale_map_over_points_that_are_not_integer_trees_exits_2(inner, argv, tmp_path, capsys):
    # a scale map multiplies integers: over words, total points or strings it is refused when built
    (tmp_path / "walls.txt").write_text("points a b c\nwall h 1 1 0 0\n")
    config = write_config(tmp_path, {"kind": "pullback", "inner": inner, "map": {"type": "scale", "factor": 2}})
    code, err = run([argv[0], config, *argv[1:]], capsys)
    assert code == 2 and "Traceback" not in err
    assert err.startswith("configuration error: root: a scale map multiplies integers, "
                          "but the points of 'inner' (root.inner) are not integers or tuples of them")


@pytest.mark.parametrize("node, key", [
    ({"kind": "naive", "points": 0, "q": 2}, "points"),
    ({"kind": "naive", "points": -3, "q": 2}, "points"),
    # one past cli.MAX_NAIVE_POINTS; with no bound, 10**8 points ended in a MemoryError traceback
    ({"kind": "naive", "points": 100_001, "q": 2}, "points"),
    ({"kind": "walls_zn", "dim": 1, "extent": -1, "q": 2}, "extent"),
    ({"kind": "proper_sum", "window": [], "q": 2}, "window"),
    ({"kind": "free_tree_mineyev", "rank": 2, "radius": -1, "q": 2}, "radius"),
    ({**COCYCLE, "radius": 2}, "radius"),
], ids=["naive-0", "naive--3", "naive-100001", "walls_zn", "proper_sum", "free_tree", "cocycle"])
@pytest.mark.parametrize("wrapped", [False, True], ids=["node", "pullback"])
def test_an_out_of_range_key_exits_2_naming_the_node_and_the_key(node, key, wrapped, tmp_path, capsys):
    path = "root.inner" if wrapped else "root"
    if wrapped:
        node = {"kind": "pullback", "inner": node, "map": {"type": "identity"}}
    config = str(write_cocycle_config(tmp_path, node))
    for argv in (["check", config, "--samples", "5"], ["table", config], ["dist", config, "#0", "#1"],
                 ["export", config, "--what", "vectors"]):
        code, err = run(argv, capsys)
        assert code == 2 and err.startswith(f"configuration error: {path}: key {key!r}"), (argv, err)


@pytest.mark.parametrize("radius", [3, 6])
def test_check_passes_on_a_cocycle_node_over_z(radius, tmp_path, capsys):
    """The suites move the listed points, the ball of radius - 2, by elements of
    the radius-2 ball: the space holds the whole evaluated ball."""
    config = write_cocycle_config(tmp_path, {**COCYCLE, "radius": radius})
    assert main(["check", str(config), "--samples", "100"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] and [s["samples"] for s in report["suites"]] == [100, 100]


def test_growth_on_a_cocycle_node_exits_2_past_its_evaluated_ball(tmp_path, capsys):
    config = str(write_cocycle_config(tmp_path, COCYCLE))
    assert main(["growth", config, "--radius", "6"]) == 0
    assert [row.split(",")[:3] for row in capsys.readouterr().out.splitlines()[1:]] == [
        [str(r), "1" if r == 0 else "2", f"{r * r}/1"] for r in range(7)]
    code, err = run(["growth", config, "--radius", "10"], capsys)
    assert code == 2 and err.startswith("configuration error: root: growth --radius 10 leaves the space at radius 7")


def test_a_cocycle_node_lists_its_inner_ball_and_holds_its_evaluated_ball(tmp_path, capsys):
    config = str(write_cocycle_config(tmp_path, COCYCLE))
    assert main(["table", config, "--limit", "20"]) == 0
    listed = dict.fromkeys(int(row.split(",")[0].strip('"')) for row in capsys.readouterr().out.splitlines()[1:])
    assert sorted(listed) == list(range(-4, 5))
    assert main(["dist", config, "6", "-6"]) == 0
    assert capsys.readouterr().out == "energy 144/1\ndist 12\n"
    code, err = run(["dist", config, "7", "0"], capsys)
    assert code == 2 and "is not in this space" in err


def test_a_cocycle_file_that_misses_a_generator_of_the_group_exits_2(tmp_path, capsys):
    """A cocycle given on 2Z only leaves the odd integers unevaluated, so the
    translation by 1 that ``check`` samples would leave the space."""
    (tmp_path / "even.txt").write_text("q 2\ngen 2 | 1 | 1\n")
    config = tmp_path / "even.json"
    config.write_text(json.dumps({**COCYCLE, "file": "even.txt"}))
    for argv in (["check", str(config)], ["table", str(config)]):
        code, err = run(argv, capsys)
        assert code == 2 and err.startswith("configuration error: root: key 'file'"), (argv, err)


def test_a_product_with_a_cocycle_factor_ends_its_orbit_at_the_ball(tmp_path, capsys):
    """The orbit of walls_zn x cocycle(Z, radius 3) leaves the space at Z x Z's
    sphere of radius 4: a listing past its 25 points ends with a note, an index
    past it is out of range and a growth profile past it exits 2."""
    node = {"kind": "product", "factors": [{"kind": "walls_zn", "dim": 1, "q": 2}, {**COCYCLE, "radius": 3}]}
    config = str(write_cocycle_config(tmp_path, node))
    note = "# listed 25 of 30 points: the orbit leaves the space at radius 4"
    assert main(["table", config, "--limit", "30"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == note
    assert run(["export", config, "--what", "vectors", "--limit", "30"], capsys) == (0, note + "\n")
    code, err = run(["dist", config, "#40", "#0"], capsys)
    assert code == 2 and err == "configuration error: point index #40 out of range\n"
    code, err = run(["growth", config, "--radius", "5"], capsys)
    assert code == 2 and err.startswith("configuration error: root: growth --radius 5 leaves the space at radius 4")
    assert run(["check", config], capsys) == (0, "")


@pytest.mark.parametrize("radius", [1, 2, 3])
def test_a_cocycle_over_a_group_its_ball_covers_takes_any_radius_from_1(radius, tmp_path, capsys):
    """The ball of radius 1 is all of Z/2, so every translation that ``check``
    samples stays in the evaluated ball and both elements are listed."""
    (tmp_path / "c.txt").write_text("q 2\ngen 1 | -1 | 1\n")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({**COCYCLE, "group": {"cyclic": 2}, "radius": radius}))
    assert main(["table", str(config)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows == ["x,y,energy,dist", '"0","0",0/1,0', '"0","1",1/1,1', '"1","0",1/1,1', '"1","1",0/1,0']
    assert run(["check", str(config)], capsys) == (0, "")
    config.write_text(json.dumps({**COCYCLE, "group": {"cyclic": 2}, "radius": 0}))
    code, err = run(["check", str(config)], capsys)
    assert code == 2 and err.startswith("configuration error: root: key 'radius' takes an integer >= 3")


def test_growth_reports_an_error_of_the_action_itself(monkeypatch):
    """Only a cocycle's translation past its evaluated ball is a configuration
    error; any other DomainError from a point map is a fault and propagates."""
    built = build_space(json.loads((CONFIGS / "z_walls.json").read_text()), CONFIGS)

    def broken(g, x):
        raise DomainError("broken point map")

    monkeypatch.setitem(built.actions, "main", dataclasses.replace(built.actions["main"], point_map=broken))
    with pytest.raises(DomainError, match="broken point map"):
        growth_profile(built, 2)


REPEATED_NAME = {"kind": "metric_linf", "points": ["a", "b", "a"], "matrix": [[0, 1, 0], [1, 0, 1], [0, 1, 0]]}


def test_a_metric_point_named_twice_exits_2(tmp_path, capsys):
    # the two rows of "a" used to give two labels of one point, and dist a b read 2 where the matrix says 1
    code, err = run(["dist", write_config(tmp_path, REPEATED_NAME), '"a"', '"b"'], capsys)
    assert code == 2 and "Traceback" not in err
    assert err.startswith("configuration error: root: metric point 'a' is named twice")


def test_a_metric_file_that_names_a_point_twice_exits_2_naming_its_node(tmp_path, capsys):
    (tmp_path / "m.csv").write_text("a,b,a\n0,1,0\n1,0,1\n0,1,0\n")
    node = {"kind": "product",
            "factors": [{"kind": "walls_zn", "dim": 1, "q": "sup"}, {"kind": "metric_linf", "file": "m.csv"}]}
    code, err = run(["dist", write_config(tmp_path, node), '[0,"a"]', '[0,"b"]'], capsys)
    assert code == 2 and "Traceback" not in err
    assert err.startswith("configuration error: root.factors[1]: metric point 'a' is named twice")


@pytest.mark.parametrize("text, message", [
    # the first h1 used to be dropped, and dist a c read energy 0/1 with exit 0
    ("points a b c\nwall h1 1 1 0 0\nwall h1 2 0 1 0\n", "wall 'h1' is declared twice"),
    ("points a b a\nwall h 1 1 0 0\n", "walls point 'a' is named twice"),
    # a flag other than 1 used to be read as 0
    ("points a b c\nwall h 1 1 2 0\n", "wall 'h' flags point 'b' with '2'; a membership flag is 0 or 1"),
    ("points a b c\nwall h 1 1 yes 0\n", "wall 'h' flags point 'b' with 'yes'"),
    # after a wall line, a second points line used to end table, dist and check in a KeyError
    ("points a b c\nwall h 1 1 0 0\npoints a b c\n", "a second points line: 'points a b c\\n'"),
    ("points a b\npoints a b c\nwall h 1 1 0 0\n", "a second points line: 'points a b c\\n'"),
    ("wall h 1\npoints a b c\n", "wall line before the points line: 'wall h 1\\n'"),
], ids=["wall-twice", "point-twice", "flag-2", "flag-word", "points-after-wall", "points-twice", "wall-first"])
@pytest.mark.parametrize("wrapped", [False, True], ids=["node", "pullback"])
def test_a_walls_file_that_repeats_a_name_or_a_points_line_or_misflags_exits_2(text, message, wrapped, tmp_path,
                                                                                capsys):
    path = "root.inner" if wrapped else "root"
    node = {"kind": "pullback", "inner": WALLS, "map": {"type": "identity"}} if wrapped else WALLS
    (tmp_path / "walls.txt").write_text(text)
    config = write_config(tmp_path, node)
    for argv in (["dist", config, '"a"', '"b"'], ["table", config], ["check", config, "--samples", "5"]):
        code, err = run(argv, capsys)
        assert code == 2 and "Traceback" not in err, (argv, err)
        assert err.startswith(f"configuration error: {path}: {message}"), (argv, err)


@pytest.mark.parametrize("group, gens, message", [
    # the later line used to replace the earlier one, with exit 0
    ("Z", "gen 1 | 1 | 1\ngen 1 | -1 | 1\n", "cocycle generator 1 is declared twice"),
    ({"cyclic": 4}, "gen 1 | 1 | 0\ngen 1 | 1 | 0\n", "cocycle generator 1 is declared twice"),
    # gen 4 used to raise IndexError with exit 1, and gen -1 to wrap round to element 3
    ({"cyclic": 4}, "gen 4 | 1 | 0\n", "cocycle generator 4 is not an element 0..3 of the group"),
    ({"cyclic": 4}, "gen -1 | 1 | 0\n", "cocycle generator -1 is not an element 0..3 of the group"),
], ids=["Z-twice", "Z4-twice", "Z4-gen-4", "Z4-gen--1"])
def test_a_cocycle_file_that_repeats_a_generator_or_leaves_the_group_exits_2(group, gens, message, tmp_path,
                                                                              capsys):
    (tmp_path / "c.txt").write_text("q 2\n" + gens)
    config = write_config(tmp_path, {**COCYCLE, "group": group})
    for argv in (["dist", config, "0", "1"], ["table", config], ["check", config, "--samples", "5"]):
        code, err = run(argv, capsys)
        assert code == 2 and "Traceback" not in err, (argv, err)
        assert err.startswith(f"configuration error: root: {message}"), (argv, err)


def test_a_cocycle_file_that_declares_q_twice_exits_2(tmp_path, capsys):
    # the later q line used to replace the earlier one: dist 0 3 gave the q = 1 energy 3/1 with exit 0
    (tmp_path / "c.txt").write_text("q 2\ngen 1 | 1 | 1\nq 1\n")
    for node, path in ((COCYCLE, "root"), (PULLBACK_OF_COCYCLE, "root.inner")):
        config = write_config(tmp_path, node)
        code, err = run(["dist", config, "0", "3"], capsys)
        assert code == 2 and "Traceback" not in err, err
        assert err.startswith(f"configuration error: {path}: cocycle file declares q twice"), err


@pytest.mark.parametrize("kind, text, message", [
    ("walls_custom", "points a b c\nwall h 0 1 0 0\n", "wall 'h' has weight 0; wall weights must be positive"),
    ("walls_custom", "points a b c\nwal h 1 1 0 0\n", "unrecognised walls line: 'wal h 1 1 0 0\\n'"),
    ("walls_custom", "# no points line\n", "walls file declares no points"),
    ("cocycle", "q 2\ngen 1 | 1 | 1\nfoo\n", "unrecognised cocycle line: 'foo'"),
    ("cocycle", "gen 1 | 1 | 1\n", "cocycle file must declare the exponent q"),
    ("metric_linf", "", "empty metric file"),
    ("metric_linf", "0,1\n1,1\n", "metric point 'p1' has the nonzero diagonal entry 1"),
], ids=["wall-weight-0", "walls-line", "walls-no-points", "cocycle-line", "cocycle-no-q", "csv-empty", "csv-diagonal"])
def test_an_input_file_with_a_bad_or_missing_line_exits_2_naming_it(kind, text, message, tmp_path, capsys):
    node = {"walls_custom": WALLS, "cocycle": COCYCLE, "metric_linf": {"kind": "metric_linf", "file": "m.csv"}}[kind]
    (tmp_path / node["file"]).write_text(text)
    code, err = run(["dist", write_config(tmp_path, node), "#0", "#1"], capsys)
    assert code == 2 and "Traceback" not in err
    assert err == f"configuration error: root: {message}\n"


def test_a_headerless_metric_csv_names_its_points_p0_to_pn(tmp_path, capsys):
    (tmp_path / "m.csv").write_text("0,1,2\n1,0,1\n2,1,0\n")
    config = write_config(tmp_path, {"kind": "metric_linf", "file": "m.csv"})
    assert main(["dist", config, '"p0"', '"p2"']) == 0
    assert capsys.readouterr().out == "energy 2/1\ndist 2\n"


def zero_one_rows(n: int) -> list:
    """The matrix of the 0/1 metric on n points."""
    return [[int(i != j) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("n, code", [(64, 0), (65, 2)])
def test_a_metric_takes_at_most_max_metric_points(n, code, tmp_path, capsys):
    inline = {"kind": "metric_linf", "points": [f"p{i}" for i in range(n)], "matrix": zero_one_rows(n)}
    (tmp_path / "m.csv").write_text("".join(",".join(map(str, row)) + "\n" for row in zero_one_rows(n)))
    for node in (inline, {"kind": "metric_linf", "file": "m.csv"}):
        got, err = run(["dist", write_config(tmp_path, node), '"p0"', '"p1"'], capsys)
        assert got == code and "Traceback" not in err, err
        if code == 2:
            assert err.startswith(f"configuration error: root: a metric takes at most {MAX_METRIC_POINTS} points, "
                                  f"got {n}: its triangle inequality is checked over all n³ triples"), err


PROPER_SUM_PHI_LIST = {"kind": "proper_sum", "q": 2, "window": [0, 1, 2, 3], "phi": [1, 2, 3, 4]}
PROPER_SUM_RANK = {"kind": "proper_sum", "q": 2, "window": [0, 1, 2, 3], "phi": "rank"}


@pytest.mark.parametrize("node, literal", [
    # a lamp at index 7, outside I = {0..3}, used to give energy 1/1 with exit 0
    ("wreath.json", '[[[],0],[[7,1]]]'),
    ("wreath.json", '[[[],0],[["a",1]]]'),
    # phi given as a list used to end in a KeyError traceback with exit 1
    (PROPER_SUM_PHI_LIST, '[[],[[100,1]]]'),
    # the rank default used to weigh an index outside the window as the next rank (energy 16)
    (PROPER_SUM_RANK, '[[],[["a",1]]]'),
], ids=["wreath-7", "wreath-a", "proper-sum-phi-list-100", "proper-sum-rank-a"])
def test_a_direct_sum_literal_off_the_index_window_exits_2(node, literal, tmp_path, capsys):
    config = str(CONFIGS / node) if isinstance(node, str) else write_config(tmp_path, node)
    code, err = run(["dist", config, literal, "#0"], capsys)
    assert code == 2 and "Traceback" not in err, err
    assert f"point {literal!r} is not in this space" in err, err
