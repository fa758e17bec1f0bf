"""The config schema: each node kind's keys, readers and defaults are its
builder's signature, and README's key table lists them.

Every key of every kind is mutated here from that signature: a dropped
required key, an unknown key, or a value its reader must reject makes each
subcommand exit 2 with the node path, never 0 and never a traceback.
"""

import argparse
import builtins
import importlib
import inspect
import itertools
import json
import pkgutil
import re
import shutil
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import labparts
from labparts import cli
from labparts.cli import main

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

# one valid node per kind; the files they name are written by ``workdir``
BASE = {
    "naive": {"kind": "naive", "points": 4, "q": 2},
    "weighted_naive": {"kind": "weighted_naive", "group": {"cyclic": 3}, "weight": "3/2", "q": 1},
    "walls_zn": {"kind": "walls_zn", "dim": 2, "extent": 3, "q": 1},
    "walls_custom": {"kind": "walls_custom", "file": "walls.txt", "q": 2},
    "metric_linf": {"kind": "metric_linf", "points": ["a", "b", "c"], "matrix": [[0, 0.5, 1], [0.5, 0, 1], [1, 1, 0]]},
    "pullback": {"kind": "pullback", "inner": {"kind": "walls_zn", "dim": 1, "q": 1},
                 "map": {"type": "scale", "factor": 2}},
    "product": {"kind": "product", "q": 2,
                "factors": [{"kind": "walls_zn", "dim": 1, "q": 2}, {"kind": "naive", "points": 3, "q": 2}]},
    "proper_sum": {"kind": "proper_sum", "q": 2, "window": [-1, 0, 1], "factor_cyclic": 2, "phi": [1, 2, 3]},
    "semidirect": {"kind": "semidirect", "q": "sup"},
    "quotient_average": {"kind": "quotient_average", "group": "Z4.tbl", "subgroup": [0, 2], "q": 1,
                         "structure": {"kind": "walls_cosets", "subgroups": [[0, 2]]}},
    "wreath_glue": {"kind": "wreath_glue", "group": "Z4.tbl", "co_subgroup": [0], "q": 2},
    "amalgam": {"kind": "amalgam", "left": "Z4.tbl", "right": "Z6.tbl", "common": {"left": [0, 2], "right": [0, 3]},
                "q": 1, "factors": "naive"},
    "free_tree_mineyev": {"kind": "free_tree_mineyev", "rank": 2, "radius": 3, "q": 2},
    "cocycle": {"kind": "cocycle", "group": "Z", "file": "cocycle.txt", "radius": 4},
}

# values each reader must reject, by reader name; JSON decimals such as 2.7
# reach the readers as exact fractions
WRONG = {
    "integer": [True, 2.7, 2.0, "3", None, [1]],
    "rational": [True, "x", "1/0", None, [1], {}],
    "'sup' | rational": [True, "x", "sup ", None, [2]],
    "config_file": ["missing.txt", "", 3, None],
    "finite_group": ["missing.tbl", 3, None, {}, {"cyclic": True}, {"cyclic": 2, "symmetric": 3}],
    "node": [3, {}, {"kind": "nope"}, [{"kind": "naive", "points": 2, "q": 1}]],
    "list of node": [[], {}, [3], "ab", [{"kind": "nope"}]],
    "list of integer": [3, [True], [1.5], "ab", None],
    "list of anything": [3, "ab", None],
    "list of list of rational": [3, [3], [[True]], [["x"]]],
    "object": [3, [], "x", {}],
    "'rank' | 'one_plus_abs' | list of rational": ["nope", 3, [True], None],
    "'naive' | object": ["nope", 3, {"kind": "walls_cosets"}, {"kind": "x", "subgroups": []}],
    "'naive'": ["nope", 3, None],
    "'Z' | finite_group": ["Q", 3, None],
}
ANY = "anything"
COMMANDS = (["table", "--limit", "3"], ["dist", "#0", "#1"], ["growth", "--radius", "1"])


def schema(kind: str) -> dict:
    """Each key of a kind: (reader, required)."""
    builder = cli._BUILDERS[kind]
    defaults = builder.__kwdefaults__ or {}
    return {key: (reader, key not in defaults) for key, reader in builder.__annotations__.items()}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("schema")
    for table in CONFIGS.glob("*.tbl"):
        shutil.copy(table, path)
    (path / "walls.txt").write_text("points a b c\nwall h1 1 1 0 0\nwall h2 2 1 1 0\n")
    (path / "cocycle.txt").write_text("q 2\ngen 1 | 1 | 1\n")
    return path


def run(workdir: Path, document, argv) -> int:
    config = workdir / "mutated.json"
    config.write_text(json.dumps(document))
    out = workdir / "out.csv"
    args = [argv[0], str(config)] + argv[1:] + (["--out", str(out)] if argv[0] != "dist" else [])
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    return code


def test_every_reader_has_rejected_values():
    names = {reader.__name__ for kind in cli._BUILDERS for reader, _ in schema(kind).values()}
    assert names - {ANY} <= WRONG.keys()
    assert sorted(BASE) == sorted(cli._BUILDERS)


# builder keys whose reader accepts one value, each with the reason it stays
ONE_VALUE_KEYS = {"amalgam.factors": "ROADMAP item 8 gives it a second value"}


def accepts_one_value(reader) -> bool:
    """Whether ``reader`` is a ``cli.one_of`` with one choice and no ``otherwise``."""
    if not reader.__qualname__.startswith(f"{cli.one_of.__name__}."):
        return False
    scope = inspect.getclosurevars(reader).nonlocals
    return len(scope["choices"]) == 1 and scope["otherwise"] is None


def test_no_builder_key_accepts_exactly_one_value():
    """A key that accepts one value can only be set to its default, so it
    selects nothing: drop it, or give it a second value."""
    one_value = {f"{kind}.{key}" for kind in cli._BUILDERS
                 for key, (reader, _) in schema(kind).items() if accepts_one_value(reader)}
    assert one_value == ONE_VALUE_KEYS.keys()


@pytest.mark.parametrize("kind", sorted(BASE))
def test_every_base_node_builds(workdir, kind, capsys):
    assert run(workdir, BASE[kind], ["table", "--limit", "3"]) == 0, capsys.readouterr().err


def nested_objects(document: dict) -> list:
    """The keys of ``document`` whose values are JSON objects (nested nodes included)."""
    return [key for key, value in document.items() if isinstance(value, dict)]


@st.composite
def mutations(draw):
    """A base node with one schema-drawn defect, and the text its error must name."""
    kind = draw(st.sampled_from(sorted(BASE)))
    document = json.loads(json.dumps(BASE[kind]))
    keys = schema(kind)
    choices = ["unknown", "wrong"] + (["missing"] if any(req for _, req in keys.values()) else [])
    choices += ["nested"] if nested_objects(document) else []
    defect = draw(st.sampled_from(choices))
    if defect == "missing":
        key = draw(st.sampled_from([k for k, (_, req) in keys.items() if req]))
        document.pop(key, None)
        return document, f"missing required key {key!r}"
    if defect == "unknown":
        key = draw(st.sampled_from(["wieght", "Q", "kind_", "q "]))
        return {**document, key: 1}, f"unknown key {key!r}"
    if defect == "nested":
        key = draw(st.sampled_from(nested_objects(document)))
        document[key] = {**document[key], "zzz": 1}
        return document, "unknown key"
    key = draw(st.sampled_from([k for k, (reader, _) in keys.items() if reader.__name__ != ANY]))
    value = draw(st.sampled_from(WRONG[keys[key][0].__name__]))
    return {**document, key: value}, ""


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=mutations())
def test_schema_mutations_exit_2_with_the_node_path(workdir, case, capsys):
    document, names = case
    for argv in COMMANDS:
        code = run(workdir, document, list(argv))
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("configuration error: root") and "Traceback" not in err, (argv, err)
        assert names in err, (argv, err)


# one regression test per probe that exited 0 before the schema existed
PROBES = {
    "misspelt_key": ({"kind": "naive", "points": 4, "q": 2, "wieght": 3},
                     "root: unknown key 'wieght'; allowed keys: q, points, group, weight"),
    "misspelt_common_key": ({**BASE["amalgam"], "common": {"left": [0, 2], "rihgt": [0, 3]}},
                            "root: unknown key 'common.rihgt'; allowed keys: common.left, common.right, common.table"),
    "misspelt_map_key": ({**BASE["pullback"], "map": {"type": "scale", "facter": 2}},
                         "root: unknown key 'map.facter'; allowed keys: map.type, map.value, map.factor"),
    "boolean_points": ({"kind": "naive", "points": True, "q": 2}, "root: invalid literal for an integer: True"),
    "decimal_dim": ({"kind": "walls_zn", "dim": 1.9, "q": 2}, "root: invalid literal for an integer: 1.9 (key 'dim')"),
    "decimal_extent": ({"kind": "walls_zn", "dim": 1, "extent": 2.7, "q": 2}, "(key 'extent')"),
    "decimal_window": ({"kind": "proper_sum", "q": 2, "window": [0, 1.5, 2]}, "(key 'window')"),
    "boolean_radius": ({"kind": "free_tree_mineyev", "rank": 2, "radius": True, "q": 2}, "(key 'radius')"),
    "nested_decimal": ({"kind": "product", "q": 2, "factors": [{"kind": "walls_zn", "dim": 2.0, "q": 2}]},
                       "root.factors[0]: invalid literal for an integer: 2.0 (key 'dim')"),
}


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_motivating_probes_exit_2(workdir, probe, capsys):
    document, message = PROBES[probe]
    assert run(workdir, document, ["table"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: root") and message in err, err


@pytest.mark.parametrize(
    "decimal, energy",
    [("0.1", Fraction(1, 10)), ("0.12345678901234567891", Fraction(12345678901234567891, 10**20))],
)
def test_decimal_matrix_entries_are_read_exactly(tmp_path, capsys, decimal, energy):
    config = tmp_path / "metric.json"
    config.write_text(f'{{"kind": "metric_linf", "points": ["a", "b"], "matrix": [[0, {decimal}], [{decimal}, 0]]}}')
    assert main(["dist", str(config), '"a"', '"b"']) == 0
    assert capsys.readouterr().out.startswith(f"energy {energy.numerator}/{energy.denominator}\n")


def test_decimals_read_in_process_are_exact(workdir):
    built = cli.build_space({"kind": "weighted_naive", "points": 2, "weight": 0.1, "q": 1}, workdir)
    assert cli.pair_energy(built.space, 0, 1) == Fraction(1, 10)


def test_free_tree_literals_reject_non_integer_letters(capsys):
    config = str(CONFIGS / "free_tree.json")
    assert main(["dist", config, "[true]", "[2]"]) == 2
    assert main(["dist", config, "[1.0]", "[2]"]) == 2
    assert main(["dist", config, "[1]", "[2]"]) == 0
    assert capsys.readouterr().err.count("configuration error:") == 2


# ---------------------------------------------------------------------------
# README's kinds list and key table


def readme_key_table() -> dict:
    """README's key table: kind -> {key: (reader name, default text)}."""
    text = (ROOT / "README.md").read_text()
    section = text.split("| Kind | Key | Reader | Default |", 1)[1].split("\n\n", 1)[0]
    table: dict = {}
    kinds: list = []
    for line in section.strip().splitlines()[1:]:
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        kinds = re.findall(r"`(\w+)`", cells[0]) or kinds
        for kind in kinds:
            table.setdefault(kind, {})[cells[1].strip("`")] = (cells[2].split(":")[0], cells[3])
    return table


def test_readme_kinds_list_is_the_kind_table():
    text = (ROOT / "README.md").read_text()
    listed = re.search(r"Kinds:\s(.*?)\.\s", text, re.S).group(1)
    assert re.findall(r"`(\w+)`", listed) == list(cli._BUILDERS)
    assert sorted(readme_key_table()) == sorted(cli._BUILDERS)


@pytest.mark.parametrize("kind", list(cli._BUILDERS))
def test_readme_keys_are_the_signature(kind):
    documented = readme_key_table()[kind]
    keys = schema(kind)
    assert set(documented) == set(keys)
    for key, (reader_text, default_text) in documented.items():
        reader, required = keys[key]
        assert reader_text == reader.__name__.replace(" | ", " or "), (kind, key)
        assert (default_text == "required") == required, (kind, key)


def test_readme_cites_only_classes_of_the_package():
    """Every backticked CamelCase name in README (``FiniteGroup.save`` cites
    ``FiniteGroup``), other than a Python builtin such as ``SystemExit``, is a
    class defined in a labparts module."""
    classes = set()
    for info in pkgutil.iter_modules(labparts.__path__):
        module = importlib.import_module(f"labparts.{info.name}")
        classes |= {name for name, obj in vars(module).items()
                    if inspect.isclass(obj) and obj.__module__ == module.__name__}
    cited = set(re.findall(r"`([A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)+)\b", (ROOT / "README.md").read_text()))
    cited -= set(vars(builtins))
    assert cited and cited <= classes, sorted(cited - classes)


def readme_synopsis() -> dict:
    """README's command-line synopsis: subcommand -> its line, continuation
    lines joined on."""
    block = (ROOT / "README.md").read_text().split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    synopsis: dict = {}
    for line in block.splitlines():
        if line.startswith("labparts "):
            command = line.split()[1]
            synopsis[command] = line
        else:
            synopsis[command] += " " + line.strip()
    return synopsis


def test_readme_synopsis_lists_each_subcommands_long_options():
    subparsers = next(a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
    synopsis = readme_synopsis()
    assert sorted(synopsis) == sorted(subparsers.choices)
    for command, parser in subparsers.choices.items():
        options = [a for a in parser._actions if a.option_strings and not isinstance(a, argparse._HelpAction)]
        assert set(re.findall(r"--[\w-]+", synopsis[command])) == {a.option_strings[0] for a in options}, command
        for action in options:
            if action.choices:
                assert f"{action.option_strings[0]} {'|'.join(action.choices)}" in synopsis[command], command


@pytest.mark.parametrize("depth", [600, 5000])
def test_deeply_nested_configs_exit_2(tmp_path, capsys, depth):
    config = tmp_path / "deep.json"
    config.write_text('{"kind": "pullback", "map": {"type": "identity"}, "inner": ' * depth
                      + '{"kind": "walls_zn", "dim": 1, "q": 1}' + "}" * depth)
    assert main(["table", str(config), "--limit", "2"]) == 2
    assert capsys.readouterr().err.startswith("configuration error:")


def test_a_config_that_is_not_text_exits_2(tmp_path, capsys):
    config = tmp_path / "binary.json"
    config.write_bytes(b'{"kind": "naive\xff"}')
    assert main(["table", str(config)]) == 2
    assert capsys.readouterr().err.startswith("configuration error: config is not valid JSON")


@pytest.fixture
def built_groups(monkeypatch):
    """The order of each cyclic or symmetric group built; a build past the bound fails the test."""
    built = []

    def spy(preset):
        original = getattr(cli.FiniteGroup, preset)

        def build(n, *rest, **kwargs):
            built.append((preset, n))
            assert n <= (cli.MAX_PRESET_ORDER if preset == "cyclic" else 6), f"built {preset} {n}"
            return original(n, *rest, **kwargs)

        monkeypatch.setattr(cli.FiniteGroup, preset, staticmethod(build))

    spy("cyclic")
    spy("symmetric")
    return built


@pytest.mark.parametrize("node", [
    {"kind": "naive", "group": {"cyclic": 721}, "q": 1},
    {"kind": "naive", "group": {"symmetric": 7}, "q": 1},
    {"kind": "naive", "group": {"symmetric": 10 ** 9}, "q": 1},
    {"kind": "quotient_average", "group": {"cyclic": 10 ** 5}, "subgroup": [0], "q": 1},
    {"kind": "proper_sum", "window": [0, 1], "factor_cyclic": 721, "q": 2},
    {"kind": "wreath_glue", "group": {"cyclic": 10 ** 5}, "q": 2},
])
def test_a_preset_group_past_the_order_bound_exits_2_before_it_is_built(node, tmp_path, capsys, built_groups):
    config = tmp_path / "big.json"
    config.write_text(json.dumps(node))
    assert main(["dist", str(config), "#0", "#0"]) == 2
    assert capsys.readouterr().err.startswith("configuration error: root")
    assert all(n <= 3 for _, n in built_groups)  # no group past the bound was built


@pytest.mark.parametrize("preset, n", [("cyclic", cli.MAX_PRESET_ORDER), ("symmetric", 6)])
def test_a_preset_group_at_the_order_bound_is_built(preset, n, built_groups):
    assert cli.finite_group({preset: n}, cli.At("root", "group", CONFIGS)).size == cli.MAX_PRESET_ORDER
    assert built_groups == [(preset, n)]


@pytest.mark.parametrize("node, preset", [
    ({"kind": "naive", "group": {"symmetric": -2}, "q": 1}, "{'symmetric': -2}"),
    ({"kind": "naive", "group": {"symmetric": 0}, "q": 1}, "{'symmetric': 0}"),
    ({"kind": "naive", "group": {"cyclic": 0}, "q": 1}, "{'cyclic': 0}"),
    ({"kind": "naive", "group": {"cyclic": -3}, "q": 1}, "{'cyclic': -3}"),
    ({"kind": "proper_sum", "window": [0, 1], "factor_cyclic": 0, "q": 2}, "factor_cyclic 0"),
    ({"kind": "proper_sum", "window": [0, 1], "factor_cyclic": -1, "q": 2}, "factor_cyclic -1"),
])
def test_a_preset_group_below_n_1_exits_2_naming_the_preset(node, preset, tmp_path, capsys, built_groups):
    config = tmp_path / "small.json"
    config.write_text(json.dumps(node))
    assert main(["dist", str(config), "#0", "#0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: root") and "n >= 1" in err and preset in err
    assert built_groups == []


@pytest.mark.parametrize("preset", ["cyclic", "symmetric"])
def test_a_preset_group_of_n_1_is_the_trivial_group(preset, tmp_path, capsys):
    config = tmp_path / "trivial.json"
    config.write_text(json.dumps({"kind": "naive", "group": {preset: 1}, "q": 1}))
    assert main(["dist", str(config), "#0", "#0"]) == 0
    assert capsys.readouterr().out == "energy 0/1\ndist 0\n"


# ---------------------------------------------------------------------------
# boundary values of integer and list keys

BOUNDARY_COMMANDS = (["dist", "#0", "#1"], ["table", "--limit", "3"], ["growth", "--radius", "2"],
                     ["check", "--samples", "5"], ["export", "--what", "labels", "--limit", "3"],
                     ["export", "--what", "vectors", "--limit", "3"])


def boundary_cases() -> list:
    """(kind, key, value): each integer key of each kind set to -1 and 0, each list key to [],
    and each list key whose base value is non-empty to that value with its first entry repeated."""
    cases = []
    for kind in BASE:
        for key, (reader, _) in schema(kind).items():
            values = [-1, 0] if reader.__name__ == "integer" else [[]] if "list of" in reader.__name__ else []
            base = BASE[kind].get(key)
            if "list of" in reader.__name__ and isinstance(base, list) and base:
                values.append(base[:1] + base)
            cases += [pytest.param(kind, key, value, id=f"{kind}.{key}={value}") for value in values]
    return cases


@pytest.mark.parametrize("kind, key, value", boundary_cases())
def test_boundary_values_exit_0_or_2(workdir, kind, key, value, capsys):
    """No integer or list key at its boundary makes a subcommand raise: each exits
    0 or 2, and only ``check`` exits 1, with a failing report.  The key is set
    on the base node and on the base node's required keys alone, where the
    other optional keys take their defaults."""
    keys = schema(kind)
    required = {k: v for k, v in BASE[kind].items() if k == "kind" or keys[k][1]}
    for document, argv in itertools.product([{**BASE[kind], key: value}, {**required, key: value}], BOUNDARY_COMMANDS):
        code = run(workdir, document, list(argv))
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code == 1:
            assert argv[0] == "check" and not json.loads((workdir / "out.csv").read_text())["passed"], (argv, err)
        else:
            assert code in (0, 2), (argv, code, err)
