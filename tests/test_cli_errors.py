"""The CLI's error contract: bad input exits 2, never with a traceback."""

from pathlib import Path

import pytest

from labparts.cli import main

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


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "z_walls.json", "--limit", "-1"],
        ["table", "z_walls.json", "--radius", "-3"],
        ["export", "z_walls.json", "--what", "labels", "--limit", "-1"],
        ["check", "z_walls.json", "--samples", "-2"],
        ["growth", "z_walls.json", "--radius", "2", "--budget", "-1"],
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
    "table": [["--limit", "-1"], ["--radius", "-3"], ["--limit", "abc"]],
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
