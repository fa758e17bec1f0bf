"""``cli.main`` called many times in one process.

The argument parser is built on the first ``main`` call and reused by every
later one.  These tests check that reuse changes nothing a caller can see:
a run of calls in one process, rejected argv included, gives each call the
exit code, stdout and stderr of the same argv in a fresh process; a
seeded ``check`` does not leak its seed into the next one; and the parser
tree is built once per process, never at import.
"""

import contextlib
import io
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from labparts import cli

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
# argparse wraps usage and help text to the terminal width, read from COLUMNS
ENV = {**os.environ, "COLUMNS": "80", "PYTHONPATH": str(ROOT / "src")}


def config(name: str) -> str:
    return str(CONFIGS / f"{name}.json")


def in_process(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``cli.main(argv)``, as the console script would exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def fresh_process(argv: list[str]) -> tuple[int, str, str]:
    proc = subprocess.run([sys.executable, "-m", "labparts.cli", *argv], capture_output=True, text=True,
                          env=ENV, cwd=ROOT, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def every_subcommand(name: str) -> list[list[str]]:
    path = config(name)
    return [
        ["dist", path, "#0", "#3"],
        ["table", path, "--limit", "5"],
        ["growth", path, "--radius", "3"],
        ["check", path, "--samples", "5"],
        ["export", path, "--what", "labels", "--limit", "4"],
    ]


# all five subcommands on three configs, interleaved with argv that argparse
# rejects (exit 2 with a usage line) and with a seeded check followed by a plain one
SEQUENCE = [
    *every_subcommand("z_walls"),
    ["table", config("z_walls"), "--limit", "-1"],
    *every_subcommand("naive"),
    ["bogus", config("naive")],
    ["--seed", "7", "check", config("naive"), "--samples", "5"],
    ["check", config("naive"), "--samples", "5"],
    ["check", config("product"), "--suite", "bogus"],
    *every_subcommand("product"),
    ["growth", config("free_tree")],
    ["export", config("product"), "--what", "labels", "--limit", "100"],
    ["table", "--help"],
    ["dist", config("free_tree"), "[1]", "[2, -1]"],
    ["check", config("z_walls"), "--seed", "3", "--samples", "5"],
    ["check", config("z_walls"), "--samples", "5"],
]


def test_a_sequence_of_calls_in_one_process_matches_fresh_processes(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    got = [in_process(argv) for argv in SEQUENCE]
    want = [fresh_process(argv) for argv in SEQUENCE]
    for argv, g, w in zip(SEQUENCE, got, want):
        assert g == w, argv
    # the sequence does reach argparse's rejections and a stderr note
    assert sum(code == 2 and "usage: labparts" in err for code, _, err in got) == 4
    assert any("seeded sampling found no more" in err for _, _, err in got)


def test_a_plain_check_after_a_seeded_one_gets_seed_0(monkeypatch):
    seen = []
    run_checks = cli.run_checks

    def spy(built, suites, samples, seed, *rest):
        seen.append(seed)
        return run_checks(built, suites, samples, seed, *rest)

    monkeypatch.setattr(cli, "run_checks", spy)
    for argv in (["--seed", "7", "check", config("naive"), "--samples", "3"],
                 ["check", config("naive"), "--samples", "3"],
                 ["check", config("naive"), "--seed", "5", "--samples", "3"],
                 ["check", config("naive"), "--samples", "3"]):
        assert in_process(argv)[0] == 0, argv
    assert seen == [7, 0, 5, 0]


COUNT_PARSERS = textwrap.dedent(
    """
    import argparse, contextlib, io, sys

    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    argparse.ArgumentParser.__init__ = counted
    from labparts import cli

    print(len(built))
    argvs = [["dist", sys.argv[1], "#0", "#1"], ["table", sys.argv[1], "--limit", "3"],
             ["table", sys.argv[1], "--limit", "-1"], ["bogus"]]
    for i in range(20):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                cli.main(argvs[i % len(argvs)])
            except SystemExit:
                pass
        print(len(built))
    """
)


def test_the_parser_is_built_once_per_process_and_not_at_import():
    proc = subprocess.run([sys.executable, "-c", COUNT_PARSERS, config("z_walls")], capture_output=True,
                          text=True, env=ENV, cwd=ROOT, timeout=120, check=True)
    counts = [int(line) for line in proc.stdout.split()]
    assert counts[0] == 0  # importing labparts.cli builds no parser
    # the first call builds the top parser and one subparser per subcommand; later calls build none
    assert counts[1:] == [6] * 20

