"""Streamed output of the writing commands.

``table`` and ``export`` write their output as they make it, through the one
writer that ``growth`` and ``check`` use too.  These tests pin what a caller
sees of that: output equal to ``json.dumps(..., indent=2, sort_keys=True)``
with strings escaped and keys sorted as ``json`` does, a bounded memory peak,
a reader that closes the pipe early, an ``--out`` that cannot be written, and
``--out`` files equal to stdout.
"""

import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from labparts.cli import main

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
CONFIG_NAMES = sorted(p.name for p in CONFIGS.glob("*.json"))

# point names that json escapes ('"', '\\', non-ASCII) or that sort differently once escaped;
# the last two points are at distance 0, so their pair's vector is empty
ESCAPED_METRIC = {
    "kind": "metric_linf",
    "points": ['a"b', "a#b", "é\\x", "z'q"],
    "matrix": [[0, 1, 2, 2], [1, 0, 2, 2], [2, 2, 0, 0], [2, 2, 0, 0]],
}

# one of each writing command, with small enough counts to run on every shipped config
WRITERS = {
    "table": ["--limit", "6"],
    "growth": ["--radius", "3"],
    "check": ["--samples", "5"],
    "export-labels": ["--what", "labels", "--limit", "6"],
    "export-vectors": ["--what", "vectors", "--limit", "6"],
}


def argv_of(writer: str, config: str) -> list[str]:
    return [writer.split("-")[0], str(CONFIGS / config), *WRITERS[writer]]


def run(argv, capsys) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def escaped_config(tmp_path) -> str:
    path = tmp_path / "escaped.json"
    path.write_text(json.dumps(ESCAPED_METRIC))
    return str(path)


@pytest.mark.parametrize("what", ["labels", "vectors"])
def test_export_is_json_dumps_of_its_payload(what, escaped_config, capsys):
    code, out, err = run(["export", escaped_config, "--what", what], capsys)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if what == "labels":
        # keys sort on the raw string, where '"' comes before "'"; escaped, '\\"' comes after "'"
        assert [entry["label"] for entry in payload][:2] == ["(('dirac', \"z'q\"),)", "(('dirac', 'a\"b'),)"]
    else:
        assert payload[-1] == {"x": repr("é\\x"), "y": repr("z'q"), "vector": {}}
        assert '"vector": {}' in out


@pytest.mark.parametrize("what", ["labels", "vectors"])
@pytest.mark.parametrize("limit", ["0", "1"])
def test_export_of_no_pair_is_an_empty_list(what, limit, escaped_config, capsys):
    assert run(["export", escaped_config, "--what", what, "--limit", limit], capsys) == (0, "[]\n", "")


def test_export_memory_stays_bounded_as_it_streams(monkeypatch):
    class CountingSink(io.TextIOBase):
        """A stdout that keeps only the number of characters written to it."""

        written = 0

        def write(self, text: str) -> int:
            self.written += len(text)
            return len(text)

    sink = CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(["export", str(CONFIGS / "free_tree.json"), "--what", "vectors", "--limit", "150"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.written > 8_000_000  # 11,175 pairs, about 8.8 MB of JSON
    assert peak < 8_000_000  # the whole payload formatted at once peaked at 59 MB


@pytest.mark.parametrize("argv", [
    ["table", "configs/free_tree.json", "--limit", "60"],
    ["export", "configs/free_tree.json", "--what", "vectors", "--limit", "60"],
], ids=["table", "export"])
def test_a_reader_closing_the_pipe_early_ends_the_run_quietly(argv):
    # both outputs are far larger than a pipe's buffer, so the writer meets the closed pipe
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.Popen([sys.executable, "-m", "labparts.cli", *argv], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    finally:
        proc.kill()
        proc.stderr.close()
    assert (code, err) == (0, b"")


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_an_unwritable_out_path_exits_2(writer, tmp_path, capsys):
    before = sorted(tmp_path.iterdir())
    for out in (tmp_path / "missing" / "x", tmp_path):
        code, stdout, err = run([*argv_of(writer, "z_walls.json"), "--out", str(out)], capsys)
        assert code == 2 and stdout == ""
        assert err.startswith("configuration error:") and str(out) in err and "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("writer", sorted(WRITERS))
@pytest.mark.parametrize("config", CONFIG_NAMES)
def test_out_file_equals_stdout(writer, config, tmp_path, capsys):
    code, stdout, _ = run(argv_of(writer, config), capsys)
    out = tmp_path / "out"
    assert run([*argv_of(writer, config), "--out", str(out)], capsys)[:2] == (code, "")
    if code == 2:  # growth needs a group action, which the naive and product configs lack
        assert stdout == "" and not out.exists()
    else:
        assert out.read_bytes() == stdout.encode()
