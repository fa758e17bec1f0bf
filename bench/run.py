"""labparts benchmark: closed-loop CLI sessions, end to end and layer by layer.

Usage, from the repository root::

    python3 bench/run.py --workload amalgam --seed 3 --seconds 30 --trace 0

Workloads are defined in ``workloads.py``.  One client sends a session of
``labparts.cli.main(argv)`` calls, each after the previous one returned.
Every session runs in a fresh child process, one child at a time; sessions
repeat, each with inputs drawn from ``(seed, session)``, until ``--seconds``
have passed.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over fresh processes of importing ``labparts`` and
  building the workload's configs with ``cli.build_space``;
* ``table_s``, ``growth_s``, ``check_s``, ``export_s``: per-session time of
  the workload's commands of that subcommand, median over sessions;
* ``dist_p50_ms``, ``dist_p90_ms``: latency of single ``dist`` calls, pooled
  over the run;
* ``session_s``: per-session time of all timed commands, median;
* ``peak_rss_mb``: the session process's maximum RSS, median.

Times are wall-clock times scaled to a reference machine speed.  Shared
hosts change speed by up to 1.5x for tens of seconds at a time, which moves
every wall-clock median of a run together.  This process therefore times
``speed_probe``, a fixed loop, right before and right after each child, and
each of the child's times is multiplied by ``REFERENCE_PROBE_S`` over the
mean of those two probe times.  This process never imports labparts, so no
change to the program can alter the probe.  The raw wall-clock samples and
probe times are kept in the record under ``bench/out/`` and the printed
lines show the wall-clock median beside each scaled one.

``--trace 1`` alternates untraced and traced copies of session 0 and reports
the per-layer metrics of ``tracer.PER_LAYER`` plus ``trace_overhead_ratio``
(traced over untraced ``session_s``).  Call counts must repeat exactly
between the traced copies.

Every output is checked (``verify.py``).  Known-defect operations
(``workloads.known_defects``) run untimed once per run; they count in the
printed ``error_rate`` but not in the result's ``failed``, which counts only
the workload's own operations.  The last stdout line is the result JSON;
the full record with provenance goes to ``bench/out/``.  Exit status is 0
when every check passed and 1 otherwise; 2 when run outside a checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
OUT = HERE / "out"
SETUP_REPEATS = 15
CHILD_TIMEOUT_S = 150
MIN_TRACED = 2
MIN_SESSIONS = 3  # with DIST_CALLS per session, at least 100 dist calls per run
SUBCOMMANDS = ("table", "growth", "check", "export")
SUBCOMMANDS_S = tuple(f"{kind}_s" for kind in SUBCOMMANDS)
# speed_probe time on a 2-vCPU x86-64 VM under Python 3.11 when the host is idle
REFERENCE_PROBE_S = 0.006


class ChildFailed(RuntimeError):
    pass


def speed_probe() -> float:
    """Median of five timings of a fixed loop of Fraction arithmetic and dict
    and tuple work, the operations labparts spends its time in."""
    assert "labparts" not in sys.modules, "the speed probe must not share a process with labparts"
    times = []
    for _ in range(5):
        t0 = perf_counter()
        acc: dict = {}
        for i in range(1500):
            key = (i % 97, (i * 7) % 13)
            acc[key] = acc.get(key, Fraction(0)) + (Fraction(1, i + 1) if i % 5 else Fraction(i, 7))
        times.append(perf_counter() - t0)
    return sorted(times)[2]


def child(args: list[str], env: dict, script: str = "session.py") -> dict:
    """Run one child process; its result carries the probe times taken
    right before and right after it."""
    before = speed_probe()
    proc = subprocess.run([sys.executable, str(HERE / script), *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"{script} {' '.join(args)} exited {proc.returncode}: {proc.stderr[-3000:]}")
    after = speed_probe()
    return {**json.loads(proc.stdout.splitlines()[-1]), "speed_probe_s": [before, after]}


def speed_factor(result: dict) -> float:
    return REFERENCE_PROBE_S / statistics.mean(result["speed_probe_s"])


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def provenance(args, sessions: list[dict]) -> dict:
    sources = sorted((ROOT / "src" / "labparts").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "files_sha256": {f: sha256_file(ROOT / f) for f in workloads.files_used(args.workload, ROOT)},
        "reference_probe_s": REFERENCE_PROBE_S,
        "benchmark_argv": sys.argv,
        "cli_argv": [[c["argv"] for c in s["commands"]] for s in sessions],
    }


def session_times(sessions: list[dict], scaled: bool) -> dict[str, list[float]]:
    """Per-session seconds of each subcommand and of the whole session."""
    out: dict[str, list[float]] = {f"{kind}_s": [] for kind in SUBCOMMANDS + ("session",)}
    for s in sessions:
        factor = speed_factor(s) if scaled else 1.0
        for kind in SUBCOMMANDS:
            out[f"{kind}_s"].append(factor * sum(c["seconds"] for c in s["commands"] if c["kind"] == kind))
        out["session_s"].append(factor * sum(c["seconds"] for c in s["commands"]))
    return out


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, q in 1..99, with statistics.quantiles' default method."""
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(sessions: list[dict], setups: list[dict]) -> tuple[dict, dict]:
    """Metrics as (median, unit, sample count, wall-clock median), and the raw samples."""
    scaled = session_times(sessions, scaled=True)
    wall = session_times(sessions, scaled=False)
    scaled["setup_s"] = [speed_factor(s) * s["setup_s"] for s in setups]
    wall["setup_s"] = [s["setup_s"] for s in setups]
    metrics = {name: (statistics.median(scaled[name]), "s", len(scaled[name]), statistics.median(wall[name]))
               for name in ["setup_s", *SUBCOMMANDS_S, "session_s"]}
    dist_wall = [1000.0 * c["seconds"] for s in sessions for c in s["commands"] if c["kind"] == "dist"]
    dist = [1000.0 * speed_factor(s) * c["seconds"] for s in sessions for c in s["commands"] if c["kind"] == "dist"]
    for name, q in (("dist_p50_ms", 50), ("dist_p90_ms", 90)):
        metrics[name] = (percentile(dist, q), "ms", len(dist), percentile(dist_wall, q))
    rss = [s["rss_mb"] for s in sessions]
    metrics["peak_rss_mb"] = (statistics.median(rss), "MB", len(rss), None)
    samples = {"wall_s": wall, "dist_wall_ms": dist_wall, "peak_rss_mb": rss,
               "session_speed_probe_s": [s["speed_probe_s"] for s in sessions],
               "setup_speed_probe_s": [s["speed_probe_s"] for s in setups]}
    return metrics, samples


def per_layer(workload: str, untraced: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics (median over traced sessions) and tracer self-check failures."""
    problems = []
    for s in traced:
        if s["escapes"]:
            problems.append(f"calls escape tracing through {s['escapes']}")
    counts = [{name: st["calls"] for name, st in s["stats"].items()} for s in traced]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("per-layer call counts differ between traced copies of one session")
    if workload != "amalgam":
        reached = [name for name in counts[0] if name.startswith(("amalgam.", "groups.AmalgamGroup."))]
        if reached:
            problems.append(f"amalgam code ran on {workload}: {reached}")
    values = []
    for s in traced:
        factor, v = speed_factor(s), tracer.metrics(s["stats"])
        values.append({name: factor * v[name] if unit == "s" else v[name] for name, _, _, unit in tracer.PER_LAYER})
    metrics = {name: (statistics.median(v[name] for v in values), unit, len(traced), None)
               for name, _, _, unit in tracer.PER_LAYER}
    traced_s, untraced_s = (statistics.median(session_times(group, scaled=True)["session_s"])
                            for group in (traced, untraced))
    metrics["trace_overhead_ratio"] = (traced_s / untraced_s, "ratio", len(traced), None)
    return metrics, problems


def run(args) -> dict:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    record: dict = {"sessions": [], "traced": [], "setups": []}
    if args.trace:
        started = perf_counter()
        while len(record["traced"]) < MIN_TRACED or perf_counter() - started < args.seconds:
            record["sessions"].append(child(base + ["--session", "0"], env))
            record["traced"].append(child(base + ["--session", "0", "--trace"], env))
        return record
    configs = list(workloads.CONFIGS[args.workload])
    child(configs, env, "setup_time.py")  # compiles bytecode; users do not pay that per call
    record["setups"] = [child(configs, env, "setup_time.py") for _ in range(SETUP_REPEATS)]
    started = perf_counter()
    while len(record["sessions"]) < MIN_SESSIONS or perf_counter() - started < args.seconds:
        k = len(record["sessions"])
        extra = ["--known-defects"] if k == 0 else []
        record["sessions"].append(child(base + ["--session", str(k)] + extra, env))
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [p for p in ("src/labparts/cli.py", "configs") if not (ROOT / p).exists()]
    if missing:
        print(f"bench: {missing} not found; run from the root of a labparts checkout", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    try:
        record = run(args)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    sessions, traced = record["sessions"], record["traced"]
    commands = [c for s in sessions + traced for c in s["commands"]]
    problems = [f"{' '.join(c['argv'])}: {c['problem']}" for c in commands if c["problem"]]
    samples = {}
    if args.trace:
        metrics, trace_problems = per_layer(args.workload, sessions, traced)
        problems += trace_problems
    else:
        metrics, samples = end_to_end(sessions, record["setups"])
    defects = [op for s in sessions for op in s.get("known_defects", [])]
    failed = sum(1 for c in commands if c["problem"])
    defects_failed = sum(1 for op in defects if not op["ok"])

    print(f"workload {args.workload} seed {args.seed}: {len(sessions)} untraced and {len(traced)} traced "
          f"sessions, one client, closed loop, one fresh child process per session")
    for name, (value, unit, n, wall) in metrics.items():
        note = "" if wall is None else f"; wall-clock {wall:.6g} {unit}"
        print(f"{name} {value:.6g} {unit} (n={n}{note})")
    attempted_all = len(commands) + len(defects)
    print(f"error_rate {(failed + defects_failed) / attempted_all:.6g} ratio "
          f"({failed + defects_failed} of {attempted_all} operations failed; "
          f"known-defect operations: {defects_failed} of {len(defects)} failed)")
    for op in defects:
        status = "ok" if op["ok"] else "FAIL " + "; ".join(op["problems"])
        print(f"known_defect {op['name']}: {' '.join(op['argv'])} -> {status}")
    for problem in problems:
        print(f"CHECK FAILED {problem}")

    result = {"correct": not problems, "attempted": len(commands), "failed": failed,
              "metrics": {name: {"value": m[0], "unit": m[1]} for name, m in metrics.items()}}
    full = {**result, "sample_counts": {name: m[2] for name, m in metrics.items()}, "samples": samples,
            "problems": problems, "known_defects": defects, "provenance": provenance(args, sessions + traced)}
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(full, indent=1) + "\n")
    print(f"provenance and samples written to {path}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
