"""One benchmark session, run in a fresh child process by ``run.py``.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 bench/session.py --workload amalgam --seed 3 --session 0 [--trace] [--known-defects] [--tiny]

A session sends its workload's CLI commands one after the other through
``labparts.cli.main(argv)``, capturing stdout and stderr, and times each
call.  Outputs are checked only after the last command, so the checks cost
no timed work and the peak RSS is read before they run.  The result is one
JSON object on stdout.  A traced session also writes its spans to
``bench/out/spans-<workload>.bin``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def call(argv: list[str]) -> tuple[int, str, str, float]:
    """Run ``labparts.cli.main(argv)`` as the console script would."""
    from labparts import cli

    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:  # an uncaught error reaches the user as a traceback and exit 1
            traceback.print_exc()
            code = 1
    seconds = perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), seconds


def run_known_defect(op: dict) -> dict:
    """One known-defect operation; the top-level seed one also records the
    seed that ``run_checks`` received."""
    from labparts import cli

    seen = []
    run_checks = cli.run_checks

    def spy(built, suites, samples, seed, *rest):
        seen.append(seed)
        return run_checks(built, suites, samples, seed, *rest)

    cli.run_checks = spy
    try:
        code, _, err, _ = call(op["argv"])
    finally:
        cli.run_checks = run_checks
    problems = []
    if code != op["expect"]:
        problems.append(f"exit {code}, expected {op['expect']}")
    if "Traceback" in err:
        problems.append("traceback")
    if op["seed"] is not None and seen != [op["seed"]]:
        problems.append(f"check ran with seed {seen}, expected {op['seed']}")
    return {"name": op["name"], "argv": op["argv"], "ok": not problems, "problems": problems}


def run_session(workload: str, seed: int, session: int, trace: bool, known_defects: bool, tiny: bool) -> dict:
    import verify

    commands = workloads.session_commands(workload, seed, session, tiny)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    for index, argv in enumerate(commands):
        if tracer is not None:
            tracer.run_id, tracer.config, tracer.on = index, Path(argv[1]).stem, True
        code, out, err, seconds = call(argv)
        if tracer is not None:
            tracer.on = False
        results.append((argv, code, out, err, seconds))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    verifier = verify.Verifier(verify.load_references())
    report = {"commands": [], "rss_mb": rss_mb}
    for argv, code, out, err, seconds in results:
        problem = verifier.problem(argv, code, out, err)
        report["commands"].append({"argv": argv, "kind": argv[0], "seconds": seconds, "problem": problem})
    if known_defects:
        report["known_defects"] = [run_known_defect(op) for op in workloads.known_defects(seed)]
    if tracer is not None:
        report["escapes"] = tracer.escapes()
        report["spans"] = len(tracer.start)
        report["stats"] = tracer.aggregate()
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{workload}.bin")
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--session", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--known-defects", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    result = run_session(args.workload, args.seed, args.session, args.trace, args.known_defects, args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
