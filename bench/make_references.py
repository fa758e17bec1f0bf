"""Write ``references.json``: SHA-256 of every seed-independent benchmark output.

Run from the repository root with ``PYTHONPATH=src python3 bench/make_references.py``.
Regenerate only in a change that alters CLI output on purpose and says why;
the benchmark fails any output that differs from these hashes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import session  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    references = {}
    for tiny in (False, True):
        for argv in workloads.deterministic_commands(tiny):
            code, out, err, _ = session.call(argv)
            if code != 0 or err:
                print(f"{' '.join(argv)}: exit {code}\n{err}", file=sys.stderr)
                return 1
            references[" ".join(argv)] = verify.sha256(out)
    verify.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(references)} references to {verify.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
