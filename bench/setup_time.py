"""Time, in a fresh process, the work every labparts CLI invocation pays first.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 bench/setup_time.py CONFIG...

The clock starts before anything but ``sys`` and ``time`` is imported, then
covers importing ``labparts.cli`` and building each config with
``cli.build_space``.  Prints one JSON object with ``setup_s``.
"""

from __future__ import annotations

import sys
from time import perf_counter


def main() -> int:
    t0 = perf_counter()
    import json
    from pathlib import Path

    from labparts import cli

    for config in sys.argv[1:]:
        path = Path(config)
        cli.build_space(json.loads(path.read_text()), path.parent)
    setup_s = perf_counter() - t0
    print(json.dumps({"setup_s": setup_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
