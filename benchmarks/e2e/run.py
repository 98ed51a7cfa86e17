"""The benchmark's contract entry point (see ``BENCHMARK.json``).

``python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S
--trace 0|1`` runs one workload once and prints, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` — every end-to-end metric with ``--trace 0``, every
per-layer metric with ``--trace 1``.  Exit code 0 means the harness
ran; a slow or failing program shows in the numbers and in ``failed``,
not in the exit code.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def main(argv=None) -> int:
    if not (REPO_ROOT / "src" / "vidb" / "cli.py").is_file():
        print(f"error: no vidb sources under {REPO_ROOT / 'src'}; the "
              f"benchmark runs the program from its checkout",
              file=sys.stderr)
        return 2
    for entry in (REPO_ROOT / "src", REPO_ROOT):
        if str(entry) not in sys.path:
            sys.path.insert(0, str(entry))
    from benchmarks.e2e import harness

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=harness.workload_names())
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed section (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds like an interrupted one, so ``finally``
    # and ``atexit`` still stop and reap every child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    result = harness.run_once(args.workload, args.seed, args.seconds,
                              traced=bool(args.trace), verbose=True)
    print(json.dumps(harness.contract_line(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
