"""mutspect benchmark: seeded workloads, end-to-end times, per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; mutspect is imported from
``src/`` of that checkout and nowhere else.  One run:

1. builds the workload's input sets from ``--seed``, repeatedly, and times
   it (after untimed set-ups that let first-call costs pass);
2. runs every operation once on each input set, untimed, then in turns
   (one operation on every draw of every input set) for ``--seconds``.
   With ``--trace 0`` no turn is traced and the end-to-end metrics are
   printed.  With ``--trace 1`` untraced and traced turns alternate and the
   per-layer metrics are printed.  Once half the time is spent, every
   operation runs once more under ``tracemalloc`` (the memory pass).

Every execution is checked; a failed check or exception counts against the
attempted operations.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it describe the machine, the samples, digests and exact counters.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
WORK_ROOT = ROOT / ".perfbench_work"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mutspect" / "__init__.py").is_file():
        print(f"error: no mutspect sources at {SRC}", file=sys.stderr)
        return 2
    if not SPEC_PATH.is_file():
        print(f"error: {SPEC_PATH.name} not found at the checkout root", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    # RunConfig.threads > 1 races on the unlocked forward-pass counter
    os.environ.pop("MUTSPECT_THREADS", None)
    sys.path.insert(0, str(SRC))
    import harness

    imported = Path(harness.W.ms.__file__).resolve()
    if not imported.is_relative_to(SRC.resolve()):
        print(f"error: mutspect was imported from {imported}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in harness.W.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(harness.W.WORKLOADS)}", file=sys.stderr)
        return 2
    result = harness.run(args, spec, WORK_ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
