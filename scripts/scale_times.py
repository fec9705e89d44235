#!/usr/bin/env python3
"""Seconds per pipeline stage and peak memory, one fresh process per input.

Run from the repository root:

    python scripts/scale_times.py [NAME ...]

Each NAME is read as ``scripts/stage_times.py`` reads it (``cross<d>``,
``cube<d>``, ``hull<d>_<k>`` or ``prism<d>``); the default is
``cube10 hull8_30``.  Each input runs once, in a new Python process, so
that the process's ``ru_maxrss``, its peak resident memory, is the run's
own and no earlier input's.  The stages are those of
``scripts/stage_times.py`` up to ``report``, timed once each by the same
function; ``reconstruct`` is left out, as the dense incidence it reads
would not fit in memory on ``cube10``.

One row of a Markdown table is printed per input: the faces and covering
pairs of its lattice, each stage's seconds, and ``ru_maxrss`` in MB.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stage_times import PIPELINE, pipeline_times, polytope  # noqa: E402  (it puts src on the path)

DEFAULT = ("cube10", "hull8_30")


def measure(name: str) -> dict:
    """One run of the stages on the input NAME, in this process
    (``stage_times.pipeline_times``): the lattice's faces and covering
    pairs, each stage's seconds, and the process's ``ru_maxrss`` in MB
    (Linux reports it in KB)."""
    lattice, _, seconds = pipeline_times(polytope(name))
    return {"faces": len(lattice.faces_by_id), "pairs": sum(map(len, lattice.down)),
            "seconds": seconds,
            "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", default=DEFAULT, metavar="NAME")
    parser.add_argument("--child", metavar="NAME", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:  # the fresh process of one input
        print(json.dumps(measure(args.child)))
        return
    print("| input | faces | pairs | " + " | ".join(PIPELINE) + " | `ru_maxrss` |")
    print("|---" * (len(PIPELINE) + 4) + "|")
    for name in args.names:
        run = subprocess.run([sys.executable, __file__, "--child", name],
                             capture_output=True, text=True)
        if run.returncode:  # a child a signal stopped may leave no stderr
            last = run.stderr.strip().splitlines()[-1:] or [
                f"the child process ended with return code {run.returncode} and no error output"]
            raise SystemExit(f"{name}: {last[0]}")
        row = json.loads(run.stdout)
        cells = [f"{s:.3f}" for s in row["seconds"]]
        print(f"| `{name}` | {row['faces']:,} | {row['pairs']:,} | " + " | ".join(cells)
              + f" | {row['maxrss_mb']:.0f} MB |", flush=True)


if __name__ == "__main__":
    main()
