"""Record the reference digest of every benchmark case into reference.json.

    python3 bench/record_reference.py

Run it on a commit whose outputs are trusted; the benchmark then counts any
operation whose digest differs as failed.
"""

from __future__ import annotations

import json
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import workloads  # noqa: E402


def main() -> None:
    refs = {name: {case.name: case.run() for case in wl.cases}
            for name, wl in workloads.WORKLOADS.items()}
    with open(os.path.join(BENCH, "reference.json"), "w",
              encoding="utf-8") as fh:
        json.dump(refs, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
