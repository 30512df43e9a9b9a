"""Record the golden output digests that the benchmark compares against.

Run from the repository root at a commit whose outputs are known good:

    python3 bench/record_golden.py

Every fixed op of every workload runs once; its output must first pass the
oracle checks, then its sha256 is written to bench/golden.json.  Ops with
seed-drawn inputs are checked by the oracle alone and record nothing.
"""

import json
import sys

from run import ROOT, SRC
from workloads import GOLDEN, WORKLOADS, Golden


def main():
    golden = Golden(record=True)
    for cls in WORKLOADS.values():
        wl = cls(0, SRC, golden)
        for op in wl.ops():
            op.check(op.run())
    GOLDEN.write_text(json.dumps(dict(sorted(golden.digests.items())), indent=1) + "\n",
                      encoding="utf-8")
    print(f"{len(golden.digests)} digests written to {GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
