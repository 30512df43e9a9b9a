"""Reduce a pytest-benchmark JSON file to one run record and append it to a BENCH file.

    python -m pytest perf --benchmark-json=run.json
    python perf/reduce.py run.json BENCH_stages_<n>.json

A record holds the git SHA and Python version of the run, the host reference
time of ``bench/hostref.py`` measured now, and per benchmark the median, IQR
(both in µs) and rounds.  Compare two records from one session.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import hostref  # noqa: E402

run, out = json.loads(Path(sys.argv[1]).read_text()), Path(sys.argv[2])
record = {
    "git_sha": run["commit_info"].get("id"),
    "dirty": run["commit_info"].get("dirty"),
    "python": run["machine_info"]["python_version"],
    "hostref_ms": round(hostref.reference_ms(), 4),
    "benchmarks": {
        b["fullname"].split("::")[-1]: {"median_us": round(b["stats"]["median"] * 1e6, 3),
                                         "iqr_us": round(b["stats"]["iqr"] * 1e6, 3),
                                         "rounds": b["stats"]["rounds"]}
        for b in run["benchmarks"]
    },
}
runs = json.loads(out.read_text())["runs"] if out.exists() else []
out.write_text(json.dumps({"runs": runs + [record]}, indent=1, ensure_ascii=False) + "\n")
