"""Single-stage timings behind the benchmark's baseline table.

Run from the repository root:

    python3 bench/baseline.py

Prints a Markdown table of the median and interquartile range of:
``parse_scenario`` and ``report.demo_payload`` on the quintic conifold,
the build of the (P^2)^8 scenario with eight divisors (1,…,1), and
``python -m balcone demo`` / ``render`` against a bare interpreter.  The
times are raw wall times; the host-speed reference of ``hostref.py`` is
printed with them.
"""

import statistics
import subprocess
import sys
from time import perf_counter

import hostref
from run import ROOT, RUN_DIR, SRC, pin_to_one_cpu
from workloads import (QUINTIC_PRIMES, child_env, document_text, load_balcone,
                       pn_document, product_document)


def timed(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append((perf_counter() - t0) * 1e3)
    q = statistics.quantiles(times, n=4)
    return statistics.median(times), q[2] - q[0], repeats


def process(argv):
    env = child_env(SRC)
    return lambda: subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, check=True,
                                  stdout=subprocess.DEVNULL, timeout=60)


def main():
    pin_to_one_cpu()
    m = load_balcone(SRC)
    quintic = document_text(pn_document(4, QUINTIC_PRIMES))
    scenario = m["scenario_io"].parse_scenario(quintic)
    big = document_text(product_document(2, 8, 8))
    svg = RUN_DIR / "baseline-cones.svg"
    RUN_DIR.mkdir(exist_ok=True)
    process(["-m", "balcone", "demo"])()  # caches bytecode before timing
    rows = [
        ("`parse_scenario` (quintic)", timed(lambda: m["scenario_io"].parse_scenario(quintic), 200)),
        ("`report.demo_payload` (quintic)", timed(lambda: m["report"].demo_payload(scenario), 200)),
        ("(P^2)^8, 8 divisors: `parse_scenario`", timed(lambda: m["scenario_io"].parse_scenario(big), 5)),
        ("`python -c pass`", timed(process(["-c", "pass"]), 15)),
        ("`python -m balcone demo`", timed(process(["-m", "balcone", "demo"]), 15)),
        ("`python -m balcone render --out`",
         timed(process(["-m", "balcone", "render", "--out", str(svg)]), 15)),
    ]
    print(f"host-speed reference: {hostref.reference_ms():.3f} ms "
          f"(nominal {hostref.REFERENCE_MS} ms)\n")
    print("| what | median ms | IQR ms | runs |")
    print("|---|---|---|---|")
    for name, (med, iqr, n) in rows:
        print(f"| {name} | {med:.2f} | {iqr:.2f} | {n} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
