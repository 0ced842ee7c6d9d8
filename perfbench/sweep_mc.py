"""Run every input the mc workload can draw, and report any that fails.

    python3 perfbench/sweep_mc.py

The checks of mc are statistical, so a seed of the benchmark may only
draw inputs whose sample streams pass: the annulus-mc seeds of
workloads.ANNULUS_SEEDS, and on each Dobrushin square every boundary start
and every spin, each with the stream seed workloads.dobrushin_input gives
it.  Run this again after any change to the sampler or to those inputs.
Prints one line per input that fails, then a summary; exits 1 if any
failed.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]
                            ).parse_args(argv)
    t0 = time.perf_counter()
    failed = 0
    for seed in workloads.ANNULUS_SEEDS:
        result = workloads.run_cli(workloads.annulus_mc_args(seed, False))
        if not workloads._annulus_check(result):
            failed += 1
            print(f"annulus-mc --seed {seed} failed:\n{result[1]}")
    worst, n_inputs = 0.0, 0
    for w, h in sorted(set(workloads.DOBRUSHIN_SQUARES)):
        for start in range(2 * (w + h)):
            for mn in ((m, n) for m in range(w) for n in range(h)):
                spec, vertex, seed = workloads.dobrushin_input(w, h, start,
                                                               mn)
                ref = workloads._ExactRef(w, h, spec, vertex)
                ref.compute()
                est = workloads.dobrushin_call(w, h, spec, vertex, seed,
                                               False)
                pull = abs(est.mean - ref.value) / est.stderr
                worst = max(worst, pull)
                n_inputs += 1
                if not ref.check(est):
                    failed += 1
                    print(f"dobrushin {w}x{h} start {start} spin {mn} "
                          f"seed {seed}: mc {est.mean:.5f} +- "
                          f"{est.stderr:.5f}, exact {ref.value:.5f}")
    print(f"{len(workloads.ANNULUS_SEEDS)} annulus seeds, {n_inputs} "
          f"Dobrushin inputs (largest pull {worst:.2f}); {failed} failed; "
          f"{time.perf_counter() - t0:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
