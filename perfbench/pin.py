#!/usr/bin/env python3
"""Write reference.json: the warm-up outcomes of every workload.

Run from the repository root, on a commit whose ``(sample, tau)`` are
trusted:

    python3 perfbench/pin.py

``run.py`` compares the outcomes of its warm-up runs (seeds
``REFERENCE_BASE + i``) with these on every invocation.
"""

import json
import sys

import run as bench


def main() -> int:
    doc = {}
    for name, wl in bench.WORKLOADS.items():
        kernel = bench.load_workload_kernel(wl)
        tally = bench.run_pass(kernel, wl.length, bench.reference_seeds(wl), bench.engine.run,
                               keep=True)
        doc[name] = {
            "seed_base": bench.REFERENCE_BASE,
            "runs": tally.runs,
            "digest": tally.digest(),
            "budget_failures": {
                str(o.seed): o.line() for o in tally.outcomes if o.code != "ok"},
        }
        print(f"{name}: {tally.runs} runs, {dict(tally.codes)}, digest {tally.digest()}")
    path = bench.BENCH_DIR / "reference.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path.relative_to(bench.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
