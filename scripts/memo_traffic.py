#!/usr/bin/env python3
"""Print how much of each finite kernel's stepping the step memo answers.

For every finite-order shipped kernel at window lengths 1..3, one fresh
kernel runs seeds 0..N-1 at the default budgets, so the runs share one
slice table and its memo, and no other length's runs reach them (lengths
up to the order share a table).  A line gives the case, the backward steps, the
program runs (calls of ``engine._compose``, counted by wrapping it), the
share of steps the memo answered, the maps the table interned and the
transitions it stored (``sum(len(entry.memo) for entry in
table.entries)``).  Running it on two checkouts shows how a change to the
memo moves its traffic.

Usage:
    python scripts/memo_traffic.py --seeds 300 > change.txt
    python scripts/memo_traffic.py --seeds 300 --src ../other/src > other.txt
    diff other.txt change.txt
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, default=300, help="seeds 0..N-1 per case")
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="directory the ciaftp package is imported from")
    args = ap.parse_args()
    sys.path.insert(0, str(args.src))
    from ciaftp import engine
    from ciaftp.errors import BudgetError
    from ciaftp.kernels import load_kernel

    compose = engine._compose
    programs = 0

    def counting(*a):
        nonlocal programs
        programs += 1
        return compose(*a)

    engine._compose = counting
    print("kernel L seeds steps programs memo_share maps transitions")
    for path in sorted((ROOT / "kernels").glob("*.json")):
        if load_kernel(str(path)).order is None:
            continue
        for length in (1, 2, 3):
            kernel = load_kernel(str(path))
            programs = steps = 0
            for seed in range(args.seeds):
                try:
                    d = engine.run(kernel, length, engine.RngStream(seed)).diagnostics
                except BudgetError as exc:
                    d = exc.diagnostics
                steps += d.iterations
            table = engine.slice_table(kernel, length)
            transitions = sum(len(entry.memo) for entry in table.entries)
            share = 1 - programs / steps if steps else 0.0
            print(f"{path.stem} {length} {args.seeds} {steps} {programs} {share:.4f}"
                  f" {len(table.maps)} {transitions}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
