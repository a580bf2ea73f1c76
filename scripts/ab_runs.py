#!/usr/bin/env python3
"""Compare how fast two checkouts of ciaftp run one kernel, in one process.

Each side's ``ciaftp`` package is imported from its ``src`` directory under
its own package name (``ciaftp_a``, ``ciaftp_b``), with its own copy of the
kernel, so both run in one process.  Blocks of seeds alternate between the
two sides, and so does the side that runs a block first: on a VM whose
speed drifts by up to 1.7x over minutes (see ``perfbench/run.py``), two
separate processes cannot resolve a 5% change, but two neighbouring blocks
see nearly the same machine.

Block ``i`` is the seeds ``i*S .. i*S + S-1`` (``S`` = ``--block-seeds``),
each drawn from ``RngStream(seed)`` at the default budgets.  A block's time
covers the sampler's calls only (``run``, or ``pw_extended`` with
``--algorithm pw_extended``): the streams are seeded before the timer
starts.  Before the first block each side runs one block of seeds from
2**40 on, untimed, so that its slice tables fill and its programs compile.
With ``--cold N`` each block instead times a cold start, what a fresh
``run_many`` pays and the shape of perfbench's set-up: it loads a fresh
kernel on each side and runs the reference seeds ``2**62 + 0 .. N-1`` on
it, with no warm-up block; the time covers the load, the seeding of each
run's stream, just before the run, and the runs.  Every seed must give the
same ``(sample, tau, node_touches)`` on both sides (a budget error: its
code, no tau, and its node touches); the script stops with an error at the
first one that differs.  It prints, for the block ratio ``a time / b
time`` (above 1: side b is faster), the median and quartiles, the number
of blocks each side won, and each side's median microseconds per run.

Usage:
    python scripts/ab_runs.py --a ../parent/src --b src --kernel desk_vlmc --length 3
    python scripts/ab_runs.py --a ../parent/src --b src --kernel order6 --length 1 \
        --algorithm pw_extended --blocks 40 --block-seeds 100
    python scripts/ab_runs.py --a ../parent/src --b src --kernel order6 --length 1 \
        --cold 10 --blocks 30
"""

import argparse
import importlib
import importlib.util
import statistics
import sys
from functools import partial
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
WARMUP_BASE = 2**40
COLD_BASE = 2**62  # perfbench's reference seeds


def load_side(name: str, src: Path):
    """The ``ciaftp`` package under ``src``, imported as ``name``; returns
    its engine, errors and kernels modules."""
    init = src / "ciaftp" / "__init__.py"
    if not init.is_file():
        sys.exit(f"ab_runs: no ciaftp package under {src}")
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return tuple(importlib.import_module(f"{name}.{module}")
                 for module in ("engine", "errors", "kernels"))


class Side:
    """One checkout: its own kernel, run by one sampler at one window length."""

    def __init__(self, name: str, src: Path, kernel_path: Path, length: int, algorithm: str):
        self.src = src
        self.engine, errors, kernels = load_side(name, src)
        self.budget_error = errors.BudgetError
        self.load_kernel = partial(kernels.load_kernel, str(kernel_path))
        self.kernel = self.load_kernel()
        self.length = length
        self.sampler = {"ciaftp": self.engine.run,
                        "pw_extended": self.engine.pw_extended}[algorithm]

    def block(self, seeds: range, cold: bool = False):
        """(wall ns of the block's runs, the outcome of each seed); a cold
        block runs them on a kernel it loads inside the timed span, and
        seeds each run's stream there too, just before the run."""
        run, length, budget_error = self.sampler, self.length, self.budget_error
        streams = map(self.engine.RngStream, seeds)
        if not cold:
            streams = list(streams)
        outcomes = []
        t0 = perf_counter_ns()
        kernel = self.load_kernel() if cold else self.kernel
        for rng in streams:
            try:
                result = run(kernel, length, rng)
                d = result.diagnostics
                outcomes.append((result.sample, d.tau, d.node_touches))
            except budget_error as exc:
                outcomes.append((exc.code, None, exc.diagnostics.node_touches))
        return perf_counter_ns() - t0, outcomes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--a", type=Path, required=True, help="src directory of side a")
    ap.add_argument("--b", type=Path, required=True, help="src directory of side b")
    ap.add_argument("--kernel", required=True,
                    help="a kernel spec: a name under kernels/ (desk_vlmc) or a path")
    ap.add_argument("--length", type=int, required=True, help="window length L")
    ap.add_argument("--blocks", type=int, default=100, help="timed blocks per side")
    ap.add_argument("--block-seeds", type=int, default=250, help="seeds per block")
    ap.add_argument("--algorithm", choices=("ciaftp", "pw_extended"), default="ciaftp",
                    help="the sampler to time: run (ciaftp) or pw_extended")
    ap.add_argument("--cold", type=int, metavar="N",
                    help="time a fresh kernel, and the streams and runs of the seeds"
                         " 2**62 + 0..N-1 on it, in each block"
                         " (--block-seeds is then unused)")
    args = ap.parse_args()
    if args.cold is not None and args.cold < 1:
        ap.error("--cold must be at least 1")
    kernel_path = Path(args.kernel)
    if not kernel_path.is_file():
        kernel_path = ROOT / "kernels" / f"{args.kernel}.json"
    a = Side("ciaftp_a", args.a.resolve(), kernel_path, args.length, args.algorithm)
    b = Side("ciaftp_b", args.b.resolve(), kernel_path, args.length, args.algorithm)
    cold = args.cold is not None
    size = args.cold if cold else args.block_seeds
    if not cold:
        warmup = range(WARMUP_BASE, WARMUP_BASE + size)
        if a.block(warmup)[1] != b.block(warmup)[1]:
            sys.exit("ab_runs: the two sides differ on the warm-up seeds")
    ratios, a_us, b_us = [], [], []
    for i in range(args.blocks):
        seeds = range(COLD_BASE, COLD_BASE + size) if cold else range(i * size, (i + 1) * size)
        first, second = (a, b) if i % 2 == 0 else (b, a)
        timed = {first: first.block(seeds, cold), second: second.block(seeds, cold)}
        (a_ns, a_out), (b_ns, b_out) = timed[a], timed[b]
        for seed, x, y in zip(seeds, a_out, b_out):
            if x != y:
                sys.exit(f"ab_runs: seed {seed} gives {x} on a and {y} on b")
        ratios.append(a_ns / b_ns)
        a_us.append(a_ns / size / 1e3)
        b_us.append(b_ns / size / 1e3)
    q1, median, q3 = (statistics.quantiles(ratios, n=4) if len(ratios) > 1
                      else ratios * 3)
    sampler = "" if args.algorithm == "ciaftp" else f" {args.algorithm}"
    if cold:
        print(f"kernel {kernel_path.stem} L={args.length}{sampler}: {args.blocks} cold blocks"
              f" of a fresh kernel and seeds 2**62 + 0..{size - 1},"
              f" (sample, tau, node_touches) identical in every block")
    else:
        print(f"kernel {kernel_path.stem} L={args.length}{sampler}: {args.blocks} blocks of"
              f" {size} seeds, (sample, tau, node_touches) identical on all"
              f" {args.blocks * size} seeds")
    print(f"a: {a.src}")
    print(f"b: {b.src}")
    print(f"block ratio a/b (above 1: b faster): median {median:.3f},"
          f" quartiles {q1:.3f}-{q3:.3f}")
    print(f"blocks won: a {sum(r < 1 for r in ratios)}, b {sum(r > 1 for r in ratios)},"
          f" ties {sum(r == 1 for r in ratios)}")
    print(f"us per run (median block): a {statistics.median(a_us):.2f},"
          f" b {statistics.median(b_us):.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
