#!/usr/bin/env python3
"""Print everything each run of a fixed case grid reports, one line a run.

The grid is every shipped kernel (``kernels/*.json``) and, after them, the
two specs in :data:`SPECS`, which no shipped kernel covers (a one-symbol
alphabet, whose map is constant before any draw, and a ternary one), at
window lengths 1..3, plain and under
``run(on_iteration=...)`` (the audited reference), at the default budgets
and at ``max_depth=2``, ``max_nodes=40`` and ``max_iter=3``, for seeds
0..N-1.  Infinite-memory kernels also run plain at ``max_depth=10**12``
and ``max_nodes=10**15`` (the ``deep`` case), so their slices go as deep
as the draws take them, for seeds 0..max(N, 64)-1: the first slice past
the default ``max_depth`` (10_000) comes at seed 53, at L=3, 344089 deep.
The audited reference is left out there, because it expands a slice node
by node at O(depth^2) cost; plain runs are cheap.  ``order1`` also
runs at L=13 (the ``wide`` case: 8192 leaves), plain and audited, at the
default budgets for seeds 0..N-1, so the diff covers windows of more than
4096 leaves too.  Finite-order kernels also run the ``pw_extended``
baseline at L=1..3, at the default budgets and at ``max_iter=3``, for
seeds 0..N-1, so the diff reaches ``phi`` and the full table map.  A line
gives the kernel, L, the budget, ``audited=0|1`` or ``pw_extended``, the
seed, the sample or the budget error's code and message, ``tau``,
``iterations``, ``node_touches``, ``max_slice_depth``,
``regeneration_times``, a sha256 of the trace records and
``plain=same|differs``: whether the same call without ``trace=True``
reports the same, records aside.  Running it on two checkouts and diffing
the output shows whether a change kept every outcome, traced and untraced.

A few dozen seeds never make ``engine._compose`` compile a program (it
compiles one at its ``COMPILE_AFTER``-th run), so after those lines every
finite-order kernel's lines are printed again, each prefixed ``compiled``,
from a fresh copy of the kernel whose every slice program was compiled
before its first run (``SliceTable.compile_all``): they must equal the
lines above them.  The table of every length the kernel's lines run is
compiled; lengths that share a table compile it once and again, which
compiles nothing more.

Usage:
    python scripts/run_outcomes.py --seeds 6 > change.txt
    python scripts/run_outcomes.py --seeds 6 --src ../other/src > other.txt
    diff other.txt change.txt
"""

import argparse
import functools
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

BUDGETS = [
    ("default", {}),
    ("max_depth=2", {"max_depth": 2}),
    ("max_nodes=40", {"max_nodes": 40}),
    ("max_iter=3", {"max_iter": 3}),
]
# infinite-memory kernels only, plain only, over at least DEEP_SEEDS seeds:
# enough that some slices go far past the default max_depth
DEEP = ("deep", {"max_depth": 10**12, "max_nodes": 10**15})
DEEP_SEEDS = 64
# order1 only, plain and audited, at the default budgets: 8192 leaves
WIDE_LENGTH = 13
# the pw_extended baseline, finite-order kernels only
PW_BUDGETS = [BUDGETS[0], BUDGETS[3]]
# kernels of alphabet sizes other than 2, run after the shipped ones
SPECS = {
    "one_symbol": {"alphabet": ["a"], "type": "memoryless",
                   "contexts": [{"context": "", "probs": {"a": 1}}]},
    "ternary_vlmc": {"alphabet": ["a", "b", "c"], "type": "context_tree", "contexts": [
        {"context": "a", "probs": {"a": 0.5, "b": 0.3, "c": 0.2}},
        {"context": "b", "probs": {"a": 0.2, "b": 0.2, "c": 0.6}},
        {"context": "ac", "probs": {"a": 0.05, "b": 0.15, "c": 0.8}},
        {"context": "bc", "probs": {"a": 0.6, "b": 0.4, "c": 0}},
        {"context": "acc", "probs": {"a": 0.3, "b": 0.4, "c": 0.3}},
        {"context": "bcc", "probs": {"a": 0, "b": 0.7, "c": 0.3}},
        {"context": "ccc", "probs": {"a": 0.4, "b": 0.05, "c": 0.55}},
    ]},
}


def report(sampler, kernel, length, seed, budget, budget_error, trace):
    """The reported fields of one run, as ``key=value`` strings, and its
    trace records (None untraced)."""
    from ciaftp.engine import RngStream

    try:
        res = sampler(kernel, length, RngStream(seed), trace=trace, **budget)
    except budget_error as exc:
        head, d = f"error={exc.code} message={json.dumps(str(exc))}", exc.diagnostics
    else:
        head, d = f"sample={kernel.alphabet.format_word(res.sample)}", res.diagnostics
    return (f"{head} tau={d.tau} iterations={d.iterations} node_touches={d.node_touches}"
            f" max_slice_depth={d.max_slice_depth}"
            f" regeneration_times={','.join(map(str, d.regeneration_times))}"), d.records


def outcome(sampler, kernel, length, seed, budget, budget_error):
    """The traced run's fields and records digest, and whether the untraced
    run reports the same fields."""
    fields, records = report(sampler, kernel, length, seed, budget, budget_error, True)
    plain, _ = report(sampler, kernel, length, seed, budget, budget_error, False)
    digest = hashlib.sha256(repr([vars(r) for r in records]).encode()).hexdigest()
    return f"{fields} records={digest} plain={'same' if plain == fields else 'differs'}"


def lengths(name):
    """The window lengths of a kernel's lines."""
    return (1, 2, 3) + ((WIDE_LENGTH,) if name == "order1" else ())


def compile_tables(slice_table, kernel, lengths):
    """Compile every slice program of ``kernel`` at each of ``lengths``."""
    for length in lengths:
        slice_table(kernel, length).compile_all()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, default=6, help="seeds 0..N-1 per case")
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="directory the ciaftp package is imported from")
    args = ap.parse_args()
    sys.path.insert(0, str(args.src))
    from ciaftp.engine import pw_extended, run, slice_table
    from ciaftp.errors import BudgetError
    from ciaftp.kernels import load_kernel, parse_kernel_spec

    plain = [("audited=0", run)]
    both = plain + [("audited=1", functools.partial(run, on_iteration=lambda a: None))]
    makers = [(path.stem, functools.partial(load_kernel, str(path)))
              for path in sorted((ROOT / "kernels").glob("*.json"))]
    makers += [(name, functools.partial(parse_kernel_spec, json.dumps(spec)))
               for name, spec in SPECS.items()]
    kernels = [("", name, make()) for name, make in makers]
    for name, make in makers:
        kernel = make()
        if kernel.order is None:
            continue
        compile_tables(slice_table, kernel, lengths(name))
        kernels.append(("compiled ", name, kernel))
    for prefix, name, kernel in kernels:
        cases = [(case, budget, both, args.seeds) for case, budget in BUDGETS]
        if kernel.order is None:
            cases.append((*DEEP, plain, max(args.seeds, DEEP_SEEDS)))
        else:
            cases += [(case, budget, [("pw_extended", pw_extended)], args.seeds)
                      for case, budget in PW_BUDGETS]
        wide = [("wide", {}, both, args.seeds)]
        grid = [(length, wide if length == WIDE_LENGTH else cases) for length in lengths(name)]
        for length, length_cases in grid:
            for case, budget, samplers, seeds in length_cases:
                for tag, sampler in samplers:
                    for seed in range(seeds):
                        line = outcome(sampler, kernel, length, seed, budget, BudgetError)
                        print(f"{prefix}{name} L={length} {case} {tag} seed={seed} {line}",
                              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
