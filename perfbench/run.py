#!/usr/bin/env python3
"""Benchmark of the ciaftp exact sampler: end-to-end metrics and a layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload order6_L1 --seed 1 --seconds 35 --trace 0

A workload is one kernel at one window length, driven through the library
(``load_kernel``, ``engine.run``, ``engine.pw_extended``, ``RngStream``) by one
caller in a closed loop: each run starts when the previous one has returned.
Run ``i`` of a pass draws from ``RngStream(seed * 2**24 + i)``, so two seeds
give disjoint blocks of inputs.  Every pass of one invocation replays the same
block, and passes repeat while the next one still fits in ``--seconds``;
metrics are medians over passes, with their quartiles printed beside them.
All runs use the default budgets (max_depth=10^4, max_iter=10^6,
max_nodes=10^7).

Set-up (``setup_s``, median of SETUP_REPS repetitions, each with a freshly
loaded kernel and so a cold row cache) is ``load_kernel`` plus warm-up runs
on the reference seeds ``REFERENCE_BASE + i``, which no measured run uses.
Their outcomes must match the ones pinned from the seed code in
``reference.json`` (written by ``pin.py``).

Times are scaled to a reference machine speed: calls are interleaved with
slices of a fixed pure-Python loop, and each pass's times are multiplied by
(reference slice time / measured slice time); see CALIB_REF_NS.  On a 2-vCPU
VM whose speed drifts by up to 1.7x over minutes this cut the spread between
runs from about 25% to about 5%.  The raw wall-clock figures are printed
beside them as ``raw.*``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a prefix of
the block three ways - plain, through the wrappers of :mod:`layertrace`, and
with ``trace=True`` records - and prints the per-layer metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run that ends in a budget error
(``MaxDepthExceeded``, ``IterationLimitExceeded``, ``NodeBudgetExceeded``)
is an outcome the engine documents for these budgets, not a failed
operation: it is pinned by the digests, counted in ``failed_frac`` and
``engine.failed.*``, and its time is in the ``samples_per_s`` denominator.
``failed`` counts calls that raised any other library error.  Everything
printed is also written to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

sys.path.insert(0, str(SRC))
try:
    import numpy as np

    import ciaftp
    from ciaftp import engine, oracle
    from ciaftp.errors import (
        CiaftpError,
        IterationLimitExceeded,
        MaxDepthExceeded,
        NodeBudgetExceeded,
    )
    from ciaftp.kernels import Kernel, load_kernel
    from ciaftp.update_rule import DEFAULT_MAX_DEPTH

    import layertrace
except ImportError as exc:
    sys.exit(f"perfbench: cannot import the library from {SRC}: {exc}")

SEED_STRIDE = 2**24
MAX_SEED = 2**36
REFERENCE_BASE = 2**62
SETUP_REPS = 5
# Machine-speed calibration (see the module docstring): one slice of the
# loop per CALIB_EVERY_NS of timed calls; times are scaled to a machine on
# which a slice takes CALIB_REF_NS.
CALIB_EVERY_NS = 20_000_000
CALIB_ITERATIONS = 2000
CALIB_REF_NS = 1_000_000
BUDGET_CODES = (MaxDepthExceeded.code, IterationLimitExceeded.code, NodeBudgetExceeded.code)
# standard percentiles, highest first; the tail metric takes the first one
# with at least TAIL_BEYOND runs above it
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Workload:
    kernel: str  # spec file under kernels/
    length: int
    pass_runs: int  # seeds per measured pass
    trace_runs: int  # seeds per traced pass: a prefix of the measured block
    warmup_runs: int  # reference seeds run in each set-up
    pw_runs: int  # seeds of the block also run through pw_extended, once
    why: str


WORKLOADS: Dict[str, Workload] = {
    "desk_vlmc_L3": Workload(
        "desk_vlmc.json", 3, 8000, 1500, 600, 8000,
        "about 5.5 steps on small tries: per-run fixed cost (init_state, the first "
        "from_leaves, loop overhead) is a large share, so work moved into each run shows"),
    "order6_L1": Workload(
        "order6.json", 1, 1600, 40, 10, 200,
        "64-context state trie, about 25 steps per sample: slice, compose and reduce "
        "dominate, and pw_extended is a meaningful baseline"),
    "renewal_L1": Workload(
        "renewal_sqrt.json", 1, 9000, 9000, 10_000, 0,
        "run-length comb path that never builds a trie: bypasses slice and trie "
        "changes, and about 3.4% of runs hit max_depth"),
    # Not in BENCHMARK.json: a few deep-slice runs take seconds to tens of
    # seconds (one block of 60 runs took 60 s and peaked at 907 MB), so its
    # figures change by integer factors from one seed block to the next; run
    # it by name to look at the generic loop on renewal kernels.
    "renewal_L2": Workload(
        "renewal_sqrt.json", 2, 60, 20, 4, 0,
        "generic loop with slice depth tail 1/sqrt(k): deep, narrow comb-shaped tries "
        "and budget failures"),
}


# -- one sampler call -------------------------------------------------------


@dataclass(frozen=True)
class Outcome:
    seed: int
    sample: Optional[tuple]
    tau: Optional[int]
    code: str  # "ok" or the error code
    steps: int

    def line(self) -> str:
        """Byte-stable record of the call (Python's hash() is not)."""
        sample = "-" if self.sample is None else ",".join(self.sample)
        tau = "-" if self.tau is None else str(self.tau)
        return f"{self.seed} {sample} {tau} {self.code}\n"


def calibration_ns() -> int:
    """Time one slice of the calibration loop: tuple and dict work, like the
    library's, but independent of it."""
    t0 = perf_counter_ns()
    table: Dict[tuple, int] = {}
    key: tuple = ()
    for i in range(CALIB_ITERATIONS):
        key = (i & 7,) + key[:5]
        table[key] = table.get(key, 0) + 1
    return perf_counter_ns() - t0


def call(fn: Callable, kernel: Kernel, length: int, seed: int):
    """One sampler call, timed from outside; returns (outcome, wall ns,
    diagnostics or None)."""
    rng = engine.RngStream(seed)
    t0 = perf_counter_ns()
    try:
        result = fn(kernel, length, rng)
    except CiaftpError as exc:
        wall = perf_counter_ns() - t0
        d = getattr(exc, "diagnostics", None)
        return Outcome(seed, None, None, exc.code, d.iterations if d else 0), wall, d
    wall = perf_counter_ns() - t0
    d = result.diagnostics
    return Outcome(seed, result.sample, d.tau, "ok", d.iterations), wall, d


class Tally:
    """What one algorithm did over one pass of seeds."""

    def __init__(self, keep: bool = False) -> None:
        self.wall_ns = array("q")
        self.outcomes: Optional[List[Outcome]] = [] if keep else None
        self._hash = hashlib.sha256()
        self.codes: Counter = Counter()
        self.samples: Counter = Counter()
        self.steps = 0
        self.calib_ns = array("q")

    def add(self, outcome: Outcome, wall_ns: int) -> None:
        self.wall_ns.append(wall_ns)
        self._hash.update(outcome.line().encode())
        if self.outcomes is not None:
            self.outcomes.append(outcome)
        self.codes[outcome.code] += 1
        self.steps += outcome.steps
        if outcome.sample is not None:
            self.samples[outcome.sample] += 1

    @property
    def runs(self) -> int:
        return len(self.wall_ns)

    @property
    def completed(self) -> int:
        return self.codes["ok"]

    @property
    def budget_failed(self) -> int:
        return sum(self.codes[c] for c in BUDGET_CODES)

    @property
    def unexpected(self) -> int:
        return self.runs - self.completed - self.budget_failed

    def speed(self) -> float:
        """Machine speed during the pass relative to the reference (1.0 when
        the pass was not calibrated)."""
        if not self.calib_ns:
            return 1.0
        return CALIB_REF_NS * len(self.calib_ns) / sum(self.calib_ns)

    def digest(self) -> str:
        """sha256 over the outcome lines of the pass, in seed order."""
        return self._hash.hexdigest()

    def prefix(self, n: int) -> "Tally":
        """The first ``n`` calls, from a tally made with ``keep=True``."""
        head = Tally(keep=True)
        for outcome, wall in zip(self.outcomes[:n], self.wall_ns[:n]):
            head.add(outcome, wall)
        head.calib_ns = self.calib_ns
        return head


def run_pass(kernel: Kernel, length: int, seeds: range, fn: Callable,
             keep: bool = False, calibrate: bool = False) -> Tally:
    tally = Tally(keep)
    due = 0
    for seed in seeds:
        if calibrate and due <= 0:
            tally.calib_ns.append(calibration_ns())
            due = CALIB_EVERY_NS
        outcome, wall, _ = call(fn, kernel, length, seed)
        tally.add(outcome, wall)
        due -= wall
    return tally


def load_workload_kernel(wl: Workload) -> Kernel:
    return load_kernel(str(ROOT / "kernels" / wl.kernel))


def reference_seeds(wl: Workload) -> range:
    return range(REFERENCE_BASE, REFERENCE_BASE + wl.warmup_runs)


def has_pw(kernel: Kernel) -> bool:
    return kernel.order is not None


def same_outcomes(a: Tally, b: Tally) -> bool:
    return a.digest() == b.digest()


# -- correctness ------------------------------------------------------------


def renewal_window_law(length: int, r_max: int = 60) -> Dict[tuple, float]:
    """Exact stationary law of ``length`` consecutive symbols of the
    square-root renewal chain, computed without the library.

    The age r (number of trailing ones) is a Markov chain: 0 -> 1 surely;
    r >= 1 -> 0 with probability 1 - 1/sqrt(r+1), else r+1.  Its stationary
    weights are 1 at r=0 and 1/sqrt(r!) for r >= 1; ages above r_max hold
    less than 1e-40 of the mass and are lumped into r_max.
    """
    weights = [1.0]
    w = 1.0
    for r in range(1, r_max + 1):
        weights.append(w)
        w /= math.sqrt(r + 1)
    total = math.fsum(weights)
    dist: Dict[Tuple[int, tuple], float] = {
        (r, ("0",) if r == 0 else ("1",)): weights[r] / total for r in range(r_max + 1)
    }
    for _ in range(length - 1):
        nxt: Dict[Tuple[int, tuple], float] = defaultdict(float)
        for (r, window), p in dist.items():
            if r == 0:
                nxt[(1, window + ("1",))] += p
            else:
                p0 = 1.0 - 1.0 / math.sqrt(r + 1)
                nxt[(0, window + ("0",))] += p * p0
                nxt[(min(r + 1, r_max), window + ("1",))] += p * (1.0 - p0)
        dist = nxt
    law = {window: 0.0 for window in itertools.product("01", repeat=length)}
    for (_, window), p in dist.items():
        law[window] += p
    return law


def exact_law(kernel: Kernel, length: int) -> Dict[tuple, float]:
    if kernel.order is None:
        return renewal_window_law(length)
    chain = oracle.build_extended(kernel, order=max(kernel.order, 1, length))
    return oracle.window_law(chain, oracle.stationary(chain), length).probs


def law_check(kernel: Kernel, length: int, samples: Counter) -> Tuple[dict, List[str]]:
    """TV distance of the empirical window law from the exact one, against
    the tolerance the library's own validation uses."""
    law = exact_law(kernel, length)
    n = sum(samples.values())
    unknown = [w for w in samples if w not in law]
    if n == 0 or unknown:
        return {}, [f"window law: {n} samples, windows outside the law: {unknown[:3]}"]
    empirical = {w: samples.get(w, 0) / n for w in law}
    tv = oracle.tv_distance(empirical, law)
    tol = oracle.validation_tolerance(len(law), n)
    info = {"samples": n, "tv": tv, "tolerance": tol}
    problems = [] if tv <= tol else [f"window law: TV {tv:.4g} above tolerance {tol:.4g} (n={n})"]
    return info, problems


def reference_check(name: str, tally: Tally, reference: dict) -> Tuple[dict, List[str]]:
    """Compare the warm-up outcomes with the pinned digest.  A pinned budget
    failure that now completes is accepted - a later engine may avoid it, and
    the law check on the measured runs covers such samples - so its pinned
    line stands in for it before hashing; any other difference fails."""
    pinned = reference.get(name)
    if pinned is None:
        return {}, [f"reference.json has no outcomes for {name}"]
    failures = pinned["budget_failures"]
    lines = []
    recovered = 0
    for outcome in tally.outcomes:
        line = outcome.line()
        if outcome.code == "ok" and str(outcome.seed) in failures:
            line = failures[str(outcome.seed)]
            recovered += 1
        lines.append(line)
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    info = {
        "digest": tally.digest(),
        "matches_pinned": digest == pinned["digest"],
        "pinned_failures_now_completing": recovered,
    }
    problems = [] if info["matches_pinned"] else [
        f"reference: warm-up outcomes differ from the pinned ones (digest {digest})"]
    return info, problems


# -- set-up -----------------------------------------------------------------


def set_up(name: str, wl: Workload, reference: dict):
    """Load the kernel and warm its row cache on the reference seeds; returns
    (kernel, raw seconds, reference info with the machine speed, problems)."""
    seeds = reference_seeds(wl)
    t0 = perf_counter_ns()
    kernel = load_workload_kernel(wl)
    runs = run_pass(kernel, wl.length, seeds, engine.run, keep=True, calibrate=True)
    pws = run_pass(kernel, wl.length, seeds, engine.pw_extended) if has_pw(kernel) else None
    # the calibration slices ran inside the interval: take them out again
    seconds = (perf_counter_ns() - t0 - sum(runs.calib_ns)) / 1e9
    info, problems = reference_check(name, runs, reference)
    info["speed"] = runs.speed()
    if pws is not None and not same_outcomes(runs, pws):
        problems.append("warm-up: pw_extended and run disagree")
    return kernel, seconds, info, problems


# -- end-to-end metrics -----------------------------------------------------


def tail_percentile(n: int) -> Optional[float]:
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= TAIL_BEYOND:
            return pct
    return None


def timing_metrics(t: Tally, prefix: str = "") -> Dict[str, float]:
    """Throughput and latency of one pass, scaled to the reference speed,
    and the same raw under ``raw.``."""
    out = {prefix + "failed_frac": t.budget_failed / t.runs, prefix + "machine_speed": t.speed()}
    raw_us = np.frombuffer(t.wall_ns, dtype=np.int64) / 1e3
    pct = tail_percentile(len(raw_us))
    for tag, us in (("", raw_us * t.speed()), ("raw.", raw_us)):
        out[tag + prefix + "samples_per_s"] = t.completed / (us.sum() / 1e6)
        out[tag + prefix + "sample_us_p50"] = float(np.percentile(us, 50.0))
        if pct is not None:
            out[tag + prefix + "sample_us_tail"] = float(np.percentile(us, pct))
    return out


def spread(values: List[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "passes": len(values),
            "values": values}


E2E_UNITS = {
    "samples_per_s": "1/s",
    "sample_us_p50": "us",
    "sample_us_tail": "us",
    "failed_frac": "ratio",
    "pw_samples_per_s": "1/s",
    "pw_sample_us_p50": "us",
    "pw_sample_us_tail": "us",
    "run_samples_per_s_on_pw_seeds": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "machine_speed": "ratio",
    "raw.samples_per_s": "1/s",
    "raw.sample_us_p50": "us",
    "raw.sample_us_tail": "us",
    "raw.setup_s": "s",
}
# what BENCHMARK.json holds: defined, and never 0, on every workload
E2E_REPORTED = ("samples_per_s", "sample_us_p50", "sample_us_tail", "setup_s", "peak_rss_mb")


def measure(name: str, wl: Workload, seed: int, seconds: float, reference: dict) -> dict:
    base = seed * SEED_STRIDE
    seeds = range(base, base + wl.pass_runs)
    per_pass: Dict[str, List[float]] = defaultdict(list)
    problems: List[str] = []
    digests = set()
    attempted = unexpected = 0
    first: Optional[Tally] = None
    pass_s: List[float] = []

    ref_info: dict = {}

    def fresh_kernel() -> Kernel:
        kernel, took, info, found = set_up(name, wl, reference)
        per_pass["raw.setup_s"].append(took)
        per_pass["setup_s"].append(took * info["speed"])
        ref_info.update(info)
        problems.extend(found)
        return kernel

    # Set-up repetitions are spread between passes, so that a slow spell of
    # the machine does not fall on all of them; each pass uses the kernel
    # set up just before it.
    start = perf_counter()
    kernel = fresh_kernel()
    while True:
        t0 = perf_counter()
        runs = run_pass(kernel, wl.length, seeds, engine.run, keep=first is None, calibrate=True)
        pass_s.append(perf_counter() - t0)
        for key, value in timing_metrics(runs).items():
            per_pass[key].append(value)
        digests.add(runs.digest())
        attempted += runs.runs
        unexpected += runs.unexpected
        if first is None:
            first = runs
            if wl.pw_runs:
                # once, on a prefix of the block: the baseline is slower than run
                pws = run_pass(kernel, wl.length, seeds[:wl.pw_runs], engine.pw_extended,
                               calibrate=True)
                same = runs.prefix(wl.pw_runs)
                for key, value in timing_metrics(pws, "pw_").items():
                    per_pass[key].append(value)
                per_pass["run_samples_per_s_on_pw_seeds"].append(timing_metrics(same)["samples_per_s"])
                attempted += pws.runs
                unexpected += pws.unexpected
                if not same_outcomes(same, pws):
                    problems.append("pw_extended and run disagree on (sample, tau)")
        if len(per_pass["setup_s"]) < SETUP_REPS:
            kernel = fresh_kernel()
        if perf_counter() - start + pass_s[-1] > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(per_pass["setup_s"]) < SETUP_REPS:
        fresh_kernel()

    if len(digests) != 1:
        problems.append("passes over the same seeds gave different outcomes")
    law_info, found = law_check(kernel, wl.length, first.samples)
    problems += found
    if unexpected:
        problems.append(f"{unexpected} calls raised an error other than a budget error")

    stats = {key: spread(values) for key, values in per_pass.items()}
    stats["peak_rss_mb"] = spread([peak_rss_mb])
    return {
        "stats": stats,
        "tail_percentile": tail_percentile(wl.pass_runs),
        "runs_per_pass": wl.pass_runs,
        "pass_seconds": pass_s,
        "outcomes": dict(sorted(first.codes.items())),
        "digest": first.digest(),
        "reference": ref_info,
        "law": law_info,
        "problems": sorted(set(problems)),
        "attempted": attempted,
        "failed": unexpected,
    }


# -- per-layer metrics ------------------------------------------------------

# name -> unit; counts (the *_frac, *calls_per_step, depth, leaves and
# failure metrics) must repeat exactly from pass to pass
LAYER_UNITS = {
    "update_rule.build_slice.self_ns_per_step": "ns/step",
    "update_rule.build_slice.calls_per_step": "calls/step",
    "update_rule.slice_depth_mean": "depth",
    "update_rule.slice_depth_max": "depth",
    "update_rule.slice_leaves_per_step": "leaves/step",
    "update_rule.regeneration_frac": "ratio",
    "tries.from_leaves.slice.ns_per_step": "ns/step",
    "tries.from_leaves.compose.ns_per_step": "ns/step",
    "tries.from_leaves.init.ns_per_sample": "ns/sample",
    "tries.from_leaves.compose.leaves_per_step": "leaves/step",
    "tries.prune_minimal.slice.ns_per_step": "ns/step",
    "tries.prune_minimal.reduce.ns_per_step": "ns/step",
    "tries.prune_minimal.reduce.kept_frac": "ratio",
    "tries.find_suffix.calls_per_step": "calls/step",
    "tries.find_suffix.ns_per_step": "ns/step",
    "engine.run.self_us_per_sample": "us/sample",
    "engine.init_state.us_per_sample": "us/sample",
    "engine.step.self_ns_per_step": "ns/step",
    "engine.steps_per_sample": "steps/sample",
    "engine.state_leaves_per_step": "leaves/step",
    "engine.state_depth_max": "depth",
    "engine.node_touches_per_step": "nodes/step",
    "engine.failed.MaxDepthExceeded": "count",
    "engine.failed.IterationLimitExceeded": "count",
    "engine.failed.NodeBudgetExceeded": "count",
    "kernels.lower_bounds.calls_per_step": "calls/step",
    "kernels.lower_bounds.ns_per_step": "ns/step",
    "kernels.lower_bounds.first_seen_frac": "ratio",
    "kernels.slice_depth.calls_per_step": "calls/step",
    "kernels.slice_depth.ns_per_call": "ns/call",
    "trace.overhead_frac": "ratio",
}
# printed and saved, not in BENCHMARK.json
EXTRA_LAYER_UNITS = {"trace.machine_speed": "ratio"}
# finite-order workloads only, so not in BENCHMARK.json
PW_LAYER_UNITS = {
    "engine.pw_extended.self_ns_per_step": "ns/step",
    "update_rule.phi.calls_per_step": "calls/step",
    "update_rule.phi.self_ns_per_call": "ns/call",
}
TIMED_SUFFIXES = ("ns_per_step", "ns_per_sample", "us_per_sample", "ns_per_call")
# which end-to-end metric, on which workload, each layer metric should move;
# the longest matching prefix applies
LAYER_MOVES = {
    "update_rule.": "samples_per_s on order6_L1 and renewal_L2; nothing on renewal_L1",
    "update_rule.phi.": "pw_samples_per_s on order6_L1",
    "tries.": "samples_per_s and sample_us_p50 on order6_L1; sample_us_tail and peak_rss_mb "
              "on renewal_L2; nothing on renewal_L1",
    "engine.": "sample_us_p50 on desk_vlmc_L3; samples_per_s on renewal_L1",
    "engine.pw_extended.": "pw_samples_per_s on order6_L1",
    "engine.steps_per_sample": "nothing: a count that must repeat exactly and never change",
    "engine.state_": "nothing: a state-size count that must repeat exactly",
    "engine.node_touches_per_step": "nothing: a work count that must repeat exactly",
    "engine.failed.": "failed_frac on renewal_L1 and renewal_L2",
    "kernels.lower_bounds.": "samples_per_s on order6_L1; setup_s everywhere",
    "kernels.slice_depth.": "samples_per_s on renewal_L1",
    "trace.": "nothing: the cost of tracing",
    "trace.machine_speed": "nothing: the machine's speed during the traced passes",
}


def moves(metric: str) -> str:
    return LAYER_MOVES[max((p for p in LAYER_MOVES if metric.startswith(p)), key=len)]


def _per(x: float, d: float) -> float:
    return float(x) / d if d else 0.0


def span_metrics(spans: Dict[str, np.ndarray], steps: int, samples: int, pw_steps: int) -> dict:
    ids = layertrace.NAME_ID
    name, cat = spans["name"], spans["cat"]
    self_ns, dur = spans["self_ns"], spans["end"] - spans["start"]
    a, b = spans["a"], spans["b"]
    not_pw = cat != layertrace.PW

    def pick(span: str, category: Optional[int] = None) -> np.ndarray:
        m = (name == ids[span]) & not_pw
        return m if category is None else m & (cat == category)

    out: Dict[str, float] = {}
    bs = pick("update_rule.build_slice")
    ok = bs & (a >= 0)
    out["update_rule.build_slice.self_ns_per_step"] = _per(self_ns[bs].sum(), steps)
    out["update_rule.build_slice.calls_per_step"] = _per(bs.sum(), steps)
    # the slice each step used: built by build_slice, or only measured by
    # slice_depth on the comb path (depths past max_depth end the run unused)
    comb = pick("kernels.slice_depth", layertrace.RUN) & (a <= DEFAULT_MAX_DEPTH)
    depths = np.concatenate([a[ok], a[comb]])
    out["update_rule.slice_depth_mean"] = float(depths.mean()) if len(depths) else 0.0
    out["update_rule.slice_depth_max"] = float(depths.max()) if len(depths) else 0.0
    out["update_rule.slice_leaves_per_step"] = _per(b[ok].sum(), steps)
    out["update_rule.regeneration_frac"] = _per((b[ok] == 1).sum(), ok.sum())

    fl = "tries.from_leaves"
    out["tries.from_leaves.slice.ns_per_step"] = _per(self_ns[pick(fl, layertrace.SLICE)].sum(), steps)
    out["tries.from_leaves.compose.ns_per_step"] = _per(self_ns[pick(fl, layertrace.COMPOSE)].sum(), steps)
    out["tries.from_leaves.init.ns_per_sample"] = _per(self_ns[pick(fl, layertrace.INIT)].sum(), samples)
    out["tries.from_leaves.compose.leaves_per_step"] = _per(a[pick(fl, layertrace.COMPOSE)].sum(), steps)
    pm = "tries.prune_minimal"
    reduce = pick(pm, layertrace.COMPOSE)
    out["tries.prune_minimal.slice.ns_per_step"] = _per(self_ns[pick(pm, layertrace.SLICE)].sum(), steps)
    out["tries.prune_minimal.reduce.ns_per_step"] = _per(self_ns[reduce].sum(), steps)
    out["tries.prune_minimal.reduce.kept_frac"] = _per(b[reduce & (a >= 0)].sum(), a[reduce & (a >= 0)].sum())
    fs = pick("tries.find_suffix")
    out["tries.find_suffix.calls_per_step"] = _per(fs.sum(), steps)
    out["tries.find_suffix.ns_per_step"] = _per(self_ns[fs].sum(), steps)

    out["engine.run.self_us_per_sample"] = _per(self_ns[pick("engine.run")].sum() / 1e3, samples)
    out["engine.init_state.us_per_sample"] = _per(dur[pick("engine.init_state")].sum() / 1e3, samples)
    out["engine.step.self_ns_per_step"] = _per(self_ns[pick("engine.step")].sum(), steps)

    lb = pick("kernels.lower_bounds")
    out["kernels.lower_bounds.calls_per_step"] = _per(lb.sum(), steps)
    out["kernels.lower_bounds.ns_per_step"] = _per(dur[lb].sum(), steps)
    out["kernels.lower_bounds.first_seen_frac"] = _per(a[lb].sum(), lb.sum())
    sd = pick("kernels.slice_depth")
    out["kernels.slice_depth.calls_per_step"] = _per(sd.sum(), steps)
    out["kernels.slice_depth.ns_per_call"] = _per(self_ns[sd].sum(), sd.sum())

    if pw_steps:
        pw_top = name == ids["engine.pw_extended"]
        phi = (name == ids["update_rule.phi"]) & ~not_pw
        out["engine.pw_extended.self_ns_per_step"] = _per(self_ns[pw_top].sum(), pw_steps)
        out["update_rule.phi.calls_per_step"] = _per(phi.sum(), pw_steps)
        out["update_rule.phi.self_ns_per_call"] = _per(self_ns[phi].sum(), phi.sum())
    return out


def records_pass(kernel: Kernel, length: int, seeds: range) -> Tuple[Tally, dict]:
    """Runs with trace=True: state sizes per step, from the engine's own
    records."""
    tally = Tally()
    leaves = touches = depth_max = 0
    taus: List[int] = []
    for seed in seeds:
        outcome, wall, d = call(
            lambda k, n, rng: engine.run(k, n, rng, trace=True), kernel, length, seed)
        tally.add(outcome, wall)
        if outcome.tau is not None:
            taus.append(-outcome.tau)
        for rec in (d.records if d is not None and d.records else ()):
            leaves += rec.leaf_count
            touches += rec.node_touches
            depth_max = max(depth_max, rec.depth)
    out = {
        "engine.steps_per_sample": _per(sum(taus), len(taus)),
        "engine.state_leaves_per_step": _per(leaves, tally.steps),
        "engine.state_depth_max": float(depth_max),
        "engine.node_touches_per_step": _per(touches, tally.steps),
    }
    for code in BUDGET_CODES:
        out[f"engine.failed.{code}"] = float(tally.codes[code])
    return tally, out


def trace_group(kernel: Kernel, wl: Workload, seeds: range):
    """One plain, one wrapped and one records pass over ``seeds``.  Times are
    scaled to the reference machine speed, like the end-to-end ones."""
    pw = has_pw(kernel)
    plain = run_pass(kernel, wl.length, seeds, engine.run, calibrate=True)
    plain_pw = run_pass(kernel, wl.length, seeds, engine.pw_extended, calibrate=True) if pw else None

    tracer = layertrace.Tracer()
    top_run = tracer.wrap("engine.run", engine.run, layertrace.RUN)
    top_pw = tracer.wrap("engine.pw_extended", engine.pw_extended, layertrace.PW)

    def traced(top: Callable) -> Callable:
        def fn(k, n, rng):
            tracer.seed = rng.seed
            return top(k, n, rng)
        return fn

    # calibration slices run between calls, outside every span
    with tracer.installed(kernel):
        wrapped = run_pass(kernel, wl.length, seeds, traced(top_run), calibrate=True)
        tracer.lower_bounds_seen.clear()
        wrapped_pw = run_pass(kernel, wl.length, seeds, traced(top_pw), calibrate=True) if pw else None
    recorded, metrics = records_pass(kernel, wl.length, seeds)

    spans = span_metrics(tracer.arrays(), wrapped.steps, wrapped.completed,
                         wrapped_pw.steps if pw else 0)
    for m, value in spans.items():
        speed = (wrapped_pw if m in PW_LAYER_UNITS else wrapped).speed()
        metrics[m] = value * speed if not is_count(m) else value

    def scaled_ns(*tallies: Optional[Tally]) -> float:
        return sum(sum(t.wall_ns) * t.speed() for t in tallies if t is not None)

    metrics["trace.overhead_frac"] = scaled_ns(wrapped, wrapped_pw) / scaled_ns(plain, plain_pw) - 1.0
    metrics["trace.machine_speed"] = wrapped.speed()

    problems = []
    if not (same_outcomes(plain, wrapped) and same_outcomes(plain, recorded)):
        problems.append("traced or recorded runs differ from the plain runs")
    if pw and not (same_outcomes(plain, plain_pw) and same_outcomes(plain, wrapped_pw)):
        problems.append("pw_extended and run disagree on (sample, tau)")
    tallies = [plain, wrapped, recorded] + ([plain_pw, wrapped_pw] if pw else [])
    return metrics, plain, tracer, tallies, problems


def is_count(metric: str) -> bool:
    return not metric.endswith(TIMED_SUFFIXES) and not metric.startswith("trace.")


def measure_layers(name: str, wl: Workload, seed: int, seconds: float, reference: dict) -> dict:
    kernel, _, ref_info, problems = set_up(name, wl, reference)
    base = seed * SEED_STRIDE
    seeds = range(base, base + wl.trace_runs)
    groups: List[dict] = []
    attempted = unexpected = 0
    start = perf_counter()
    while True:
        metrics, plain, tracer, tallies, found = trace_group(kernel, wl, seeds)
        problems += found
        groups.append(metrics)
        attempted += sum(t.runs for t in tallies)
        unexpected += sum(t.unexpected for t in tallies)
        if len(groups) == 1:
            first = plain
        elapsed = perf_counter() - start
        if elapsed * (len(groups) + 1) / len(groups) > seconds:
            break
    tracer.write(OUT_DIR / f"{name}-spans.npz")

    counts_repeat = all(
        g[m] == groups[0][m] for g in groups for m in groups[0] if is_count(m))
    if not counts_repeat:
        problems.append("count metrics differ between passes over the same seeds")
    law_info, found = law_check(kernel, wl.length, first.samples)
    problems += found
    if unexpected:
        problems.append(f"{unexpected} calls raised an error other than a budget error")
    stats = {m: spread([g[m] for g in groups]) for m in groups[0]}
    return {
        "stats": stats,
        "runs_per_pass": wl.trace_runs,
        "counts_repeat": counts_repeat if len(groups) > 1 else "unverified (one pass)",
        "outcomes": dict(sorted(first.codes.items())),
        "digest": first.digest(),
        "reference": ref_info,
        "law": law_info,
        "problems": sorted(set(problems)),
        "attempted": attempted,
        "failed": unexpected,
    }


# -- output -----------------------------------------------------------------


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    return {
        "git_rev": git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": f"{platform.system()} {platform.release()} {platform.machine()}",
    }


def fmt(value: float) -> str:
    return f"{value:.6g}"


def report(name: str, wl: Workload, args: argparse.Namespace, result: dict) -> dict:
    stats = result["stats"]
    units = E2E_UNITS if args.trace == 0 else {**LAYER_UNITS, **PW_LAYER_UNITS, **EXTRA_LAYER_UNITS}
    print(f"workload {name}: {wl.kernel} L={wl.length}, seed {args.seed}, "
          f"{result['runs_per_pass']} runs per pass, closed loop, one caller")
    print(f"  times are scaled to the reference machine speed (a {CALIB_ITERATIONS}-iteration "
          f"calibration slice takes {CALIB_REF_NS / 1e6:g} ms)"
          + ("; raw.* are wall clock" if args.trace == 0 else ""))
    print(f"  why: {wl.why}")
    for key, value in provenance().items():
        print(f"  {key}: {value}")
    for metric, unit in units.items():
        if metric not in stats:
            continue
        s = stats[metric]
        print(f"{metric} = {fmt(s['median'])} {unit}   "
              f"(quartiles {fmt(s['q1'])} .. {fmt(s['q3'])} over {s['passes']} passes)"
              + (f"   [should move {moves(metric)}]" if args.trace == 1 else ""))
    if args.trace == 0 and result["tail_percentile"] is not None:
        pct = result["tail_percentile"]
        print(f"  sample_us_tail is p{pct:g}: {wl.pass_runs * (100 - pct) / 100:g} "
              f"of {wl.pass_runs} runs per pass lie beyond it")
    print(f"  outcomes per pass: {result['outcomes']}")
    print(f"  outcome digest (sha256): {result['digest']}")
    print(f"  reference: {result['reference']}")
    print(f"  window law: {result['law']}")
    if args.trace == 1:
        print(f"  count metrics repeat across passes: {result['counts_repeat']}")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")

    wanted = E2E_REPORTED if args.trace == 0 else tuple(LAYER_UNITS)
    missing = [m for m in wanted if m not in stats]
    correct = not result["problems"] and not missing
    metrics = {m: {"value": stats[m]["median"], "unit": units[m]} for m in wanted if m in stats}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    full = {"workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "provenance": provenance(), **result, "correct": correct}
    out = OUT_DIR / f"{name}-trace{args.trace}-seed{args.seed}.json"
    out.write_text(json.dumps(full, indent=1, default=str) + "\n")
    print(f"  full results: {out.relative_to(ROOT)}")
    return {"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < MAX_SEED:
        ap.error(f"--seed must lie in [0, {MAX_SEED})")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if Path(ciaftp.__file__).resolve().parent != (SRC / "ciaftp").resolve():
        sys.exit(f"perfbench: imported ciaftp from {ciaftp.__file__}, not from {SRC}")
    reference = json.loads((BENCH_DIR / "reference.json").read_text())

    wl = WORKLOADS[args.workload]
    measure_fn = measure if args.trace == 0 else measure_layers
    result = measure_fn(args.workload, wl, args.seed, args.seconds, reference)
    line = report(args.workload, wl, args, result)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
