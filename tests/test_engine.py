import concurrent.futures
import dataclasses
import functools
import gc
import itertools
import json
import math
import os
import pickle
import runpy
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from ciaftp import engine, tries, update_rule
from ciaftp.engine import (
    RngStream,
    RunRow,
    StepAudit,
    init_state,
    pw_extended,
    run,
    run_many,
    slice_table,
    step,
)
from ciaftp.errors import (
    BudgetError,
    EnumerationGuardExceeded,
    InvariantViolation,
    IterationLimitExceeded,
    MaxDepthExceeded,
    NodeBudgetExceeded,
    UnsupportedOperation,
)
from ciaftp.kernels import (ContextTreeKernel, LowerBoundRow, RenewalSqrtKernel, load_kernel,
                            memoryless_kernel, parse_kernel_spec)
from ciaftp.tries import Alphabet, ContextTrie, dominates, prefix_closure, prune_minimal

from helpers import BINARY, TERNARY, desk_vlmc, order1_chain, program_kernels, random_vlmc

KERNELS = Path(__file__).resolve().parent.parent / "kernels"


def test_rng_stream_determinism():
    a = RngStream(123)
    b = RngStream(123)
    xs = [a.uniform() for _ in range(5)]
    ys = [b.uniform() for _ in range(5)]
    assert xs == ys
    assert all(0.0 <= x < 1.0 for x in xs)


def test_rng_stream_blocks_match_scalar_draws():
    # draws served from blocks are the scalar Generator.random() sequence,
    # across the block boundaries (8, 8 + 16, 8 + 16 + 32 draws)
    rng = RngStream(2024)
    gen = np.random.Generator(np.random.PCG64(2024))
    assert [rng.uniform() for _ in range(100)] == [gen.random() for _ in range(100)]


def _numpy_draws(seed, n=40):
    return np.random.Generator(np.random.PCG64(seed)).random(n).tolist()


def _stream_draws(seed, n=40):
    rng = RngStream(seed)
    return [rng.uniform() for _ in range(n)]


def test_seed_block_hash_is_numpys_seed_sequence():
    # the block hash gives numpy's seeding words on random seeds below 2^64,
    # both halves of the 64 bits included
    seeds = np.random.Generator(np.random.PCG64(34)).integers(
        0, 2**64, 10**4, dtype=np.uint64, endpoint=False)
    words = engine._seed_words(seeds)
    assert words.dtype == np.uint64 and words.shape == (10**4, 4)
    for s, row in zip(seeds.tolist(), words):
        assert row.tolist() == np.random.SeedSequence(s).generate_state(4, np.uint64).tolist()
    # edge seeds, and seeds on either side of 2^32, where numpy's entropy
    # grows from one word to two
    edges = [0, 1, 2**31, 2**32 - 2, 2**32 - 1, 2**32, 2**32 + 1, 2**62, 2**63, 2**64 - 1]
    for s, row in zip(edges, engine._seed_words(np.array(edges, dtype=np.uint64))):
        assert row.tolist() == np.random.SeedSequence(s).generate_state(4, np.uint64).tolist()
    # any other request of the hand-off is numpy's own
    handoff = engine._SeedWords(2**40, words[0])
    assert (handoff.generate_state(8) == np.random.SeedSequence(2**40).generate_state(8)).all()


def test_rng_stream_seeds_in_blocks_as_numpy_does():
    # RngStream(seed) draws what Generator(PCG64(seed)) draws, whichever
    # path seeds it: series from 0, across 2^32, and up to and past 2^64,
    # where no block may reach 2^64
    series = [range(0, 2100), range(2**32 - 700, 2**32 + 700), range(2**62, 2**62 + 40),
              range(2**64 - 1100, 2**64 + 5)]
    for seeds in series:
        for seed in seeds:
            assert _stream_draws(seed) == _numpy_draws(seed), seed
            lo, hi, words = engine._seed_block
            assert hi - lo == len(words) <= 1024 and hi < 2**64
    # blocks were hashed, of every size up to 1024
    engine._pcg64(5000)
    for size in (8, 16, 32, 64, 128, 256, 512, 1024, 1024):
        lo = engine._seed_block[1]
        engine._pcg64(lo)
        assert engine._seed_block[:2] == (lo, lo + size)
    # jumps: back into the current block, back before it, forward past it
    lo, hi, _ = engine._seed_block
    for seed in (lo + 3, lo, hi - 1, 17, 18, 19, 10**12, hi + 5, hi + 6, 2**70, 7):
        assert _stream_draws(seed) == _numpy_draws(seed), seed
    # two streams alive at once, read in turn across a block's end
    for first in range(30, 60, 2):
        a, b = RngStream(first), RngStream(first + 1)
        ga, gb = (np.random.Generator(np.random.PCG64(s)) for s in (first, first + 1))
        for _ in range(40):
            assert (a.uniform(), b.uniform()) == (ga.random(), gb.random()), first


@pytest.mark.parametrize("seed", [-1, -2**70, 1.5, 9.0, "9"])
def test_rng_stream_refuses_what_numpy_refuses(seed, monkeypatch):
    # a negative seed or one that is not an int goes to numpy, also when it
    # equals the current block's end
    monkeypatch.setattr(engine, "_seed_block", (-1, -1, []))
    engine._pcg64(0)
    engine._pcg64(1)
    assert engine._seed_block[:2] == (1, 9)
    with pytest.raises(Exception) as numpy_error:
        np.random.PCG64(seed)
    with pytest.raises(type(numpy_error.value)) as error:
        RngStream(seed)
    assert str(error.value) == str(numpy_error.value)


def test_init_state():
    t = init_state(BINARY, 2)
    assert t.leaf_count() == 4
    assert all(ctx == lab for ctx, lab in t.leaves())
    with pytest.raises(ValueError):
        init_state(BINARY, 0)


@pytest.mark.parametrize("sampler", [run, pw_extended])
def test_runs_refuse_an_empty_window_and_limits_below_one(sampler):
    k = order1_chain()
    with pytest.raises(ValueError, match="window length"):
        sampler(k, 0, RngStream(0))
    for limit in ("max_iter", "max_depth", "max_nodes"):
        with pytest.raises(ValueError, match="limits must be positive"):
            sampler(k, 1, RngStream(0), **{limit: 0})


@pytest.mark.parametrize("alphabet,lengths", [(BINARY, (1, 2, 3, 4)),
                                              (TERNARY, (1, 2, 3, 4)),
                                              (Alphabet(("a",)), (1, 3))])
def test_initial_map_is_the_pruned_initial_state(alphabet, lengths):
    # the engine's start and the reference's, one node format: equal as
    # tries, labels compared by equality
    for length in lengths:
        start = ContextTrie(alphabet, engine._initial_map(alphabet.symbols, length))
        assert prune_minimal(init_state(alphabet, length)) == start


def test_run_deterministic_per_seed():
    k = desk_vlmc()
    a = run(k, 3, RngStream(99))
    b = run(k, 3, RngStream(99))
    assert a.sample == b.sample
    assert a.diagnostics.tau == b.diagnostics.tau
    assert a.diagnostics.node_touches == b.diagnostics.node_touches
    assert len(a.sample) == 3
    assert a.diagnostics.tau <= -1
    assert a.diagnostics.iterations == -a.diagnostics.tau


def test_memoryless_coalesces_at_window_length():
    k = memoryless_kernel(BINARY, (0.25, 0.75))
    for length in (1, 2, 5):
        for seed in range(10):
            res = run(k, length, RngStream(seed))
            assert res.diagnostics.tau == -length
            # every draw regenerates
            assert res.diagnostics.regeneration_times == list(
                range(-1, -length - 1, -1)
            )


def test_single_step_composition():
    k = desk_vlmc()
    state = init_state(BINARY, 1)
    new_state, slice_, unpruned = step(k, state, 0.95)
    # labels come from looking the slice symbol up in the previous map
    for s, lab in unpruned.leaves():
        g = slice_.trie.find_suffix(s)[1]
        assert lab == state.find_suffix(s + (g,))[1] == (g,)
    assert dominates(unpruned, slice_.trie)


def test_trace_records():
    # the work counters mean the same for every sampler: one record per
    # iteration, and the records' touches add up to the run's total
    cases = [(run, desk_vlmc(), 2), (run, RenewalSqrtKernel(), 1), (pw_extended, desk_vlmc(), 1)]
    for sampler, k, length in cases:
        for seed in range(4, 10):
            d = sampler(k, length, RngStream(seed), trace=True).diagnostics
            recs = d.records
            assert recs is not None and len(recs) == d.iterations
            assert [r.t for r in recs] == list(range(-1, d.tau - 1, -1))
            assert sum(r.node_touches for r in recs) == d.node_touches
            if sampler is run:
                assert recs[-1].leaf_count == 1


def test_on_iteration_audit():
    k = desk_vlmc()
    seen = []

    def audit(a: StepAudit):
        assert isinstance(a, StepAudit)
        for _, lab in a.state.leaves():
            assert isinstance(lab, tuple) and len(lab) == 2
        seen.append(a.t)

    res = run(k, 2, RngStream(17), on_iteration=audit)
    assert seen == list(range(-1, res.diagnostics.tau - 1, -1))


def test_vlmc_dictionary_bounded_by_prefix_closure():
    # after the window has been consumed, the engine dictionary stays
    # within the prefix closure of the kernel dictionary
    k = desk_vlmc()
    closure = prefix_closure(k.trie)

    def audit(a: StepAudit):
        if a.t <= -2:
            assert dominates(closure, a.state)
            assert a.state.leaf_count() <= closure.leaf_count()

    for seed in range(50):
        run(k, 3, RngStream(seed), on_iteration=audit)


def test_iteration_limit():
    k = desk_vlmc()
    with pytest.raises(IterationLimitExceeded) as exc:
        run(k, 3, RngStream(0), max_iter=1)
    assert exc.value.diagnostics is not None
    assert exc.value.diagnostics.tau is None
    assert exc.value.diagnostics.iterations == 1


def test_node_budget():
    k = desk_vlmc()
    with pytest.raises(NodeBudgetExceeded):
        run(k, 3, RngStream(0), max_nodes=3)


def test_renewal_max_depth_budget():
    k = RenewalSqrtKernel()
    # seed chosen so an early draw needs depth > 10
    failures = 0
    for seed in range(30):
        try:
            run(k, 1, RngStream(seed), max_depth=10)
        except MaxDepthExceeded as exc:
            assert exc.diagnostics is not None
            failures += 1
    assert failures > 0  # P(depth > 10) ~ 0.3 per draw


def test_renewal_comb_matches_generic():
    k = RenewalSqrtKernel()
    for length, seeds in [(1, 150), (2, 40)]:
        checked = 0
        for seed in range(seeds):
            try:
                fast = run(k, length, RngStream(seed), max_depth=3000, max_nodes=10**12)
                # the audit advances the reference step beside the comb and
                # raises on any step where they differ
                slow = run(
                    k, length, RngStream(seed), max_depth=3000, max_nodes=10**12,
                    on_iteration=lambda a: None,
                )
            except MaxDepthExceeded:
                continue
            assert fast.sample == slow.sample
            assert fast.diagnostics.tau == slow.diagnostics.tau
            assert fast.diagnostics.node_touches == slow.diagnostics.node_touches
            assert fast.diagnostics.max_slice_depth == slow.diagnostics.max_slice_depth
            checked += 1
        assert checked > 2 * seeds // 3


def test_renewal_comb_trace_matches_generic():
    k = RenewalSqrtKernel()
    for length in (1, 2):
        fast = run(k, length, RngStream(3), max_depth=10**6, max_nodes=10**12, trace=True)
        slow = run(
            k, length, RngStream(3), max_depth=10**6, max_nodes=10**12,
            trace=True, on_iteration=lambda a: None,
        )
        assert [(r.t, r.leaf_count, r.depth) for r in fast.diagnostics.records] == [
            (r.t, r.leaf_count, r.depth) for r in slow.diagnostics.records
        ]


def _one_touch_more(step_fn):
    def corrupt(*args):
        comb, (touches, *rest) = step_fn(*args)
        return comb, (touches + 1, *rest)
    return corrupt


def _one_leaf_more(size):
    def corrupt(comb):
        leaves, depth = size(comb)
        return leaves + 1, depth
    return corrupt


def _constant_one_step_late(step_fn):
    # the step that makes the comb constant says it is not, and one more
    # step, which leaves the constant comb as it is, says it is
    def corrupt(slice_depth, comb, u):
        if not comb[0]:
            return comb, (0, 0, False, 0, True)
        new, (*fields, _) = step_fn(slice_depth, comb, u)
        return new, (*fields, False)
    return corrupt


@pytest.mark.parametrize("length", [1, 2])
@pytest.mark.parametrize("name, corrupt", [("_comb_step", _one_touch_more),
                                           ("_comb_size", _one_leaf_more),
                                           ("_comb_step", _constant_one_step_late)],
                         ids=["touches", "size", "late"])
def test_audit_catches_a_corrupt_comb_step(monkeypatch, name, corrupt, length):
    # negative control: under on_iteration the comb's step function is
    # audited, including the sizes the trace records take from it alone and
    # the flag that ends the run, and the audit raises at the first step
    # that is wrong: the first, or the one that makes the comb constant
    k = RenewalSqrtKernel()
    tau = run(k, length, RngStream(3), max_depth=300).diagnostics.tau
    late = corrupt is _constant_one_step_late
    monkeypatch.setattr(engine, name, corrupt(getattr(engine, name)))
    # the comb alone cannot tell
    got = run(k, length, RngStream(3), max_depth=300, trace=True).diagnostics
    assert got.tau == tau - late
    seen = []
    with pytest.raises(InvariantViolation):
        run(k, length, RngStream(3), max_depth=300, on_iteration=lambda a: seen.append(a.t))
    assert len(seen) == (-tau - 1 if late else 0) and tau <= -2


@pytest.mark.parametrize("length", [1, 2])
def test_audit_catches_a_wrong_slice_depth(monkeypatch, length):
    # negative control: the reference expands renewal slices from the lower
    # bounds, so a closed-form slice depth one too deep is caught
    slice_depth = RenewalSqrtKernel.slice_depth
    monkeypatch.setattr(RenewalSqrtKernel, "slice_depth", lambda self, u: slice_depth(self, u) + 1)
    with pytest.raises(InvariantViolation):
        run(RenewalSqrtKernel(), length, RngStream(3), max_depth=300,
            on_iteration=lambda a: None)


def test_renewal_never_coalesces_in_one_step():
    k = RenewalSqrtKernel()
    for seed in range(50):
        res = run(k, 1, RngStream(seed), max_depth=10**12, max_nodes=10**15)
        assert res.diagnostics.tau <= -2
        assert res.diagnostics.regeneration_times == []


def test_windows_nest():
    # the draws define one stationary process, and every coalesced window is
    # a piece of it: on the same stream the window of length L is the last
    # L symbols of the window of length L + 2, for every shipped kernel,
    # through run and, on finite kernels, through pw_extended (runs that
    # fail a budget are left out).  Negative control: the longer window
    # drawn on the stream with its first draw dropped differs on some seed
    for path in sorted(KERNELS.glob("*.json")):
        k = load_kernel(str(path))
        for sampler in (run,) if k.order is None else (run, pw_extended):
            pairs = shifted = 0
            for length in (1, 2, 3, 5):
                for seed in range(40):
                    late = RngStream(seed)
                    late.uniform()
                    try:
                        short, long, later = (sampler(k, n, rng).sample for n, rng in (
                            (length, RngStream(seed)), (length + 2, RngStream(seed)),
                            (length + 2, late)))
                    except BudgetError:
                        continue
                    assert long[-length:] == short, (path.stem, sampler, length, seed)
                    pairs += 1
                    shifted += later[-length:] != short
            assert pairs > 100 and shifted, (path.stem, sampler)


class _Prepended:
    """The draws ``first``, then the draws of the stream ``rng``."""

    seed = None

    def __init__(self, first, rng):
        self.draws = itertools.chain(first, rng.draws)


def _forward(kernel, window, draws):
    """``window`` extended by ``phi`` on each draw in turn, one window per
    step, up to the first step whose ``phi`` needs a symbol older than the
    window."""
    windows = []
    for u in draws:
        g = update_rule.phi(kernel, u, window)
        if g is None:
            break
        window += (g,)
        windows.append(window)
    return windows


def test_forward_steps_equal_later_backward_runs():
    # the draws define one stationary process: the window of length L on the
    # stream u_0, u_-1, ..., extended forward by phi on u_1..u_m, is the
    # backward window of length L + m on u_m, ..., u_1, u_0, u_-1, ..., for
    # every shipped kernel at L >= its order, through run and, on finite
    # kernels, through pw_extended (runs that fail a budget are left out).
    # A step whose phi needs a symbol older than the window (on the renewal
    # kernel, 24 of 60 windows here) is counted, and it and the steps after
    # it are skipped.
    # Negative control: a forward pass whose second step reads u_1 again
    # differs from the backward windows on some seed
    n = 3
    for path in sorted(KERNELS.glob("*.json")):
        k = load_kernel(str(path))
        base = max(k.order or 0, 1)
        for sampler in (run,) if k.order is None else (run, pw_extended):
            compared = older = twice_differs = 0
            for length in (base, base + 1):
                for seed in range(30):
                    ahead = RngStream(2**40 + seed)
                    draws = [ahead.uniform() for _ in range(n)]
                    try:
                        window = sampler(k, length, RngStream(seed)).sample
                    except BudgetError:
                        continue
                    forward = _forward(k, window, draws)
                    twice = _forward(k, window, draws[:1] + draws[:1] + draws[2:])
                    older += len(forward) < n
                    for m, extended in enumerate(forward, 1):
                        try:
                            later = sampler(k, length + m, _Prepended(
                                draws[m - 1::-1], RngStream(seed))).sample
                        except BudgetError:
                            continue
                        assert extended == later, (path.stem, sampler, length, seed, m)
                        compared += 1
                        twice_differs += m <= len(twice) and twice[m - 1] != later
            assert compared >= 80 and twice_differs, (path.stem, sampler, compared)
            # only infinite memory reaches past the window, and it does
            assert (older > 0) == (k.order is None), (path.stem, sampler, older)


def test_pw_extended_agrees_with_adaptive():
    # same draws, same composed map: identical sample and coalescence time
    for k, length in [(order1_chain(), 1), (desk_vlmc(), 3), (desk_vlmc(), 1)]:
        for seed in range(30):
            a = run(k, length, RngStream(seed))
            b = pw_extended(k, length, RngStream(seed))
            assert a.sample == b.sample
            assert a.diagnostics.tau == b.diagnostics.tau


def _ternary_vlmc() -> ContextTreeKernel:
    """An order-2 ternary context tree: ``c`` splits, ``a`` and ``b`` do not."""
    leaves = {("a",): (0.5, 0.3, 0.2), ("b",): (0.2, 0.2, 0.6), ("a", "c"): (0.05, 0.15, 0.8),
              ("b", "c"): (0.6, 0.4, 0.0), ("c", "c"): (0.4, 0.05, 0.55)}
    return ContextTreeKernel(ContextTrie.from_leaves(TERNARY, leaves))


@pytest.mark.parametrize("make, length", [(order1_chain, 5), (desk_vlmc, 5),
                                          (_ternary_vlmc, 4)])
def test_pw_extended_agrees_with_adaptive_while_its_table_shrinks(make, length):
    # windows longer than the order: the table map loses one symbol per
    # step down to the order, then keeps its depth.  run and pw_extended
    # sample the same window at the same tau, and each pw record is the full
    # table of its step: |G|^m leaves at depth m, every node of the depth-m
    # trie touched, m = max(order, L - 1 - k) after step k
    k = make()
    n, order = k.alphabet.size, k.order
    longest = 0
    for seed in range(40):
        a = run(k, length, RngStream(seed))
        b = pw_extended(k, length, RngStream(seed), trace=True)
        d = b.diagnostics
        assert (a.sample, a.diagnostics.tau) == (b.sample, d.tau), seed
        depths = [max(order, length - 1 - i) for i in range(d.iterations)]
        assert [(r.t, r.leaf_count, r.depth) for r in d.records] == [
            (-1 - i, n ** m, m) for i, m in enumerate(depths)], seed
        touches = [(n ** (m + 1) - 1) // (n - 1) for m in depths]
        assert [r.node_touches for r in d.records] == touches, seed
        assert d.node_touches == sum(touches), seed
        longest = max(longest, d.iterations)
    # some run shrank its table down to the order and stepped on at it
    assert longest > length - order


class _UnresolvedDesk(ContextTreeKernel):
    """The desk kernel, except that its depth-2 context ("0", "1") keeps only
    0.9 of its mass: its layout leaves the band [0.9, 1) unresolved."""

    def __init__(self):
        super().__init__(desk_vlmc().trie)

    def lower_bounds(self, s):
        if s == ("0", "1"):
            return LowerBoundRow((0.3, 0.6), 0.9)
        return super().lower_bounds(s)


@pytest.mark.parametrize("length", [1, 2, 4])
def test_pw_extended_refuses_a_context_that_leaves_a_draw_unresolved(length):
    # negative control for the guard: a kernel whose order-2 context leaves
    # a band of draws unresolved is refused by the first call of either
    # sampler, whatever the table's depth, naming the context with one
    # message, before the stream is read and with nothing cached, so a
    # second call is refused the same way; run_many raises it too, before
    # any run, for either algorithm
    k = _UnresolvedDesk()
    assert update_rule.phi(k, 0.95, ("0", "1")) is None
    assert update_rule.phi(k, 0.85, ("0", "1")) is not None

    class Draws:
        seed = 0

        def __init__(self, draws):
            self.draws = iter(draws)

    for sampler in (pw_extended, run):
        for _ in range(2):
            stream = Draws([0.85, 0.5, 0.97])
            with pytest.raises(InvariantViolation, match=(
                    r"^order-2 kernel leaves the draws from 0\.8999999999999999 on"
                    r" unresolved at depth-2 context \('0', '1'\)$")):
                sampler(k, length, stream)
            assert list(stream.draws) == [0.85, 0.5, 0.97]
            assert k.pw_gaps is None and not k.slice_cache
    for algorithm in ("ciaftp", "pw_extended"):
        with pytest.raises(InvariantViolation, match=r"depth-2 context \('0', '1'\)$"):
            run_many(k, 1, 0, 0, 20, algorithm=algorithm, timing=False)
    assert k.pw_gaps is None and not k.slice_cache


def test_one_symbol_map_is_constant_before_any_draw():
    # on a one-symbol alphabet the start is already constant: every sampler
    # returns at once, with no draw, no work and no hook call
    k = memoryless_kernel(Alphabet(("a",)), (1.0,))
    for length in (1, 2, 3):
        seen = []
        for res in (run(k, length, RngStream(5), trace=True),
                    run(k, length, RngStream(5), trace=True, on_iteration=seen.append),
                    pw_extended(k, length, RngStream(5), trace=True)):
            d = res.diagnostics
            assert res.sample == ("a",) * length
            assert (d.tau, d.iterations, d.node_touches, d.max_slice_depth) == (0, 0, 0, 0)
            assert d.regeneration_times == [] and d.records == []
        assert seen == []


def test_pw_extended_needs_finite_order():
    with pytest.raises(UnsupportedOperation):
        pw_extended(RenewalSqrtKernel(), 1, RngStream(0))


def test_pw_extended_iteration_limit():
    with pytest.raises(IterationLimitExceeded):
        pw_extended(desk_vlmc(), 1, RngStream(0), max_iter=1)


def test_run_many_rows():
    k = order1_chain()
    rows = run_many(k, 1, 500, 0, 20)
    assert [r.run_id for r in rows] == list(range(20))
    assert all(r.error is None for r in rows)
    # seed discipline: row i equals an individual run with seed 500 + i
    solo = run(k, 1, RngStream(507))
    assert rows[7].sample == solo.sample
    assert rows[7].diagnostics.tau == solo.diagnostics.tau
    # start offset produces the same tail
    tail = run_many(k, 1, 500, 15, 5)
    assert [(r.run_id, r.sample) for r in tail] == [
        (r.run_id, r.sample) for r in rows[15:]
    ]


def test_run_many_jobs_after_a_run():
    # a kernel whose slice table is built still goes to worker processes:
    # the table stays behind, and each worker builds its own
    k = load_kernel(str(KERNELS / "order2.json"))
    run(k, 1, RngStream(0))
    assert list(k.slice_cache) == [1]
    serial = run_many(k, 1, 40, 0, 8, timing=False)
    assert run_many(k, 1, 40, 0, 8, timing=False, jobs=2) == serial
    assert list(k.slice_cache) == [1]


def test_run_many_pw_jobs_after_a_run():
    # pw_extended's layouts stay behind too, one per context of exactly
    # order symbols, and so do its gaps and starts, kept apart from the
    # slice tables: after runs of both samplers the slice cache holds run's
    # lengths only, a pickled kernel carries none of the caches, and each
    # worker builds its own and gives the serial rows, at L = 2 and at L = 4,
    # where the table shrinks to the order
    k = load_kernel(str(KERNELS / "order2.json"))
    run(k, 3, RngStream(0))
    pw_extended(k, 2, RngStream(0))
    pw_extended(k, 4, RngStream(0))
    run(k, 1, RngStream(0))
    gaps = k.pw_gaps
    assert len(gaps.layouts) == k.alphabet.size ** k.order == 4
    assert gaps.layouts == update_rule.context_layouts(k) and sorted(gaps.starts) == [2, 4]
    assert sorted(k.slice_cache) == [1, 3]
    copy = pickle.loads(pickle.dumps(k))
    assert (copy.pw_gaps, copy.slice_cache) == (None, {})
    assert not hasattr(copy, "layouts")
    for length in (2, 4):
        serial = run_many(k, length, 40, 0, 8, algorithm="pw_extended", timing=False)
        assert run_many(k, length, 40, 0, 8, algorithm="pw_extended", timing=False,
                        jobs=2) == serial
        # the workers' rows are those of a fresh kernel in this process
        fresh = load_kernel(str(KERNELS / "order2.json"))
        assert run_many(fresh, length, 40, 0, 8, algorithm="pw_extended",
                        timing=False) == serial
    assert k.pw_gaps is gaps
    assert sorted(k.slice_cache) == [1, 3]


def test_run_many_caps_its_workers_at_the_usable_cpus(monkeypatch):
    sizes = []

    class SerialPool:
        """Runs each task at submit, in this process, and records its size."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args, **kwargs):
            fut = concurrent.futures.Future()
            fut.set_result(fn(*args, **kwargs))
            return fut

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    k = order1_chain()
    serial = run_many(k, 1, 3, 0, 40, timing=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert run_many(k, 1, 3, 0, 40, timing=False, jobs=5000) == serial
    assert run_many(k, 1, 3, 0, 40, timing=False, jobs=2) == serial
    # without an affinity call the cap is os.cpu_count(), and 1 if unknown
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert run_many(k, 1, 3, 0, 40, timing=False, jobs=5000) == serial
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert run_many(k, 1, 3, 0, 40, timing=False, jobs=5000) == serial
    assert sizes == [2, 2, 3]


def test_run_many_budget_rows():
    k = desk_vlmc()
    rows = run_many(k, 3, 0, 0, 5, max_iter=1, timing=False)
    assert [f.name for f in dataclasses.fields(RunRow)] == [
        "run_id", "sample", "error", "diagnostics"]
    assert all(r.error == "IterationLimitExceeded" for r in rows)
    assert all(r.sample is None and r.diagnostics.tau is None for r in rows)
    # an error row carries the raised error's diagnostics, wall time zeroed
    for r in rows:
        with pytest.raises(IterationLimitExceeded) as exc:
            run(k, 3, RngStream(r.run_id), max_iter=1)
        assert r.diagnostics == dataclasses.replace(exc.value.diagnostics, wall_ns=0)
    assert any(r.diagnostics.max_slice_depth > 0 for r in rows)
    with pytest.raises(ValueError):
        run_many(k, 1, 0, 0, 2, algorithm="nope")


def test_run_many_pw_algorithm():
    k = order1_chain()
    rows = run_many(k, 1, 9, 0, 10, algorithm="pw_extended")
    adaptive = run_many(k, 1, 9, 0, 10)
    assert [r.sample for r in rows] == [r.sample for r in adaptive]


@pytest.mark.parametrize("alphabet", [BINARY, TERNARY])
def test_random_vlmc_runs_terminate(alphabet):
    rng = np.random.Generator(np.random.PCG64(5))
    for _ in range(10):
        k = random_vlmc(rng, alphabet, int(rng.integers(1, 6)))
        res = run(k, 2, RngStream(int(rng.integers(2**31))))
        assert len(res.sample) == 2
        assert all(g in alphabet.symbols for g in res.sample)


def test_regeneration_detection_matches_slice():
    k = order1_chain()
    seen = []

    def audit(a: StepAudit):
        seen.append((a.t, a.slice_.is_regeneration))

    res = run(k, 1, RngStream(11), on_iteration=audit)
    regen = [t for t, flag in seen if flag]
    assert regen == res.diagnostics.regeneration_times
    # a regenerating draw coalesces immediately
    if regen:
        assert res.diagnostics.tau == min(seen)[0]


def _outcome(k, length, seed, sampler=run, trace=True, **kwargs):
    """Everything a run reports but its wall time, budget failures and
    their messages included; the trace records come last (None untraced)."""
    try:
        res = sampler(k, length, RngStream(seed), trace=trace, **kwargs)
    except BudgetError as exc:
        d, value = exc.diagnostics, (exc.code, str(exc))
    else:
        d, value = res.diagnostics, res.sample
    return (value, d.tau, d.iterations, d.node_touches, d.max_slice_depth,
            d.regeneration_times, d.seed,
            None if d.records is None else [vars(r) for r in d.records])


def test_hot_path_matches_audited_reference():
    # under on_iteration the reference step runs beside the shared-subtree
    # map and raises on any difference; without it the map runs alone and
    # must report exactly the same
    cases = []
    for path in sorted(KERNELS.glob("*.json")):
        k = load_kernel(str(path))
        for length in (1, 2, 3):
            budget = {"max_depth": 300} if k.order is None else {}
            cases.append((k, length, budget))
    order6 = load_kernel(str(KERNELS / "order6.json"))
    cases.append((order6, 1, {"max_depth": 3}))
    failures = 0
    for k, length, budget in cases:
        for seed in range(6):
            plain = _outcome(k, length, seed, **budget)
            audited = _outcome(k, length, seed, on_iteration=lambda a: None, **budget)
            assert plain == audited, (k.family, k.order, length, budget, seed)
            failures += plain[1] is None  # a budget failure has no tau
    assert failures > 0  # the budget failures are compared too


def test_plain_and_traced_runs_report_the_same():
    # perfbench times the untraced loop; every other outcome check traces
    assert engine._backward.__code__.co_cellvars == ()
    audited = functools.partial(run, on_iteration=lambda a: None)
    budgets = [{}, {"max_depth": 2}, {"max_nodes": 40}, {"max_iter": 3}]
    failures = 0
    for path in sorted(KERNELS.glob("*.json")):
        k = load_kernel(str(path))
        samplers = [run, audited] + ([pw_extended] if k.order is not None else [])
        for length in (1, 2, 3):
            for budget in budgets:
                for sampler in samplers:
                    for seed in range(3):
                        plain = _outcome(k, length, seed, sampler, trace=False, **budget)
                        traced = _outcome(k, length, seed, sampler, **budget)
                        assert plain[:-1] == traced[:-1], (path.stem, length, budget, seed)
                        assert plain[-1] is None and traced[-1] is not None
                        failures += plain[1] is None
    assert failures > 0  # the budget failures are compared too


def _first_steps(sampler, k, length, seed, n):
    """The traced diagnostics of a run's first n steps, at the default
    budgets."""
    if n == 0:
        return engine.RunDiagnostics(None, 0, 0, 0, [], [], seed, 0)
    try:
        return sampler(k, length, RngStream(seed), trace=True, max_iter=n).diagnostics
    except IterationLimitExceeded as exc:
        return exc.diagnostics


@pytest.mark.parametrize("sampler, make, length, error, budget", [
    (run, desk_vlmc, 3, IterationLimitExceeded, {"max_iter": 2}),
    (run, desk_vlmc, 3, MaxDepthExceeded, {"max_depth": 1}),
    (run, desk_vlmc, 3, NodeBudgetExceeded, {"max_nodes": 20}),
    (run, RenewalSqrtKernel, 2, IterationLimitExceeded, {"max_iter": 2}),
    (run, RenewalSqrtKernel, 2, MaxDepthExceeded, {"max_depth": 10}),
    (run, RenewalSqrtKernel, 2, NodeBudgetExceeded, {"max_nodes": 30}),
    # the table map reports reach 0, so it never exceeds max_depth
    (pw_extended, desk_vlmc, 2, IterationLimitExceeded, {"max_iter": 2}),
    (pw_extended, desk_vlmc, 2, NodeBudgetExceeded, {"max_nodes": 20}),
])
def test_budget_errors_report_the_run_up_to_the_raise(sampler, make, length, error, budget):
    k = make()
    raised = []
    for seed in range(12):
        try:
            sampler(k, length, RngStream(seed), trace=True, **budget)
        except error as exc:
            d = exc.diagnostics
        else:
            continue
        assert d.tau is None and d.seed == seed and d.wall_ns > 0
        records = d.records
        assert [r.t for r in records] == list(range(-1, -len(records) - 1, -1))
        # the iteration limit refuses to draw; the other two errors count
        # the step that raised them
        if error is IterationLimitExceeded:
            assert d.iterations == len(records) == budget["max_iter"]
        else:
            assert d.iterations == len(records) + 1
        # a refused draw adds nothing; the step that exhausted the node
        # budget adds its touches, slice depth and regeneration
        counted = d.iterations - (error is MaxDepthExceeded)
        ref = _first_steps(sampler, k, length, seed, counted)
        assert ref.iterations == len(ref.records) == counted
        assert records == ref.records[:len(records)]
        assert d.node_touches == sum(r.node_touches for r in ref.records)
        if error is NodeBudgetExceeded:
            assert sum(r.node_touches for r in records) <= budget["max_nodes"] < d.node_touches
        assert (d.max_slice_depth, d.regeneration_times) == (
            ref.max_slice_depth, ref.regeneration_times)
        raised.append(d.iterations)
    assert raised and max(raised) >= 2


def test_a_budget_error_leaves_no_cycle():
    # the raised error's traceback holds the loop's frame, so a local that
    # held the error would make a cycle, and each failed run's map would
    # wait for the cyclic collector
    cases = [(desk_vlmc(), 3, budget) for budget in
             ({"max_iter": 2}, {"max_depth": 1}, {"max_nodes": 20})]
    cases.append((RenewalSqrtKernel(), 2, {"max_depth": 10}))
    gc.collect()
    gc.disable()
    try:
        failed = 0
        for k, length, budget in cases:
            for seed in range(12):
                try:
                    run(k, length, RngStream(seed), **budget)
                except BudgetError:
                    failed += 1
        assert failed > 12
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("make, length, error, budget", [
    (desk_vlmc, 3, IterationLimitExceeded, {"max_iter": 2}),
    (desk_vlmc, 3, MaxDepthExceeded, {"max_depth": 1}),
    (desk_vlmc, 3, NodeBudgetExceeded, {"max_nodes": 20}),
    (RenewalSqrtKernel, 2, IterationLimitExceeded, {"max_iter": 2}),
    (RenewalSqrtKernel, 2, MaxDepthExceeded, {"max_depth": 10}),
    (RenewalSqrtKernel, 2, NodeBudgetExceeded, {"max_nodes": 30}),
])
def test_on_iteration_sees_every_step_up_to_a_budget_error(make, length, error, budget):
    # the hook sees t = -1, -2, ..., -k: every counted step, the one that
    # exhausted the node budget included, but not a draw max_depth refuses
    k = make()
    raised = []
    for seed in range(12):
        seen = []
        try:
            run(k, length, RngStream(seed), on_iteration=lambda a: seen.append(a.t), **budget)
        except error as exc:
            iterations = exc.diagnostics.iterations
        else:
            continue
        hooked = iterations - 1 if error is MaxDepthExceeded else iterations
        assert seen == list(range(-1, -hooked - 1, -1)), seed
        raised.append(hooked)
    assert raised and max(raised) >= 2


def _one_symbol():
    return memoryless_kernel(Alphabet(("a",)), (1.0,))


@pytest.mark.parametrize("sampler, make, length, outcome, budget", [
    (run, desk_vlmc, 3, None, {}),
    (run, desk_vlmc, 3, IterationLimitExceeded, {"max_iter": 2}),
    (run, desk_vlmc, 3, MaxDepthExceeded, {"max_depth": 1}),
    (run, desk_vlmc, 3, NodeBudgetExceeded, {"max_nodes": 20}),
    (run, RenewalSqrtKernel, 2, None, {}),
    (run, RenewalSqrtKernel, 2, IterationLimitExceeded, {"max_iter": 2}),
    (run, RenewalSqrtKernel, 2, MaxDepthExceeded, {"max_depth": 10}),
    (run, RenewalSqrtKernel, 2, NodeBudgetExceeded, {"max_nodes": 30}),
    # the table map reports reach 0, so it never exceeds max_depth
    (pw_extended, desk_vlmc, 3, None, {}),
    (pw_extended, desk_vlmc, 3, IterationLimitExceeded, {"max_iter": 2}),
    (pw_extended, desk_vlmc, 3, NodeBudgetExceeded, {"max_nodes": 40}),
    (run, _one_symbol, 2, None, {}),
    (pw_extended, _one_symbol, 2, None, {}),
])
def test_runs_consume_exactly_their_draws(sampler, make, length, outcome, budget):
    # the loop over the stream's draws reads no draw past the step that
    # ends the run: the stream's next draw is scalar draw iterations + 1
    k = make()
    seen = []
    for seed in range(12):
        rng = RngStream(seed)
        try:
            d = sampler(k, length, rng, **budget).diagnostics
            got = None
        except BudgetError as exc:
            d, got = exc.diagnostics, type(exc)
        gen = np.random.Generator(np.random.PCG64(seed))
        expected = [gen.random() for _ in range(d.iterations + 1)][-1]
        assert rng.uniform() == expected, (seed, got, d.iterations)
        if got is outcome:
            seen.append(d.iterations)
    assert seen and max(seen) >= (0 if make is _one_symbol else 2)


@pytest.mark.parametrize("sampler, make, length", [
    (run, desk_vlmc, 3),
    (run, RenewalSqrtKernel, 2),
    (pw_extended, desk_vlmc, 2),
])
def test_iteration_budget_at_its_edge(sampler, make, length):
    # a run with tau = -n completes under max_iter = n, and under n - 1 it
    # raises after exactly n - 1 steps
    k = make()
    edges = 0
    for seed in range(20):
        full = _outcome(k, length, seed, sampler)
        n = -(full[1] or 0)
        if n < 2:
            continue
        assert _outcome(k, length, seed, sampler, max_iter=n) == full
        with pytest.raises(IterationLimitExceeded) as info:
            sampler(k, length, RngStream(seed), trace=True, max_iter=n - 1)
        d = info.value.diagnostics
        assert (d.tau, d.iterations) == (None, n - 1)
        assert [r.t for r in d.records] == list(range(-1, -n, -1))
        assert [vars(r) for r in d.records] == full[-1][:n - 1]
        edges += 1
    assert edges >= 5


@pytest.mark.parametrize("corrupt", ["touches", "symbol"])
def test_audit_catches_a_corrupt_slice_entry(monkeypatch, corrupt):
    k = desk_vlmc()
    table = slice_table(k, 3)
    table.compile_all()
    # corrupt the gap of the first draw, which every run composes
    u = RngStream(5).uniform()
    entry = table.lookup(u)
    i = [e is entry for e in table.entries].index(True)
    if corrupt == "touches":
        bad = dataclasses.replace(entry, touch_base=entry.touch_base + 1)
    else:
        # the first walk step leaves the root through the first leaf's
        # symbol: take the other symbol's child instead
        parent, child = entry.walk[0]
        bad = dataclasses.replace(entry, walk=((parent, 1 - child),) + entry.walk[1:])
    # a replaced entry starts with no memo and no compiled program: the
    # original's compiled program would hide the corruption
    assert entry.program is not None
    assert (bad.program, bad.runs, bad.memo) == (None, 0, {})
    # in place: the table's step function reads this list
    table.entries[i] = bad
    run(k, 3, RngStream(5))  # the hot path alone cannot tell
    with pytest.raises(InvariantViolation):
        run(k, 3, RngStream(5), on_iteration=lambda a: None)


def _memo_cases():
    """``(fresh kernel maker, window length)`` for every finite shipped
    kernel at L = 1..3 and a few binary and ternary random VLMCs; each
    fresh kernel has a fresh slice table."""
    cases = []
    for path in sorted(KERNELS.glob("*.json")):
        if load_kernel(str(path)).order is not None:
            cases += [(functools.partial(load_kernel, str(path)), length)
                      for length in (1, 2, 3)]
    rng = np.random.Generator(np.random.PCG64(17))
    for alphabet in (BINARY, BINARY, TERNARY, TERNARY):
        trie = random_vlmc(rng, alphabet, int(rng.integers(2, 6))).trie
        cases += [(functools.partial(ContextTreeKernel, trie), length) for length in (1, 2, 3)]
    return cases


MEMO_BUDGETS = [{}, {"max_depth": 2}, {"max_nodes": 40}, {"max_iter": 3}]


def _program_outcomes(monkeypatch, make, length, seeds):
    """The outcomes of runs that compose every step with the program: with
    a cap of 0 the memo stores nothing."""
    monkeypatch.setattr(engine, "MEMO_CAP", 0)
    k = make()
    out = [_outcome(k, length, seed, **budget) for budget in MEMO_BUDGETS for seed in seeds]
    assert not any(entry.memo for entry in slice_table(k, length).entries)
    monkeypatch.undo()
    return out


def test_step_memo_cannot_be_seen(monkeypatch):
    # after a warm-up, runs that read stored transitions report exactly what
    # runs whose every step runs the compiled program report
    seeds = range(8)
    compose = engine._compose
    for make, length in _memo_cases():
        want = _program_outcomes(monkeypatch, make, length, seeds)
        k = make()
        for seed in range(100, 160):
            run(k, length, RngStream(seed))
        composed = []

        def counting(*args):
            composed.append(args)
            return compose(*args)

        monkeypatch.setattr(engine, "_compose", counting)
        got = [_outcome(k, length, seed, **budget) for budget in MEMO_BUDGETS
               for seed in seeds]
        monkeypatch.undo()
        assert got == want, (k.order, length)
        # the memo answered some of the steps
        assert len(composed) < sum(outcome[2] for outcome in got), (k.order, length)


def _transitions(table):
    return sum(len(entry.memo) for entry in table.entries)


def test_step_memo_holds_at_most_its_cap(monkeypatch):
    # order6 at L=1 reaches far more distinct maps than the cap: the table
    # interns the cap's worth, its start included, a full memo stores
    # nothing more, and outcomes stay the program's
    make = functools.partial(load_kernel, str(KERNELS / "order6.json"))
    seeds = range(200, 212)
    want = _program_outcomes(monkeypatch, make, 1, seeds)
    k = make()
    table = slice_table(k, 1)
    full = []
    compose = engine._compose

    def counting(*args):
        full.append(len(table.maps) >= engine.MEMO_CAP)
        return compose(*args)

    monkeypatch.setattr(engine, "_compose", counting)
    for seed in range(2000):
        run(k, 1, RngStream(seed))
        if any(full):
            break
    assert any(full)  # a program ran on a full memo
    monkeypatch.undo()
    stored = _transitions(table)
    got = [_outcome(k, 1, seed, **budget) for budget in MEMO_BUDGETS for seed in seeds]
    assert got == want
    assert _transitions(table) == stored  # a full memo takes no new transition
    start = table.starts[1]
    assert list(k.slice_cache) == [1] and table.maps[start] is start
    assert len(table.maps) == engine.MEMO_CAP
    assert all(table.maps[root] is root for root in table.maps)
    # every key is an interned map and every stored step leads to one; each
    # gap has one entry, so there is at most one transition per (map, gap)
    interned = {id(root) for root in table.maps}
    for entry in table.entries:
        assert set(entry.memo) <= interned
        assert all(table.maps[after] is after for after, _ in entry.memo.values())
    # the traced runs sized maps on and off the full memo: only interned
    # maps are keys of the depth registry, each with its own depth
    assert set(table.depths) == interned
    assert all(table.depths[id(root)] in (None, tries.node_depth(root)) for root in table.maps)
    assert any(depth is not None for depth in table.depths.values())
    assert len(set(table.lows)) == len(table.entries)


def test_step_memo_counts_maps_not_transitions():
    # order2 at L=3 keeps stepping between few maps: it stores more than
    # MEMO_CAP transitions while interning at most MEMO_CAP maps, its start
    # included
    k = load_kernel(str(KERNELS / "order2.json"))
    table = slice_table(k, 3)
    for seed in range(500):
        run(k, 3, RngStream(seed))
        if _transitions(table) > engine.MEMO_CAP:
            break
    assert _transitions(table) > engine.MEMO_CAP
    assert len(table.maps) <= engine.MEMO_CAP


@pytest.mark.parametrize("sampler, name", [(run, "order1"), (pw_extended, "order1"),
                                           (run, "renewal_sqrt")])
def test_window_too_large_to_enumerate(sampler, name):
    # a binary window of L=24 has 2^24 values, past kernels.ENUM_GUARD: the
    # sampler refuses before building any of them
    k = load_kernel(str(KERNELS / f"{name}.json"))
    with pytest.raises(EnumerationGuardExceeded):
        sampler(k, 24, RngStream(0))


def test_wide_windows_share_their_start_and_the_memo(monkeypatch):
    # order1 at L=13 has 8192 leaves: its runs start from the one interned
    # map the first run built, later runs answer steps from the memo, and
    # the audited reference reports what the plain runs do
    k = load_kernel(str(KERNELS / "order1.json"))
    built, composed = [], []
    build, compose = engine._initial_map, engine._compose

    def counting_build(*args):
        built.append(args)
        return build(*args)

    def counting_compose(*args):
        composed.append(args)
        return compose(*args)

    monkeypatch.setattr(engine, "_initial_map", counting_build)
    seeds = range(3)
    first = [_outcome(k, 13, seed) for seed in seeds]
    monkeypatch.setattr(engine, "_compose", counting_compose)
    again = [_outcome(k, 13, seed) for seed in seeds]
    audited = [_outcome(k, 13, seed, on_iteration=lambda a: None) for seed in seeds]
    monkeypatch.undo()
    assert len(built) == 1
    table = slice_table(k, 13)
    start = table.starts[13]
    assert list(table.starts) == [13]
    # a binary tree of n nodes has (n + 1) / 2 leaves
    assert table.maps[start] is start and (start[0] + 1) // 2 == 2**13
    assert all(outcome[1] <= -13 for outcome in first)  # at least 13 draws
    assert again == first and audited == first
    assert len(composed) < sum(outcome[2] for outcome in again + audited)


def test_renewal_runs_share_their_start():
    # the comb keeps one start (runs, spine) per window length in the
    # kernel's cache; runs never change it, so it stays equal to a fresh
    # build, and outcomes equal those of a kernel that has never run
    k = RenewalSqrtKernel()
    seeds = range(30)
    got = {length: [_outcome(k, length, seed) for seed in seeds[:20]] for length in (1, 2, 3)}
    starts = dict(k.slice_cache)
    assert sorted(starts) == [1, 2, 3]
    for length in (1, 2, 3, 4):
        # the cache holds the comb's starts, not tables, or nothing at L=4
        with pytest.raises(UnsupportedOperation):
            slice_table(k, length)
    assert k.slice_cache == starts
    for length, start in starts.items():
        got[length] += [_outcome(k, length, seed) for seed in seeds[20:]]
        assert k.slice_cache[length] is start
        assert start == engine._comb_start(RenewalSqrtKernel(), length)
        assert got[length] == [_outcome(RenewalSqrtKernel(), length, seed) for seed in seeds]


def test_each_window_length_has_its_own_table():
    # on an order-2 kernel, runs at L=1 and L=3 have the depth bounds 2 and
    # 3, so they build one table each, kept under its length in the
    # kernel's cache, which holds that length's start; the two share no
    # interned map, memo key or program, and the kernel's runs still sample
    # what pw_extended samples, and what its rows sample in worker processes
    k = load_kernel(str(KERNELS / "order2.json"))
    seeds = range(200)
    samples = {length: [run(k, length, RngStream(seed)).sample for seed in seeds]
               for length in (1, 3)}
    assert sorted(k.slice_cache) == [1, 3]
    one, three = k.slice_cache[1], k.slice_cache[3]
    assert slice_table(k, 1) is one and slice_table(k, 3) is three
    assert (one.bound, list(one.starts), three.bound, list(three.starts)) == (2, [1], 3, [3])
    one.compile_all()
    three.compile_all()
    assert not {id(root) for root in one.maps} & {id(root) for root in three.maps}
    keys = [{key for entry in table.entries for key in entry.memo} for table in (one, three)]
    assert all(keys) and not keys[0] & keys[1]
    programs = [{id(entry.program) for entry in table.entries} for table in (one, three)]
    assert not programs[0] & programs[1]
    for length in (1, 3):
        assert samples[length] == [pw_extended(k, length, RngStream(seed)).sample
                                   for seed in seeds]
        serial = run_many(k, length, 0, 0, 40, timing=False)
        assert [row.sample for row in serial] == samples[length][:40]
        assert run_many(k, length, 0, 0, 40, timing=False, jobs=2) == serial
    assert sorted(k.slice_cache) == [1, 3]


def test_window_lengths_up_to_the_order_share_one_table(monkeypatch):
    # a slice depends only on the draw and a step only on the map and the
    # slice, so every length up to the order, whose maps share the bound
    # max(order, L) = order, uses one table: one fresh order6 kernel at
    # L=1..6 expands each gap once from the table's root, in ascending
    # order, when the table is built, and compiles each program at most
    # once; the runs grow no gap list, and each length's runs sample what
    # pw_extended samples
    k = load_kernel(str(KERNELS / "order6.json"))
    expanded, compiled = [], []
    expand, compile_program = engine._expand, engine._compile_program
    monkeypatch.setattr(engine, "_expand",
                        lambda *args: expanded.append(args[2]) or expand(*args))
    monkeypatch.setattr(engine, "_compile_program",
                        lambda *args: compiled.append(args[0]) or compile_program(*args))
    table = slice_table(k, 1)
    lows, entries = table.lows, table.entries
    built = list(lows), [id(entry) for entry in entries]
    assert expanded == lows
    lengths = range(1, k.order + 1)
    seeds = range(200)
    samples = {length: [run(k, length, RngStream(seed)).sample for seed in seeds]
               for length in lengths}
    monkeypatch.undo()
    assert sorted(k.slice_cache) == list(lengths)
    assert all(k.slice_cache[length] is table for length in lengths)
    assert table.bound == k.order and sorted(table.starts) == list(lengths)
    # one expansion per gap, from 0 up, and after 1200 runs the same gap
    # list, the same objects with the same lengths
    assert expanded == sorted(set(expanded)) == lows and len(entries) == 65
    assert expanded[0] == 0.0
    assert table.lows is lows and table.entries is entries
    assert (lows, [id(entry) for entry in entries]) == built
    # a program per gap, compiled at most once
    assert compiled and len({id(entry) for entry in compiled}) == len(compiled)
    assert all(any(entry is e for e in table.entries) for entry in compiled)
    for length in lengths:
        assert samples[length] == [pw_extended(k, length, RngStream(seed)).sample
                                   for seed in seeds], length
    # on order2, L=1 and L=2 share the table of bound 2, and L=3 has its own
    k = load_kernel(str(KERNELS / "order2.json"))
    tables = [slice_table(k, length) for length in (1, 2, 3)]
    assert tables[0] is tables[1] is not tables[2]
    assert [table.bound for table in tables] == [2, 2, 3]
    assert (sorted(tables[0].starts), list(tables[2].starts)) == ([1, 2], [3])


def test_a_sweep_refuses_a_gap_that_does_not_start_at_its_draw(monkeypatch):
    # negative control for the sweeps that build a slice table and
    # pw_extended's gaps: an expansion whose gaps after the first start one
    # double below the draw they were found for is refused, and so is a
    # run, which then caches nothing; the same builds pass unpatched
    k = desk_vlmc()
    assert engine.SliceTable(k, 2).lows == engine.PwGaps(k).lows == [0.0, 0.1, 0.4, 0.7]
    expand, phi_contexts = engine._expand, engine.phi_contexts

    def early(*args):
        lo, *rest = expand(*args)
        return (math.nextafter(lo, 0.0) if lo else lo, *rest)

    def early_pw(layouts, u):
        values, (lo, hi) = phi_contexts(layouts, u)
        return values, (math.nextafter(lo, 0.0) if lo else lo, hi)

    monkeypatch.setattr(engine, "_expand", early)
    monkeypatch.setattr(engine, "phi_contexts", early_pw)
    refused = r"^the sweep at u=0\.1 found the gap \[0\.09999999999999999, 0\.4\)$"
    for build in (lambda: engine.SliceTable(k, 2), lambda: engine.PwGaps(k),
                  lambda: run(k, 1, RngStream(0)), lambda: pw_extended(k, 1, RngStream(0))):
        with pytest.raises(InvariantViolation, match=refused):
            build()
    assert not k.slice_cache and k.pw_gaps is None


@pytest.mark.parametrize("name, length", [("order1", 1), ("desk_vlmc", 2), ("order6", 1)])
def test_a_map_deeper_than_its_tables_bound_is_refused(name, length):
    # traced runs size each map after a step: none is deeper than its
    # table's bound, max(order, L), and at L <= order some map reaches it
    # (past the order only the start does, which no step sizes).  On a
    # fresh kernel whose table is built with its bound lowered by one,
    # every gap's program walks one level short, interpreted or compiled:
    # plain runs, which size nothing, sample otherwise on some seed, traced
    # runs raise on the first map past the lowered bound, and audited runs
    # raise too.  A start deeper than the lowered bound is registered past
    # add_start's check (test_a_start_deeper_than_its_tables_bound_is_refused
    # covers that check)
    path = str(KERNELS / f"{name}.json")
    k = load_kernel(path)
    seeds = range(40)
    results = [run(k, length, RngStream(seed), trace=True) for seed in seeds]
    depths = [record.depth for result in results for record in result.diagnostics.records]
    assert max(depths) == slice_table(k, length).bound == k.order

    def lowered():
        low = load_kernel(path)
        table = engine.SliceTable(low, k.order - 1)
        if length <= table.bound:
            table.add_start(length)
        else:
            start = table.starts[length] = engine._initial_map(low.alphabet.symbols, length)
            table.maps[start] = start
            table.depths[id(start)] = None
        low.slice_cache[length] = table
        return low

    low = lowered()
    assert [_outcome(low, length, seed, trace=False)[0] for seed in seeds] != [
        result.sample for result in results]
    for audit, match in (({"trace": True}, "past its table's bound"),
                         ({"on_iteration": lambda a: None}, None)):
        low = lowered()
        with pytest.raises(InvariantViolation, match=match):
            for seed in seeds:
                run(low, length, RngStream(seed), **audit)


def test_a_start_deeper_than_its_tables_bound_is_refused():
    # past the order the start is the only map as deep as the table's
    # bound, and no run sizes it: a table checks each start when it adds
    # it, so the table of bound order refuses the start at L = order + 1,
    # and keeps nothing of it, while the table of bound order + 1 takes it
    for name in ("order1", "order2", "desk_vlmc", "order4"):
        k = load_kernel(str(KERNELS / f"{name}.json"))
        table = engine.SliceTable(k, k.order + 1)
        table.add_start(k.order + 1)
        start = table.starts[k.order + 1]
        assert table.maps[start] is start and tries.node_depth(start) == k.order + 1
        low = engine.SliceTable(k, k.order)
        low.add_start(k.order)
        kept = (dict(low.starts), dict(low.maps), dict(low.depths))
        with pytest.raises(InvariantViolation, match="past its table's bound"):
            low.add_start(k.order + 1)
        assert (low.starts, low.maps, low.depths) == kept
        assert not k.slice_cache


def _is_constant(state):
    """Whether a family's map is constant: a full table (table, m), whose
    table lists the window of each history, a comb (runs, spine) or a
    shared-subtree node."""
    if isinstance(state[1], int):
        return len(set(state[0])) == 1
    if isinstance(state[0], list):
        return not state[0]
    return state[1] is None


def test_every_step_flags_exactly_the_constant_maps(monkeypatch):
    # the loop stops on the flag its step function reports: for every
    # family, plain and audited, the flag of the start and of every step
    # is whether that map is constant
    backward = engine._backward
    flags = []

    def spying(step_fn, state, constant, *rest):
        flags.append((constant, _is_constant(state)))

        def spy(state, u):
            new, report = step_fn(state, u)
            flags.append((report[4], _is_constant(new)))
            return new, report

        return backward(spy, state, constant, *rest)

    monkeypatch.setattr(engine, "_backward", spying)
    audited = functools.partial(run, on_iteration=lambda a: None)
    order6 = functools.partial(load_kernel, str(KERNELS / "order6.json"))
    cases = [(desk_vlmc, length, sampler) for length in (1, 2, 3)
             for sampler in (run, audited, pw_extended)]
    cases += [(order6, 1, sampler) for sampler in (run, audited, pw_extended)]
    cases += [(RenewalSqrtKernel, length, sampler) for length in (1, 2)
              for sampler in (run, audited)]
    for make, length, sampler in cases:
        k = make()
        ended = 0
        for seed in range(12):
            flags.clear()
            try:
                sampler(k, length, RngStream(seed), max_depth=300)
            except MaxDepthExceeded:
                pass
            else:
                assert flags[-1] == (True, True)
                ended += 1
            assert flags and all(flag is constant for flag, constant in flags), (length, seed)
        assert ended >= 6


def test_a_memo_hit_returns_its_stored_pair():
    # on a warm table, a step through a stored transition returns the pair
    # the memo holds, the same object
    k = desk_vlmc()
    for seed in range(60):
        run(k, 3, RngStream(seed))
    table = slice_table(k, 3)
    hits = 0
    for root in table.maps:
        for low, entry in zip(table.lows, table.entries):
            stored = entry.memo.get(id(root))
            if stored is not None:
                assert table.step(root, low) is stored
                hits += 1
    assert hits >= 20


@pytest.mark.parametrize("tamper", ["touches", "map"])
def test_audit_checks_memo_hits(tamper):
    # a stored transition the memo returns is checked like a program run:
    # tampered, a plain run reports it and an audited run raises
    k = desk_vlmc()
    seed = next(s for s in range(100) if run(k, 3, RngStream(s)).diagnostics.tau < -1)
    before = _outcome(k, 3, seed)
    table = slice_table(k, 3)
    entry = table.lookup(RngStream(seed).uniform())
    start = table.starts[3]
    # the stored pair: (next map, (touches, depth, regenerated, reach, constant))
    after, (touches, *rest, constant) = entry.memo[id(start)]
    assert not constant
    if tamper == "touches":
        entry.memo[id(start)] = (after, (touches + 1, *rest, constant))
    else:
        # a coalesced map from an earlier run, reported constant: the run
        # stops at t = -1
        leaf = next(root for root in table.maps if root[1] is None)
        entry.memo[id(start)] = (leaf, (touches, *rest, True))
    got = _outcome(k, 3, seed)
    if tamper == "touches":
        assert got[3] == before[3] + 1 and got[:3] == before[:3]
    else:
        assert (got[0], got[1]) == (leaf[2], -1) != (before[0], before[1])
    with pytest.raises(InvariantViolation):
        run(k, 3, RngStream(seed), on_iteration=lambda a: None)


def _relabeled(node, label):
    """``node`` rebuilt with each leaf's label ``w`` replaced by ``label(w)``."""
    if node[1] is None:
        return (1, None, label(node[2]))
    return tries.internal_node(tuple(_relabeled(kid, label) for kid in node[1:]))


@pytest.mark.parametrize("family", ["table", "comb"])
def test_audit_checks_the_label_a_plain_run_returns(family):
    # negative control for the label check, which only the audit makes: the
    # L=3 start with each window w relabeled w + w[-1:], the same map but
    # for labels of length 4; plain runs return such a label unchecked,
    # with the touches they had, and an audited run raises at its first
    # step, whose reference map has the length-3 windows
    seeds = range(5)
    if family == "table":
        k = desk_vlmc()
        want = [_outcome(k, 3, seed) for seed in seeds]
        starts = slice_table(k, 3).starts
        starts[3] = _relabeled(starts[3], lambda w: w + w[-1:])
    else:
        k = RenewalSqrtKernel()
        want = [_outcome(k, 3, seed) for seed in seeds]
        runs, spine = k.slice_cache[3]
        k.slice_cache[3] = ([(_relabeled(side, lambda w: w + w[-1:]), count)
                             for side, count in runs], _relabeled(spine, lambda w: w + w[-1:]))
    got = [_outcome(k, 3, seed) for seed in seeds]
    assert [(o[0] + o[0][-1:],) + o[1:] for o in want] == got
    seen = []
    with pytest.raises(InvariantViolation):
        run(k, 3, RngStream(0), on_iteration=seen.append)
    assert seen == []


def test_compiled_hot_path_skips_the_reference(monkeypatch):
    # once the gaps a run needs are compiled, it builds no ContextTrie,
    # prunes nothing, expands no slice and asks the kernel for no rows
    kernels = [(load_kernel(str(KERNELS / "order6.json")), 1), (desk_vlmc(), 3)]
    before = [[run(k, length, RngStream(seed)).sample for seed in range(30)]
              for k, length in kernels]

    def refuse(*args, **kwargs):
        raise AssertionError("the reference machinery ran on the hot path")

    for owner in (engine, tries):
        monkeypatch.setattr(owner, "prune_minimal", refuse)
    for owner, name in [(ContextTrie, "from_leaves"), (ContextTrie, "find_suffix"),
                        (engine, "step"), (engine, "build_slice"),
                        (update_rule, "build_slice")]:
        monkeypatch.setattr(owner, name, refuse)
    for (k, length), samples in zip(kernels, before):
        monkeypatch.setattr(k, "lower_bounds", refuse)
        assert [run(k, length, RngStream(seed)).sample for seed in range(30)] == samples


def test_a_cold_table_shares_no_code_with_the_reference(monkeypatch):
    # a fresh kernel's table expands every gap it meets itself: its first
    # runs expand no slice with build_slice, build no ContextTrie and prune
    # nothing, and sample what audited runs, checked step by step against
    # the reference, sample
    cases = [(lambda: load_kernel(str(KERNELS / "order6.json")), 1), (desk_vlmc, 3)]
    seeds = range(30)
    want = [[run(make(), length, RngStream(seed), on_iteration=lambda a: None).sample
             for seed in seeds] for make, length in cases]
    fresh = [(make(), length) for make, length in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("the reference machinery ran on a cold table")

    for owner in (engine, tries):
        monkeypatch.setattr(owner, "prune_minimal", refuse)
    for owner, name in [(ContextTrie, "from_leaves"), (engine, "step"),
                        (engine, "build_slice"), (update_rule, "build_slice")]:
        monkeypatch.setattr(owner, name, refuse)
    for (k, length), samples in zip(fresh, want):
        assert not k.slice_cache
        assert [run(k, length, RngStream(seed)).sample for seed in seeds] == samples


def _composed_maps(monkeypatch, k, lengths, seeds):
    """The distinct maps runs of ``k`` hand to ``engine._compose``."""
    maps = {}
    compose = engine._compose

    def recording(root, *args):
        maps[id(root)] = root
        return compose(root, *args)

    monkeypatch.setattr(engine, "_compose", recording)
    for length in lengths:
        for seed in seeds:
            try:
                run(k, length, RngStream(seed))
            except BudgetError:
                pass
    monkeypatch.undo()
    return list(maps.values())


def _walk_depths(entry):
    """The depth of each slot of ``entry``'s walk, slot 0 (the root) at 0."""
    depths = [0]
    for parent, _ in entry.walk:
        depths.append(depths[parent] + 1)
    return depths


def _leaf_depths(root, entry):
    """The depths at which ``entry``'s walk into ``root`` first meets a leaf."""
    slots, depths, met = [root], _walk_depths(entry), set()
    for slot, (parent, child) in enumerate(entry.walk, 1):
        node = slots[parent]
        if node[1] is None:
            slots.append(node)
        else:
            slots.append(node[1 + child])
            if slots[-1][1] is None:
                met.add(depths[slot])
    return met


def _collapsed(node, depth, cut, rng):
    """``node``, at ``depth``, rebuilt with every subtree below it that
    ``cut(depth)`` picks replaced by one of its leaves, chosen at random."""
    if node[1] is None:
        return node
    if cut(depth):
        while node[1] is not None:
            node = node[1 + int(rng.integers(len(node) - 1))]
        return node
    return tries.minimal_node(tuple(_collapsed(kid, depth + 1, cut, rng) for kid in node[1:]))


def _collapsed_maps(symbols, length, rng):
    """The start map at ``length`` with subtrees collapsed onto one of their
    leaves: every subtree at depth d, for each d in 1..length, then random
    subtrees at any depth."""
    start = engine._initial_map(symbols, length)
    maps = [_collapsed(start, 0, lambda depth, d=d: depth == d, rng)
            for d in range(1, length + 1)]
    maps += [_collapsed(start, 0, lambda depth: depth and rng.random() < 0.25, rng)
             for _ in range(4)]
    return maps


def test_compiled_programs_equal_the_interpreted_ones(monkeypatch):
    # at every window length L = 1..order+2, every gap's program, compiled
    # for its table's bound max(order, L), gives the interpreted program's
    # new map and node touches: on the maps runs at L compose, and on start
    # maps of the bound's length collapsed at every depth up to it, on
    # which the walk meets a leaf at every depth from 1 to its walk depth,
    # so every leaf branch runs.  Every length up to the order has one
    # table, so the maps of each of those lengths meet the same programs.
    # A table of one level less, when that is at least 1, walks one level
    # short: some program of it, compiled, gives another result on one of
    # those maps.
    rng = np.random.Generator(np.random.PCG64(53))
    for name, k in program_kernels():
        arity = k.alphabet.size
        for length in range(1, k.order + 3):
            table = slice_table(k, length)
            assert (table is slice_table(k, 1)) == (length <= max(k.order, 1)), (name, length)
            maps = _composed_maps(monkeypatch, k, (length,), range(4))
            maps += _collapsed_maps(k.alphabet.symbols, table.bound, rng)
            assert max(map(tries.node_depth, maps)) == table.bound, (name, length)
            table.compile_all()
            assert len(set(table.lows)) == len(table.entries)
            low = engine.SliceTable(k, table.bound - 1) if table.bound > 1 else None
            shallow = False
            for u, entry in zip(table.lows, table.entries):
                met = set()
                wants = [engine._interpret(root, entry, arity) for root in maps]
                for root, want in zip(maps, wants):
                    assert entry.program(root) == want, (name, length)
                    met |= _leaf_depths(root, entry)
                assert met >= set(range(1, max(_walk_depths(entry)) + 1)), (name, length)
                if low and not shallow:
                    program = engine._compile_program(low.lookup(u), arity, low.bound)
                    shallow = [program(root) for root in maps] != wants
            assert shallow == (low is not None), (name, length)


def test_one_kernel_runs_every_window_length_on_its_own_table(monkeypatch):
    # with every program compiled, one kernel object alternates between
    # window lengths up to its order, which share one table, and past it,
    # each on its own table, whose programs are compiled for that length's
    # bound; each run reports what the same seed reports on a fresh kernel
    # at that window length
    spec = runpy.run_path(str(KERNELS.parent / "scripts" / "run_outcomes.py"))["SPECS"]
    cases = [(desk_vlmc, (1, 2, 3)),
             (functools.partial(load_kernel, str(KERNELS / "order1.json")), (1, 2)),
             (functools.partial(parse_kernel_spec, json.dumps(spec["ternary_vlmc"])),
              (1, 2, 3, 4, 5))]
    seeds = range(12)
    for make, lengths in cases:
        want = {}
        for length in lengths:
            fresh = make()
            want[length] = [_outcome(fresh, length, seed) for seed in seeds]
        k = make()
        assert min(lengths) <= k.order < max(lengths)
        for length in lengths:
            slice_table(k, length).compile_all()
        assert sorted(k.slice_cache) == list(lengths)
        bounds = set()
        compose = engine._compose

        def recording(*args):
            bounds.add(args[3])
            return compose(*args)

        def refuse(*args):
            raise AssertionError("a program was interpreted")

        monkeypatch.setattr(engine, "_compose", recording)
        monkeypatch.setattr(engine, "_interpret", refuse)
        for seed in seeds:
            for length in lengths:
                assert _outcome(k, length, seed) == want[length][seed], (k.order, length, seed)
        monkeypatch.undo()
        assert bounds == {max(k.order, length) for length in lengths}


def test_deep_walks_compile(monkeypatch):
    # a comb context tree of order 120, contexts 0 1^j (j < 120) and 1^120:
    # a draw in [0.3, 0.9) resolves at depth 120 only, so its program walks
    # 120 levels, down to the bound, deeper than CPython lets a source
    # nest, and the maps runs compose after such draws are as deep; every
    # program compiles, equals the interpreted one on those maps and passes
    # the audit
    k = _comb_kernel(120)
    for length in (1, 2, 3):
        table = slice_table(k, length)
        table.compile_all()
        assert all(entry.program for entry in table.entries)
        assert max(max(_walk_depths(entry)) for entry in table.entries) == 120
        maps = _composed_maps(monkeypatch, k, (length,), range(20))
        assert max(map(tries.node_depth, maps)) >= engine._INDENT_LIMIT
        for entry in table.entries:
            for root in maps:
                assert entry.program(root) == engine._interpret(root, entry, 2)

    def refuse(*args):
        raise AssertionError("a program was interpreted")

    monkeypatch.setattr(engine, "_interpret", refuse)
    steps = sum(run(k, 1 + seed % 3, RngStream(seed), on_iteration=lambda a: None)
                .diagnostics.iterations for seed in range(50))
    assert steps > 100


def _comb_kernel(order):
    """The comb context tree of ``test_deep_walks_compile`` at any order:
    contexts 0 1^j (j < order) with law (0.3, 0.7), and 1^order with (0.9, 0.1)."""
    leaves = {("0",) + ("1",) * j: (0.3, 0.7) for j in range(order)}
    leaves[("1",) * order] = (0.9, 0.1)
    return ContextTreeKernel(ContextTrie.from_leaves(BINARY, leaves))


def test_deep_kernels_run_without_interning():
    # maps of order 1000 are too deep for tuple == to intern them, so the
    # table interns only its start; the runs complete, in worker processes
    # too (the kernel's trie pickles without recursion), with the same rows
    k = _comb_kernel(1000)
    serial = run_many(k, 1, 0, 0, 40, timing=False)
    assert not any(row.error for row in serial)
    assert max(row.diagnostics.max_slice_depth for row in serial) == 1000
    table = slice_table(k, 1)
    start = table.starts[1]
    assert table.memo_cap == 0 and list(table.maps) == [start]
    assert not any(entry.memo for entry in table.entries)
    # L=2 shares the table of bound 1000, which interns its start too
    assert slice_table(k, 2) is table
    assert list(table.maps) == [start, table.starts[2]]
    assert run_many(k, 1, 0, 0, 40, timing=False, jobs=2) == serial
    assert run_many(pickle.loads(pickle.dumps(k)), 1, 0, 0, 40, timing=False) == serial
    # at order 600 the audit passes, and reports what the plain run does
    k = _comb_kernel(600)
    for seed in range(3):
        audited = _outcome(k, 1, seed, on_iteration=lambda a: None)
        assert audited == _outcome(k, 1, seed)
    # the order-120 comb still interns
    assert slice_table(_comb_kernel(120), 1).memo_cap == engine.MEMO_CAP


def test_interning_stops_at_half_the_recursion_limit(monkeypatch):
    # tuple == recurses one level per trie level of a flat node, so a table
    # interns while twice its bound is below the recursion limit: at the
    # last such order its maps at L=1, as deep as the order, are interned
    # and compared, and the runs report what runs with no memo report
    order = (sys.getrecursionlimit() - 1) // 2
    assert slice_table(_comb_kernel(order + 1), 1).memo_cap == 0
    k = _comb_kernel(order)
    table = slice_table(k, 1)
    assert table.memo_cap == engine.MEMO_CAP
    seeds = range(30)
    composed = []
    compose = engine._compose
    monkeypatch.setattr(engine, "_compose", lambda *args: composed.append(args) or compose(*args))
    got = [_outcome(k, 1, seed) for seed in seeds]
    monkeypatch.undo()
    assert max(map(tries.node_depth, table.maps)) == order
    assert len(composed) < sum(outcome[2] for outcome in got)  # the memo answered
    monkeypatch.setattr(engine, "MEMO_CAP", 0)
    fresh = _comb_kernel(order)
    assert got == [_outcome(fresh, 1, seed) for seed in seeds]


def test_compiled_programs_pass_the_audit(monkeypatch):
    # with every program compiled before the first run, audited runs check
    # each compiled step against the reference step
    rng = np.random.Generator(np.random.PCG64(41))
    cases = [(load_kernel(str(KERNELS / "order4.json")), 2),
             (load_kernel(str(KERNELS / "order6.json")), 1),
             (random_vlmc(rng, TERNARY, 6), 2)]

    def refuse(*args):
        raise AssertionError("a program was interpreted")

    for k, length in cases:
        slice_table(k, length).compile_all()
        monkeypatch.setattr(engine, "_interpret", refuse)
        steps = sum(run(k, length, RngStream(seed), on_iteration=lambda a: None)
                    .diagnostics.iterations for seed in range(200))
        monkeypatch.undo()
        assert steps > 200


def test_compose_compiles_a_program_at_its_compile_after_th_run(monkeypatch):
    # runs 1 .. COMPILE_AFTER - 1 interpret the program, run COMPILE_AFTER
    # compiles it for the bound it is given, and every later run calls the
    # compiled function
    k = load_kernel(str(KERNELS / "order6.json"))
    table = slice_table(k, 1)
    entry = table.lookup(0.5)
    root = table.starts[1]
    want = engine._interpret(root, entry, 2)
    interpreted, compiled = [], []
    interpret, compile_program = engine._interpret, engine._compile_program
    monkeypatch.setattr(engine, "_interpret",
                        lambda *args: interpreted.append(args) or interpret(*args))
    monkeypatch.setattr(engine, "_compile_program",
                        lambda *args: compiled.append(args) or compile_program(*args))
    for _ in range(engine.COMPILE_AFTER - 1):
        assert engine._compose(root, entry, 2, table.bound) == want
    assert entry.program is None and entry.runs == len(interpreted) == engine.COMPILE_AFTER - 1
    for _ in range(3):
        assert engine._compose(root, entry, 2, table.bound) == want
    assert entry.program is not None and len(interpreted) == engine.COMPILE_AFTER - 1
    assert compiled == [(entry, 2, table.bound)] and table.bound == k.order


def test_program_runs_count_no_memo_hit(monkeypatch):
    # each entry counts the program runs that reach it, and a memo hit is
    # none; a few warm-up runs compile nothing
    k = desk_vlmc()
    composed = []
    compose = engine._compose
    monkeypatch.setattr(engine, "_compose", lambda *args: composed.append(args) or compose(*args))
    steps = sum(run(k, 3, RngStream(seed)).diagnostics.iterations for seed in range(40))
    table = slice_table(k, 3)
    assert sum(entry.runs for entry in table.entries) == len(composed) < steps
    order6 = load_kernel(str(KERNELS / "order6.json"))
    for seed in range(10):
        run(order6, 1, RngStream(2**62 + seed))
    assert not any(entry.program for entry in slice_table(order6, 1).entries)


def test_a_dropped_kernels_programs_die_at_once():
    # compiled programs share one globals dict and make no cycle, so the
    # last reference to their kernel frees them, in the table of every
    # depth bound, without the collector
    k = load_kernel(str(KERNELS / "order6.json"))
    programs = []
    for length in (1, 3):
        table = slice_table(k, length)
        table.compile_all()
        run(k, length, RngStream(0))
        programs += [weakref.ref(entry.program) for entry in table.entries]
    assert all(p().__globals__ is engine._PROGRAM_GLOBALS for p in programs)
    gc.collect()
    gc.disable()
    try:
        del k, table
        assert not any(p() for p in programs)
    finally:
        gc.enable()


def test_symbol_names_never_reach_a_program_source(monkeypatch):
    # symbol names that are Python code stay out of every generated source,
    # which holds only integers, names of locals and the program's syntax;
    # the compiled programs report what interpreted ones do
    names = ("__import__('os').getcwd()", "(lambda: 'x')()", "'; raise SystemExit #")
    trie = random_vlmc(np.random.Generator(np.random.PCG64(3)), Alphabet(names), 5).trie
    want = [_outcome(ContextTreeKernel(trie), 2, seed) for seed in range(20)]
    sources = []
    source = engine._program_source
    monkeypatch.setattr(engine, "_program_source",
                        lambda *args: sources.append(source(*args)) or sources[-1])
    k = ContextTreeKernel(trie)
    slice_table(k, 2).compile_all()
    assert [_outcome(k, 2, seed) for seed in range(20)] == want
    # compile_all compiles one program per gap
    assert len(sources) == len(slice_table(k, 2).entries) > 2
    syntax = set("abcdefghijklmnopqrstuvwxyzN0123456789_ ,()[]=+:\n")
    for text in sources:
        assert set(text) <= syntax and not any(name in text for name in names)
