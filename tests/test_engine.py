import concurrent.futures
import dataclasses
import functools
import gc
import os
import pickle
import weakref
from pathlib import Path

import numpy as np
import pytest

from ciaftp import engine, tries, update_rule
from ciaftp.engine import (
    RngStream,
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
from ciaftp.kernels import ContextTreeKernel, RenewalSqrtKernel, load_kernel, memoryless_kernel
from ciaftp.tries import Alphabet, ContextTrie, dominates, prefix_closure, prune_minimal

from helpers import BINARY, TERNARY, desk_vlmc, order1_chain, random_vlmc

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


def test_init_state():
    t = init_state(BINARY, 2)
    assert t.leaf_count() == 4
    assert all(ctx == lab for ctx, lab in t.leaves())
    with pytest.raises(ValueError):
        init_state(BINARY, 0)


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


def _one_touch_more(advance):
    def corrupt(self, u):
        touches, depth, regenerated, reach = advance(self, u)
        return touches + 1, depth, regenerated, reach
    return corrupt


def _one_leaf_more(size):
    def corrupt(self):
        leaves, depth = size(self)
        return leaves + 1, depth
    return corrupt


@pytest.mark.parametrize("length", [1, 2])
@pytest.mark.parametrize("method, corrupt", [("advance", _one_touch_more),
                                             ("size", _one_leaf_more)],
                         ids=["touches", "size"])
def test_audit_catches_a_corrupt_comb_step(monkeypatch, method, corrupt, length):
    # negative control: under on_iteration the comb itself is audited,
    # including the sizes the trace records take from it alone
    monkeypatch.setattr(engine._CombMap, method, corrupt(getattr(engine._CombMap, method)))
    k = RenewalSqrtKernel()
    run(k, length, RngStream(3), max_depth=300, trace=True)  # the comb alone cannot tell
    with pytest.raises(InvariantViolation):
        run(k, length, RngStream(3), max_depth=300, on_iteration=lambda a: None)


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


def test_pw_extended_agrees_with_adaptive():
    # same draws, same composed map: identical sample and coalescence time
    for k, length in [(order1_chain(), 1), (desk_vlmc(), 3), (desk_vlmc(), 1)]:
        for seed in range(30):
            a = run(k, length, RngStream(seed))
            b = pw_extended(k, length, RngStream(seed))
            assert a.sample == b.sample
            assert a.diagnostics.tau == b.diagnostics.tau


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
    assert rows[7].tau == solo.diagnostics.tau
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
    assert k.slice_cache is not None
    serial = run_many(k, 1, 40, 0, 8, timing=False)
    assert run_many(k, 1, 40, 0, 8, timing=False, jobs=2) == serial
    assert k.slice_cache is not None


def test_run_many_pw_jobs_after_a_run():
    # phi's cached layouts stay behind too: each worker builds its own
    k = load_kernel(str(KERNELS / "order2.json"))
    pw_extended(k, 2, RngStream(0))
    layouts = dict(k.layouts)
    assert layouts and pickle.loads(pickle.dumps(k)).layouts == {}
    serial = run_many(k, 2, 40, 0, 8, algorithm="pw_extended", timing=False)
    assert run_many(k, 2, 40, 0, 8, algorithm="pw_extended", timing=False, jobs=2) == serial
    assert k.layouts == layouts


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
    rows = run_many(k, 3, 0, 0, 5, max_iter=1)
    assert all(r.error == "IterationLimitExceeded" for r in rows)
    assert all(r.sample is None and r.tau is None for r in rows)
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
        return engine.RunDiagnostics(None, 0, 0, 0, [], [], seed)
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


@pytest.mark.parametrize("corrupt", ["touches", "symbol"])
def test_audit_catches_a_corrupt_slice_entry(monkeypatch, corrupt):
    k = desk_vlmc()
    table = slice_table(k)
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
    monkeypatch.setattr(table, "entries", table.entries[:i] + [bad] + table.entries[i + 1:])
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
    assert not any(entry.memo for entry in slice_table(k).entries)
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
    # interns the cap's worth plus its start, a full memo stores nothing
    # more, and outcomes stay the program's
    make = functools.partial(load_kernel, str(KERNELS / "order6.json"))
    seeds = range(200, 212)
    want = _program_outcomes(monkeypatch, make, 1, seeds)
    k = make()
    table = slice_table(k)
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
    assert list(table.starts) == [1]
    assert len(table.maps) <= engine.MEMO_CAP + len(table.starts)
    assert all(table.maps[root] is root for root in table.maps)
    # every key is an interned map and every stored step leads to one; each
    # gap has one entry, so there is at most one transition per (map, gap)
    interned = {id(root) for root in table.maps}
    for entry in table.entries:
        assert set(entry.memo) <= interned
        assert all(table.maps[after] is after for after, _ in entry.memo.values())
    assert len(set(table.lows)) == len(table.entries)


def test_step_memo_counts_maps_not_transitions():
    # order2 at L=3 keeps stepping between few maps: it stores more than
    # MEMO_CAP transitions while interning at most MEMO_CAP maps and its start
    k = load_kernel(str(KERNELS / "order2.json"))
    table = slice_table(k)
    for seed in range(500):
        run(k, 3, RngStream(seed))
        if _transitions(table) > engine.MEMO_CAP:
            break
    assert _transitions(table) > engine.MEMO_CAP
    assert len(table.maps) <= engine.MEMO_CAP + 1


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
    table = slice_table(k)
    start = table.starts[13]
    # a binary tree of n nodes has (n + 1) / 2 leaves
    assert table.maps[start] is start and (start[1] + 1) // 2 == 2**13
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
    with pytest.raises(UnsupportedOperation):
        slice_table(k)  # the cache holds the comb's starts, not a table
    for length, start in starts.items():
        got[length] += [_outcome(k, length, seed) for seed in seeds[20:]]
        assert k.slice_cache[length] is start
        fresh = engine._CombMap(RenewalSqrtKernel(), length)
        assert start == (fresh.runs, fresh.spine)
        assert got[length] == [_outcome(RenewalSqrtKernel(), length, seed) for seed in seeds]


@pytest.mark.parametrize("tamper", ["touches", "map"])
def test_audit_checks_memo_hits(tamper):
    # a stored transition the memo returns is checked like a program run:
    # tampered, a plain run reports it and an audited run raises
    k = desk_vlmc()
    seed = next(s for s in range(100) if run(k, 3, RngStream(s)).diagnostics.tau < -1)
    before = _outcome(k, 3, seed)
    table = slice_table(k)
    entry = table.lookup(RngStream(seed).uniform())
    start = table.starts[3]
    after, touches = entry.memo[id(start)]
    if tamper == "touches":
        entry.memo[id(start)] = (after, touches + 1)
    else:
        # a coalesced map from an earlier run: the run stops at t = -1
        leaf = next(root for root in table.maps if root[0] is None)
        entry.memo[id(start)] = (leaf, touches)
    got = _outcome(k, 3, seed)
    if tamper == "touches":
        assert got[3] == before[3] + 1 and got[:3] == before[:3]
    else:
        assert (got[0], got[1]) == (leaf[2], -1) != (before[0], before[1])
    with pytest.raises(InvariantViolation):
        run(k, 3, RngStream(seed), on_iteration=lambda a: None)


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


def _program_kernels():
    """``(name, kernel)`` for every finite shipped kernel, then 16 random
    binary and 16 random ternary VLMCs."""
    kernels = [(path.stem, load_kernel(str(path))) for path in sorted(KERNELS.glob("*.json"))]
    kernels = [(name, k) for name, k in kernels if k.order is not None]
    rng = np.random.Generator(np.random.PCG64(29))
    for alphabet in (BINARY, TERNARY):
        kernels += [(f"random{alphabet.size}-{i}",
                     random_vlmc(rng, alphabet, int(rng.integers(1, 8)))) for i in range(16)]
    return kernels


def _composed_maps(monkeypatch, k, lengths, seeds):
    """The distinct maps runs of ``k`` hand to ``engine._compose``."""
    maps = {}
    compose = engine._compose

    def recording(root, entry, arity):
        maps[id(root)] = root
        return compose(root, entry, arity)

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
        if node[0] is None:
            slots.append(node)
        else:
            slots.append(node[0][child])
            if slots[-1][0] is None:
                met.add(depths[slot])
    return met


def _collapsed(node, depth, cut, rng):
    """``node``, at ``depth``, rebuilt with every subtree below it that
    ``cut(depth)`` picks replaced by one of its leaves, chosen at random."""
    if node[0] is None:
        return node
    if cut(depth):
        while node[0] is not None:
            node = node[0][int(rng.integers(len(node[0])))]
        return node
    return engine._node(tuple(_collapsed(kid, depth + 1, cut, rng) for kid in node[0]))


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
    # on every gap, the compiled function gives the interpreted program's
    # new map and node touches, from maps real runs compose at L = 1..4 and
    # from collapsed start maps, on which each program's walk meets a leaf
    # at every depth from 1 to its walk depth, so every leaf branch runs
    rng = np.random.Generator(np.random.PCG64(53))
    for name, k in _program_kernels():
        maps = _composed_maps(monkeypatch, k, (1, 2, 3, 4), range(4))
        table = slice_table(k)
        table.compile_all()
        assert maps and len(set(table.lows)) == len(table.entries)
        deepest = max(max(_walk_depths(entry)) for entry in table.entries)
        collapsed = _collapsed_maps(k.alphabet.symbols, deepest, rng)
        arity = k.alphabet.size
        for entry in table.entries:
            met = set()
            for root in maps + collapsed:
                assert entry.program(root) == engine._interpret(root, entry, arity), name
                met |= _leaf_depths(root, entry)
            assert met >= set(range(1, max(_walk_depths(entry)) + 1)), name


def test_deep_walks_compile(monkeypatch):
    # a comb context tree of order 120, contexts 0 1^j (j < 120) and 1^120:
    # a draw in [0.3, 0.9) resolves at depth 120 only, so its program walks
    # 121 levels, deeper than CPython lets a source nest, and the maps runs
    # compose after such draws are as deep; every program compiles, equals
    # the interpreted one on those maps and passes the audit
    k = _comb_kernel(120)
    table = slice_table(k)
    table.compile_all()
    assert all(entry.program for entry in table.entries)
    assert max(max(_walk_depths(entry)) for entry in table.entries) == 121
    maps = _composed_maps(monkeypatch, k, (1, 2, 3), range(20))
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
    # table interns only its starts; the runs complete, in worker processes
    # too (the kernel's trie pickles without recursion), with the same rows
    k = _comb_kernel(1000)
    serial = run_many(k, 1, 0, 0, 40, timing=False)
    assert not any(row.error for row in serial)
    assert max(row.max_slice_depth for row in serial) == 1000
    table = slice_table(k)
    assert table.memo_cap == 0 and len(table.maps) == len(table.starts) == 1
    assert not any(entry.memo for entry in table.entries)
    assert run_many(k, 1, 0, 0, 40, timing=False, jobs=2) == serial
    assert run_many(pickle.loads(pickle.dumps(k)), 1, 0, 0, 40, timing=False) == serial
    # at order 600 the audit passes, and reports what the plain run does
    k = _comb_kernel(600)
    for seed in range(3):
        audited = _outcome(k, 1, seed, on_iteration=lambda a: None)
        assert audited == _outcome(k, 1, seed)
    # the order-120 comb still interns
    assert slice_table(_comb_kernel(120)).memo_cap == engine.MEMO_CAP


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
        slice_table(k).compile_all()
        monkeypatch.setattr(engine, "_interpret", refuse)
        steps = sum(run(k, length, RngStream(seed), on_iteration=lambda a: None)
                    .diagnostics.iterations for seed in range(200))
        monkeypatch.undo()
        assert steps > 200


def test_compose_compiles_a_program_at_its_compile_after_th_run(monkeypatch):
    # runs 1 .. COMPILE_AFTER - 1 interpret the program, run COMPILE_AFTER
    # compiles it, and every later run calls the compiled function
    k = load_kernel(str(KERNELS / "order6.json"))
    entry = slice_table(k).lookup(0.5)
    root = engine._initial_map(k.alphabet.symbols, 1)
    want = engine._interpret(root, entry, 2)
    interpreted = []
    interpret = engine._interpret
    monkeypatch.setattr(engine, "_interpret",
                        lambda *args: interpreted.append(args) or interpret(*args))
    for _ in range(engine.COMPILE_AFTER - 1):
        assert engine._compose(root, entry, 2) == want
    assert entry.program is None and entry.runs == len(interpreted) == engine.COMPILE_AFTER - 1
    for _ in range(3):
        assert engine._compose(root, entry, 2) == want
    assert entry.program is not None and len(interpreted) == engine.COMPILE_AFTER - 1


def test_program_runs_count_no_memo_hit(monkeypatch):
    # each entry counts the program runs that reach it, and a memo hit is
    # none; a few warm-up runs compile nothing
    k = desk_vlmc()
    composed = []
    compose = engine._compose
    monkeypatch.setattr(engine, "_compose", lambda *args: composed.append(args) or compose(*args))
    steps = sum(run(k, 3, RngStream(seed)).diagnostics.iterations for seed in range(40))
    table = slice_table(k)
    assert sum(entry.runs for entry in table.entries) == len(composed) < steps
    order6 = load_kernel(str(KERNELS / "order6.json"))
    for seed in range(10):
        run(order6, 1, RngStream(2**62 + seed))
    assert not any(entry.program for entry in slice_table(order6).entries)


def test_a_dropped_kernels_programs_die_at_once():
    # compiled programs share one globals dict and make no cycle, so the
    # last reference to their kernel frees them without the collector
    k = load_kernel(str(KERNELS / "order6.json"))
    table = slice_table(k)
    table.compile_all()
    run(k, 1, RngStream(0))
    programs = [weakref.ref(entry.program) for entry in table.entries]
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
    slice_table(k).compile_all()
    assert [_outcome(k, 2, seed) for seed in range(20)] == want
    assert len(sources) == len(slice_table(k).entries) > 1
    syntax = set("abcdefghijklmnopqrstuvwxyzN0123456789_ ,()[]=+:\n")
    for text in sources:
        assert set(text) <= syntax and not any(name in text for name in names)
