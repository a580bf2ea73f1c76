import gc
import math
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciaftp import engine, update_rule
from ciaftp.engine import RngStream, pw_extended, run, slice_table
from ciaftp.errors import IterationLimitExceeded, MaxDepthExceeded, UnknownSymbol
from ciaftp.kernels import (
    ContextTreeKernel,
    LowerBoundRow,
    RenewalSqrtKernel,
    load_kernel,
    memoryless_kernel,
)
from ciaftp.tries import ContextTrie, prune_minimal
from ciaftp.update_rule import (
    DEFAULT_MAX_DEPTH,
    IntervalAssignment,
    build_slice,
    interval_table,
    phi,
    verify_measure,
)

from helpers import (
    BINARY,
    TERNARY,
    all_contexts,
    desk_vlmc,
    order1_chain,
    random_context,
    random_vlmc,
)

KERNELS = Path(__file__).resolve().parent.parent / "kernels"
TOP = 1.0 - 2.0**-53  # the largest draw Generator.random() can return


class FixedStream:
    """A draw stream that always returns the same draw."""

    seed = None

    def __init__(self, u: float = TOP):
        self.u = u

    def uniform(self) -> float:
        return self.u


def test_interval_layout_order1():
    k = order1_chain()
    # level 0: shared mass (0.6, 0.3); level 1 at context 0 adds (0.1, 0.0)
    table = interval_table(k, ("0",))
    widths = {(iv.level, iv.symbol): iv.beta - iv.alpha for iv in table}
    assert widths[(0, "0")] == pytest.approx(0.6, abs=1e-15)
    assert widths[(0, "1")] == pytest.approx(0.3, abs=1e-15)
    assert widths[(1, "0")] == pytest.approx(0.1, abs=1e-15)
    assert widths[(1, "1")] == 0.0
    # contiguous ascending intervals
    cursor = 0.0
    for iv in table:
        assert iv.alpha == pytest.approx(cursor, abs=1e-15)
        cursor = iv.beta
    assert cursor == pytest.approx(1.0, abs=1e-12)


def test_phi_order1():
    k = order1_chain()
    assert phi(k, 0.1, ()) == "0"
    assert phi(k, 0.7, ()) == "1"
    assert phi(k, 0.95, ()) is None  # above the level-0 mass 0.9
    assert phi(k, 0.95, ("0",)) == "0"
    assert phi(k, 0.95, ("1",)) == "1"
    with pytest.raises(ValueError):
        phi(k, 1.0, ())


def test_phi_constant_below_shared_mass():
    # draws below A(s) give the same symbol for every deeper context
    k = desk_vlmc()
    for u in (0.05, 0.2, 0.39):
        vals = {phi(k, u, ("1",) + ext) for ext in [(), ("0",), ("1",), ("0", "1")]}
        base = phi(k, u, ("1",))
        assert vals == {base}


def test_build_slice_regeneration():
    k = order1_chain()
    s = build_slice(k, 0.5)
    assert s.is_regeneration
    assert s.trie.root_label() == "0"
    assert s.depth == 0
    s2 = build_slice(k, 0.95)
    assert not s2.is_regeneration
    assert dict(s2.trie.leaves()) == {("0",): "0", ("1",): "1"}


def test_build_slice_memoryless_always_regenerates():
    k = memoryless_kernel(BINARY, (0.25, 0.75))
    for u in (0.0, 0.2, 0.6, 0.999):
        assert build_slice(k, u).is_regeneration


def test_renewal_slice_fixture():
    # u = 0.5 resolves at depth 4: 0->1, 01->1, 011->1, 0111->1, 1111->0
    s = build_slice(RenewalSqrtKernel(), 0.5)
    assert s.depth == 4
    assert dict(s.trie.leaves()) == {
        ("0",): "1",
        ("0", "1"): "1",
        ("0", "1", "1"): "1",
        ("0", "1", "1", "1"): "1",
        ("1", "1", "1", "1"): "0",
    }


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 0.97))
def test_renewal_slice_generic_agrees(u):
    # the slice expanded from the lower bounds has the comb's closed-form
    # depth and node touches: the all-ones spine plus both children of
    # each spine node
    k = RenewalSqrtKernel()
    s = build_slice(k, u)
    assert s.depth == k.slice_depth(u)
    assert s.node_touches == 2 * s.depth + 1


class _LooseRoot(ContextTreeKernel):
    """A context-tree kernel whose root row is half the true infima: still
    a valid coupling, but no child's first interval then ends where the
    root's level ends."""

    def lower_bounds(self, s):
        row = super().lower_bounds(s)
        if s:
            return row
        lower = tuple(p / 2 for p in row.lower)
        return LowerBoundRow(s, lower, sum(lower))


def _finite_kernels():
    named = [(p.name, load_kernel(str(p))) for p in sorted(KERNELS.glob("*.json"))]
    named.append(("desk_vlmc-loose-root", _LooseRoot(desk_vlmc().trie)))
    rng = np.random.Generator(np.random.PCG64(53))
    for alphabet in (BINARY, TERNARY):
        for i in range(8):
            named.append((f"random{alphabet.size}-{i}",
                          random_vlmc(rng, alphabet, int(rng.integers(1, 8)))))
    return [(name, k) for name, k in named if k.order is not None]


def _slot_paths(entry):
    """The walk path of every slot the entry's walk fills, slot 0 first."""
    paths = [()]
    for parent, child in entry.walk:
        paths.append(paths[parent] + (child,))
    return paths


def _leaf_walks(slice_, alphabet):
    """The walk path of each slice leaf: its symbol's index, then its
    context's indices from newest to oldest."""
    return [(alphabet.index(g),) + tuple(alphabet.index(c) for c in reversed(ctx))
            for ctx, g in slice_.trie.leaves()]


def _gap_probes(k):
    """Both ends of every gap of the kernel's slices, walked from 0 by
    following the right end each gap :func:`build_slice` reports."""
    lo = 0.0
    while lo < 1.0:
        gap = build_slice(k, lo, DEFAULT_MAX_DEPTH).gap
        assert gap[0] == lo < gap[1], gap
        yield lo
        yield min(math.nextafter(gap[1], 0.0), TOP)
        lo = gap[1]


def _slice_or_error(fn):
    try:
        return fn()
    except MaxDepthExceeded as exc:
        return str(exc)


def _one_draw_run(k, u, max_depth):
    """A run of window length 1 that composes the draw ``u`` once."""
    try:
        return run(k, 1, FixedStream(u), max_depth=max_depth, max_iter=1)
    except IterationLimitExceeded:
        return None


def test_slice_table_matches_generic_slice():
    # the table's entry for a draw is compiled from the slice build_slice
    # expands for it: at both ends of every gap, which run from 0 to 1
    for name, k in _finite_kernels():
        table = slice_table(k)
        assert slice_table(k) is table
        gaps = []
        for u in _gap_probes(k):
            ref = build_slice(k, u, DEFAULT_MAX_DEPTH)
            entry = table.lookup(u)
            # both ends of a gap report it and get the same entry
            if gaps and gaps[-1][0] == ref.gap:
                assert gaps[-1][1] is entry, (name, u)
            else:
                gaps.append((ref.gap, entry))
            i = [e is entry for e in table.entries].index(True)
            assert (table.lows[i], table.highs[i]) == ref.gap, (name, u)
            # the program walks every distinct prefix of the leaves' walk
            # paths exactly once, each after its parent, grafts at the
            # leaves' full paths and rebuilds every other slice node
            walks = _leaf_walks(ref, k.alphabet)
            prefixes = {w[:j] for w in walks for j in range(1, len(w) + 1)}
            paths = _slot_paths(entry)
            assert len(paths) - 1 == len(prefixes), (name, u)
            assert set(paths[1:]) == prefixes, (name, u)
            assert all(parent < slot for slot, (parent, _) in enumerate(entry.walk, 1))
            assert sorted(paths[slot] for slot in entry.grafts) == sorted(walks), (name, u)
            assert len(entry.nodes) == ref.trie.node_count() - len(walks), (name, u)
            assert (entry.depth, entry.touch_base, entry.reach) == (
                ref.depth, ref.node_touches + ref.trie.node_count() - ref.trie.leaf_count(),
                ref.reach
            ), (name, u)
            # the map reports a regeneration exactly for a depth-0 slice
            assert (entry.depth == 0) == ref.is_regeneration, (name, u)
            # below the kernel order, the expansion refuses exactly the
            # draws whose reach exceeds the budget, and run refuses them
            # with the same message
            for max_depth in range(1, k.order):
                refused = _slice_or_error(lambda: build_slice(k, u, max_depth))
                assert isinstance(refused, str) == (entry.reach > max_depth), (name, u)
                ran = _slice_or_error(lambda: _one_draw_run(k, u, max_depth))
                if isinstance(refused, str):
                    assert ran == refused, (name, u, max_depth)
                else:
                    assert not isinstance(ran, str), (name, u, max_depth)
        # the table holds exactly the gaps walked, in order: they tile [0, 1)
        assert list(zip(table.lows, table.highs)) == [gap for gap, _ in gaps], name
        assert all(a is b for a, (_, b) in zip(table.entries, gaps)), name


def test_slice_table_does_not_keep_its_kernel_alive():
    # the table holds its kernel weakly, so dropping the kernel frees the
    # table at once, without the cyclic garbage collector
    k = load_kernel(str(KERNELS / "order6.json"))
    gc.disable()
    try:
        run(k, 1, RngStream(0))
        table = weakref.ref(slice_table(k))
        del k
        assert table() is None
    finally:
        gc.enable()


def _compose_leaf_by_leaf(root, slice_, alphabet):
    """The slice composed onto the shared-subtree map ``root`` with one walk
    from the root per slice leaf; returns (new map, summed graft sizes)."""
    grafted = 0

    def compose(node, path):
        nonlocal grafted
        if node[0] is None:
            target = root
            for i in (alphabet.index(node[2]),) + path:
                if target[0] is None:
                    break
                target = target[0][i]
            grafted += target[1]
            return target
        kids = tuple(compose(child, path + (i,)) for i, child in enumerate(node[0]))
        if kids[0][0] is None and all(kid is kids[0] for kid in kids):
            return kids[0]  # one leaf object per label: the pruning rule
        return (kids, 1 + sum(kid[1] for kid in kids))

    return compose(slice_.trie.root, ()), grafted


def test_slice_programs_compose_like_a_walk_per_leaf():
    # from the maps real runs pass through, the compiled program gives the
    # nodes (labels and memos) and node touches of one walk per slice leaf;
    # the program runs on every step here, not the step memo in front of it
    for name, k in _finite_kernels():
        lookup = slice_table(k).lookup
        for length in (1, 3):
            for seed in range(3):
                root = engine._initial_map(k.alphabet.symbols, length)
                rng = RngStream(seed)
                for _ in range(200):
                    if root[0] is None:
                        break
                    u = rng.uniform()
                    ref = build_slice(k, u, DEFAULT_MAX_DEPTH)
                    want, grafted = _compose_leaf_by_leaf(root, ref, k.alphabet)
                    entry = lookup(u)
                    root, touches = engine._compose(root, entry, k.alphabet.size)
                    assert root == want, (name, length, seed, u)
                    leaves = ref.trie.leaf_count()
                    assert touches == ref.node_touches + ref.trie.node_count() + grafted - leaves
                    assert (entry.depth, entry.reach) == (ref.depth, ref.reach)
                    assert (entry.depth == 0) == ref.is_regeneration


def test_build_slice_max_depth():
    k = RenewalSqrtKernel()
    u = 0.995  # depth ~ 40000
    with pytest.raises(MaxDepthExceeded):
        build_slice(k, u, max_depth=100)


def test_refused_deep_slice_keeps_no_pending_contexts():
    # the expansion resolves each 0 sibling before it goes deeper along the
    # spine, and its closing frames keep no context: refusing a renewal
    # draw at depth 3000 peaked at 36.7 MB when every pending sibling kept
    # its context tuple
    k = RenewalSqrtKernel()
    tracemalloc.start()
    try:
        with pytest.raises(MaxDepthExceeded):
            build_slice(k, 0.9999999, 3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("alphabet", [BINARY, TERNARY])
def test_slice_trie_is_minimal_and_valid(alphabet):
    # built in one pass, the slice is what from_leaves and prune_minimal
    # make of its leaves
    rng = np.random.Generator(np.random.PCG64(37))
    kernels = [random_vlmc(rng, alphabet, int(rng.integers(1, 8))) for _ in range(10)]
    if alphabet == BINARY:
        kernels.append(RenewalSqrtKernel())
    for k in kernels:
        for u in rng.random(10):
            trie = build_slice(k, float(u)).trie
            rebuilt = ContextTrie.from_leaves(alphabet, dict(trie.leaves()))
            assert trie == rebuilt == prune_minimal(rebuilt)


@pytest.mark.parametrize("alphabet", [BINARY, TERNARY])
def test_slice_classifies_like_phi(alphabet):
    rng = np.random.Generator(np.random.PCG64(31))
    for _ in range(20):
        k = random_vlmc(rng, alphabet, int(rng.integers(1, 8)))
        d = k.trie.depth()
        for u in rng.random(10):
            s = build_slice(k, float(u))
            for _ in range(5):
                h = random_context(rng, alphabet, d + 2)
                direct = phi(k, float(u), h)
                via_slice = s.trie.find_suffix(h)[1]
                assert direct == via_slice


def test_verify_measure_desk():
    k = desk_vlmc()
    for w in [("0",), ("0", "1"), ("1", "1"), ("1", "0", "1")]:
        rep = verify_measure(k, w)
        assert rep.ok, rep.failures
        assert rep.max_mass_error <= 1e-9
        assert rep.coverage_error <= 1e-12
    # unresolved chains are reported, not silently accepted
    assert not verify_measure(k, ("1",)).ok


@pytest.mark.parametrize("alphabet", [BINARY, TERNARY])
def test_verify_measure_random(alphabet):
    rng = np.random.Generator(np.random.PCG64(77))
    for _ in range(15):
        k = random_vlmc(rng, alphabet, int(rng.integers(1, 8)))
        d = k.trie.depth()
        for _ in range(10):
            rep = verify_measure(k, random_context(rng, alphabet, d))
            assert rep.ok, rep.failures


def test_verify_measure_renewal_resolving_context():
    k = RenewalSqrtKernel()
    rep = verify_measure(k, ("0", "1", "1"))
    assert rep.ok, rep.failures


def test_interval_table_u_cap_stops_early():
    k = RenewalSqrtKernel()
    w = ("1",) * 50
    table = interval_table(k, w, u_cap=0.5)
    assert max(iv.level for iv in table) <= 5
    # the interval containing u agrees with phi
    u = 0.45
    hit = [iv for iv in table if iv.alpha <= u < iv.beta]
    assert len(hit) == 1
    assert hit[0].symbol == phi(k, u, w)


def test_top_draw_resolves_on_shipped_kernels():
    # the intervals tile [0, 1) exactly at every resolving context, so the
    # top double lands in one of them
    for path in sorted(KERNELS.glob("*.json")):
        k = load_kernel(str(path))
        if k.order is None:
            # renewal: the resolving contexts are those holding a 0
            contexts = [w for w in all_contexts(k.alphabet, 6) if "0" in w]
        else:
            contexts = list(all_contexts(k.alphabet, max(k.order, 1)))
        for w in contexts:
            assert phi(k, TOP, w) is not None, (path.name, w)
            rep = verify_measure(k, w)
            assert rep.ok and rep.coverage_error == 0.0, (path.name, w, rep.failures)
        if k.order is None:
            continue
        assert build_slice(k, TOP).depth <= max(k.order, 1), path.name

        def outcome(sampler, length):
            try:
                res = sampler(k, length, FixedStream(), max_iter=50)
            except IterationLimitExceeded as exc:
                return exc.code, exc.diagnostics.iterations
            return res.sample, res.diagnostics.tau

        for length in (1, 2):
            assert outcome(run, length) == outcome(pw_extended, length), (path.name, length)


class _ShrinkingRows(ContextTreeKernel):
    """A context-tree kernel whose unresolved rows are scaled down by random
    factors, one draw per context: a deeper context may then lose mass, so
    interval ends need not ascend.  Not a valid coupling, but its layout
    still has a first interval ending above each draw."""

    def __init__(self, trie, seed):
        super().__init__(trie)
        self._rng = np.random.Generator(np.random.PCG64(seed))
        self._scales = {}

    def lower_bounds(self, s):
        row = super().lower_bounds(s)
        if row.resolved:
            return row
        if s not in self._scales:
            self._scales[s] = self._rng.random(self.alphabet.size)
        lower = tuple(float(p * f) for p, f in zip(row.lower, self._scales[s]))
        return LowerBoundRow(s, lower, math.fsum(lower))


def test_phi_matches_a_scan_of_the_layout():
    # every context of length 0..order+2, at 0, the top draw, every interval
    # end and the double below it, and random draws: phi answers what the
    # first interval of the layout ending above u holds, or None
    rng = np.random.Generator(np.random.PCG64(8))
    shrinking = [(f"shrinking-{name}", _ShrinkingRows(k.trie, i))
                 for i, (name, k) in enumerate(_finite_kernels()) if k.order]
    for name, k in _finite_kernels() + shrinking:
        for length in range(k.order + 3):
            for s in all_contexts(k.alphabet, length):
                table = interval_table(k, s)
                ends = [iv.beta for iv in table]
                draws = [0.0, TOP, *ends, *(math.nextafter(e, 0.0) for e in ends),
                         *rng.random(3)]
                for u in draws:
                    if u < 1.0:
                        want = next((iv.symbol for iv in table if u < iv.beta), None)
                        assert phi(k, float(u), s) == want, (name, s, u)
        # one layout per context of at most order symbols
        assert k.layouts and all(len(key) <= k.order for key in k.layouts), name


def test_phi_on_infinite_memory_scans_and_stores_nothing():
    # contexts are unbounded, so the scan stops at the first end above u
    k = RenewalSqrtKernel()
    ones = ("1",) * 10**4
    assert phi(k, 0.5, ones) == "0"  # level 4: p_zero(4) > 0.5
    assert phi(k, 0.9, ones) == "0"  # level 99
    assert phi(k, 0.9, ones + ("0",)) == "1"
    assert phi(k, 0.5, ("1",)) is None
    assert k.layouts == {}


def test_phi_refuses_draws_outside_the_unit_interval():
    for k in (desk_vlmc(), RenewalSqrtKernel()):
        for u in (1.0, -0.0 - 1e-300, math.inf, math.nan):
            with pytest.raises(ValueError):
                phi(k, u, ("0", "1"))
        assert k.layouts == {}


def _levels_per_suffix(kernel, w):
    """The levels of the chain ``w`` from one ``lower_bounds`` call per
    suffix: the reference for ``Kernel.suffix_bounds``."""
    pos, prev = 0.0, (0.0,) * kernel.alphabet.size
    for k in range(len(w) + 1):
        row = kernel.lower_bounds(w[len(w) - k:])
        ends = update_rule._level_ends(row.lower, row.mass, prev, pos)
        yield k, pos, ends
        pos, prev = ends[-1], row.lower


def _until_error(levels):
    """The levels up to an UnknownSymbol, then its message."""
    out = []
    try:
        for level in levels:
            out.append(level)
    except UnknownSymbol as exc:
        out.append(str(exc))
    return out


def test_levels_match_one_row_per_suffix():
    # the levels, phi and the interval table read each level's row in O(1)
    # and stay what one lower_bounds call per suffix gives, unknown symbols
    # included
    renewal = RenewalSqrtKernel()
    cases = [(renewal, ("1",) * n) for n in (0, 1, 2, 7, 3000)]
    cases += [(renewal, ("1",) * j + ("0",) + ("1",) * n) for j in (0, 3) for n in (0, 1, 5, 400)]
    cases += [(renewal, ("0", "1", "x", "1", "1")), (renewal, ("x", "0", "1")),
              (renewal, ("1", "0", "0", "1", "1", "1"))]
    rng = np.random.Generator(np.random.PCG64(61))
    finite = [desk_vlmc(), load_kernel(str(KERNELS / "order6.json")),
              random_vlmc(rng, TERNARY, 6)]
    for k in finite:
        cases += [(k, random_context(rng, k.alphabet, n)) for n in (0, 1, k.order, k.order + 9)]
    for k, w in cases:
        want = _until_error(_levels_per_suffix(k, w))
        assert _until_error(update_rule._levels(k, w)) == want, w[-12:]
        if isinstance(want[-1], str):
            continue
        for u in (0.5, 0.99, 0.995):
            # the first interval ending above u holds it
            ends = [(g, end) for _, _, level in want for g, end in zip(k.alphabet.symbols, level)]
            assert phi(k, u, w) == next((g for g, end in ends if u < end), None), (w[-12:], u)
            table = []
            for level, pos, level_ends in want:
                if level and pos > u:
                    break
                for g, end in zip(k.alphabet.symbols, level_ends):
                    table.append(IntervalAssignment(level, g, pos, end))
                    pos = end
            assert interval_table(k, w, u_cap=u) == table, (w[-12:], u)


def test_levels_cost_no_row_per_deep_suffix(monkeypatch):
    # the renewal kernel reads one symbol per level and no lower_bounds row;
    # a finite-order kernel reads rows up to its order only
    def refuse(self, s):
        raise AssertionError("a lower_bounds row was read")

    monkeypatch.setattr(RenewalSqrtKernel, "lower_bounds", refuse)
    w = ("1",) * 10**5
    assert len(list(update_rule._levels(RenewalSqrtKernel(), w))) == len(w) + 1
    # u = 0.995 needs about 4 * 10^4 trailing ones
    assert phi(RenewalSqrtKernel(), 0.995, w[:10**4]) is None
    assert phi(RenewalSqrtKernel(), 0.995, w) == "0"
    k = load_kernel(str(KERNELS / "order4.json"))
    read = []
    lower_bounds = k.lower_bounds
    monkeypatch.setattr(k, "lower_bounds", lambda s: read.append(s) or lower_bounds(s))
    assert len(list(update_rule._levels(k, w))) == len(w) + 1
    assert read == [w[len(w) - j:] for j in range(k.order + 1)]
