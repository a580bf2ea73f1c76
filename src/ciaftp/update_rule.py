"""The coupling construction: interval layout, evaluation, and slices.

For a context chain ``w`` the unit interval is tiled by half-open intervals,
one per (level, symbol): at level k the new mass gained by symbol g when the
context deepens from the last k-1 symbols of ``w`` to the last k.  A uniform
draw ``u`` lands in exactly one interval, whose symbol is the update value.
Whenever ``u`` is below the accumulated mass of a context, the update value
is already determined by that context alone; the minimal labeled trie of
contexts where this happens is the draw's *slice*.

Floating-point discipline: every routine in this module takes the interval
boundaries from one helper, :func:`_level_ends`, in one canonical order
(ascending level; within a level, alphabet order), so interval membership
never disagrees between table construction, pointwise evaluation, slice
expansion and the slice table.  The same helper closes every resolving
level at exactly 1.0.

Slices come in two forms.  :func:`build_slice` expands the slice node by
node from the kernel's lower-bound rows alone, for finite and infinite
memory alike, and returns a validated :class:`UpdateSlice` trie; it is the
reference that ``inspect``, the tests and the audits use.  It also reports
the slice's reach (the depth of the deepest context it visits) and its
gap: every comparison it makes is ``u < e`` for an interval end ``e``, so
every draw between the nearest compared ends below and above ``u`` gets
the same slice.  The sampler's hot path uses a :class:`SliceTable` of the
gaps found so far for a finite-order kernel: it finds a draw's gap by
bisection, or adds the gap :func:`build_slice` reports, and keeps one
:class:`SliceEntry` per gap, the slice compiled into a program that
composes it onto a composite map.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Dict, Iterator, List, Optional, Tuple
from weakref import ref

from .errors import MaxDepthExceeded, UnsupportedOperation
from .kernels import Kernel, LowerBoundRow
from .tries import Context, ContextTrie, Symbol, prune_minimal

DEFAULT_MAX_DEPTH = 10_000

# Transitions a SliceTable stores before runs stop interning new maps.  A
# composite map of a finite-order kernel is a function on contexts of depth
# max(order, L), so only finitely many occur, and few in practice: desk_vlmc
# at L=3 takes 120 distinct (map, gap) transitions between 38 maps over
# 1.1e5 steps (99.9% of its steps repeat one), order2 at L=1 60 between 14,
# so both fit.  order6 at L=1 repeats only about 10% of its steps even with
# no cap, and its interned maps cost about 2.2 KB each (tracemalloc): 256
# transitions hold about 0.55 MB there, 4096 would hold 8.4 MB.
MEMO_CAP = 256


@dataclass(frozen=True)
class IntervalAssignment:
    level: int
    symbol: Symbol
    alpha: float
    beta: float


@dataclass(frozen=True)
class UpdateSlice:
    """The minimal trie on which the update map for one draw is constant."""

    u: float
    trie: ContextTrie  # leaf label: the symbol emitted on that ball
    depth: int
    node_touches: int
    reach: int  # depth of the deepest context the expansion visits
    gap: Tuple[float, float]  # [lo, hi): the draws that get this slice

    @property
    def is_regeneration(self) -> bool:
        return self.trie.is_coalesced()


def _level_ends(row: LowerBoundRow, prev: Tuple[float, ...], pos: float) -> List[float]:
    """Right ends of one level's intervals, in alphabet order, for a level
    that starts at ``pos``: symbol i gains ``row.lower[i] - prev[i]``.

    At a resolving level the last interval of nonzero width ends at exactly
    1.0, so the intervals tile [0, 1) whatever the rounding of the sums and
    every draw (``1 - 2**-53`` included) lands in one of them.
    """
    ends = []
    for lower, before in zip(row.lower, prev):
        pos += lower - before
        ends.append(pos)
    if pos != 1.0 and row.resolved:
        last = len(ends) - 1
        while last > 0 and row.lower[last] == prev[last]:
            last -= 1
        ends[last:] = [1.0] * (len(ends) - last)
    return ends


def _levels(kernel: Kernel, w: Context) -> Iterator[Tuple[int, float, List[float]]]:
    """``(level, start, interval ends)`` for levels 0..len(w) of the chain
    ``w``, in canonical order."""
    pos = 0.0
    prev = (0.0,) * kernel.alphabet.size
    for k in range(len(w) + 1):
        row = kernel.lower_bounds(w[len(w) - k:])
        ends = _level_ends(row, prev, pos)
        yield k, pos, ends
        pos, prev = ends[-1], row.lower


def interval_table(kernel: Kernel, w: Context, u_cap: float = 1.0) -> List[IntervalAssignment]:
    """Interval layout for the chain ``w``, stopping after the first level
    whose accumulated mass exceeds ``u_cap``.  Zero-width intervals are
    listed too."""
    out: List[IntervalAssignment] = []
    for k, pos, ends in _levels(kernel, w):
        if k and pos > u_cap:
            break
        for g, end in zip(kernel.alphabet.symbols, ends):
            out.append(IntervalAssignment(k, g, pos, end))
            pos = end
    return out


def phi(kernel: Kernel, u: float, s: Context) -> Optional[Symbol]:
    """The update value at context ``s``, or None when ``s`` is too short
    to determine it (``u`` at or above the accumulated context mass)."""
    if not 0.0 <= u < 1.0:
        raise ValueError("u must lie in [0, 1)")
    # the levels below the first one ending above u end at or below u, so
    # the first interval ending above u holds it
    for _, _, ends in _levels(kernel, s):
        for g, end in zip(kernel.alphabet.symbols, ends):
            if u < end:
                return g
    return None


def build_slice(kernel: Kernel, u: float, max_depth: int = DEFAULT_MAX_DEPTH) -> UpdateSlice:
    """Expand the minimal slice trie for draw ``u``.

    Depth-first from the root: a node whose accumulated mass exceeds ``u``
    becomes a leaf labeled with the update value; otherwise all children
    are expanded, and MaxDepthExceeded is raised when they would lie
    deeper than ``max_depth``.  Only the kernel's lower-bound rows are
    read, so every kernel family gets its slice the same way.  The slice's
    gap runs from the largest end compared at or below ``u`` to the
    smallest one compared above it (0 and 1 when there is none).
    """
    if not 0.0 <= u < 1.0:
        raise ValueError("u must lie in [0, 1)")
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    symbols = kernel.alphabet.symbols
    touches = reach = 0
    lo, hi = 0.0, 1.0
    leaves = {}
    # stack entries: (context, accumulated position, previous-level bounds)
    stack: List[Tuple[Context, float, Tuple[float, ...]]] = [((), 0.0, (0.0,) * len(symbols))]
    while stack:
        ctx, pos, prev = stack.pop()
        touches += 1
        reach = max(reach, len(ctx))
        row = kernel.lower_bounds(ctx)
        ends = _level_ends(row, prev, pos)
        level_end = ends[-1]
        if u < level_end:
            hi = min(hi, level_end)
            # u >= pos, so the first interval ending above u holds it
            for g, end in zip(symbols, ends):
                if u < end:
                    leaves[ctx] = g
                    hi = min(hi, end)
                    break
                lo = max(lo, end)
        else:
            lo = max(lo, level_end)
            if len(ctx) >= max_depth:
                raise MaxDepthExceeded(
                    f"slice for u={u!r} did not resolve within depth {max_depth}"
                )
            for g in symbols:
                stack.append(((g,) + ctx, level_end, row.lower))
    trie = prune_minimal(ContextTrie.from_leaves(kernel.alphabet, leaves))
    return UpdateSlice(u, trie, trie.depth(), touches, reach, (lo, hi))


# -- the slice table ---------------------------------------------------------

WalkStep = Tuple[int, int]
NodeGetter = Callable[[list], tuple]


@dataclass(frozen=True)
class SliceEntry:
    """The slice shared by every draw in one gap of a :class:`SliceTable`,
    compiled into a program that composes it onto a composite map.

    A slice leaf's *walk path* into the previous map is the index of its
    emitted symbol, then its context's symbol indices from newest to
    oldest.  The program fills a list of slots, slot 0 being the previous
    map's root, in three flat passes:

    * ``walk`` has one ``(parent slot, child index)`` step per distinct
      prefix of the walk paths, in slot order: step ``j`` fills slot
      ``j + 1`` with that child of the parent, or with the parent itself
      when it is a leaf;
    * ``grafts`` is the slot of each leaf's full path, the subtree the leaf
      grafts; a step's node touches (the slice's, then the nodes of the
      unpruned composition) are ``touch_base`` - the slice's touches plus
      its internal node count - plus the tree size of every graft;
    * ``nodes`` rebuilds the slice's internal nodes in post-order, each an
      ``operator.itemgetter`` of its children's slots; node ``i`` fills the
      slot after the prefixes and the nodes before it, so the last slot
      holds the new root.  (A one-symbol law resolves at the root, so every
      internal node has at least two children.)

    ``reach`` is the slice's :attr:`UpdateSlice.reach`, the depth of the
    deepest context the expansion visits before pruning: the sampler
    refuses the draw exactly when it exceeds ``max_depth``, as
    :func:`build_slice` does.

    ``memo`` maps ``id(map)`` of a map interned by the owning
    :class:`SliceTable` to ``(next interned map, node touches)``, what the
    program gave on it.  It is not an init field, so an entry made by
    ``dataclasses.replace`` starts with an empty memo of its own.
    """

    walk: Tuple[WalkStep, ...]
    grafts: Tuple[int, ...]
    nodes: Tuple[NodeGetter, ...]
    touch_base: int
    depth: int
    is_regeneration: bool
    reach: int
    memo: Dict[int, Tuple[tuple, int]] = field(
        default_factory=dict, init=False, compare=False, repr=False)


def _compile_entry(slice_: UpdateSlice, steps: Dict[WalkStep, WalkStep],
                   getters: Dict[Tuple[int, ...], NodeGetter]) -> SliceEntry:
    """The :class:`SliceEntry` of a slice built by :func:`build_slice`.

    Equal walk steps and node getters are kept once in ``steps`` and
    ``getters``, which the entries of one table share.
    """
    alphabet = slice_.trie.alphabet
    n = alphabet.size
    slot_of: Dict[WalkStep, int] = {}  # the slot each walk step fills
    walk: List[WalkStep] = []
    grafts: List[int] = []
    # children of each internal node: a walk slot, or ~i for internal node i
    nodes: List[List[int]] = []
    pending: List[int] = []
    # post-order, children in alphabet order
    stack = [(slice_.trie.root, (), False)]
    while stack:
        node, path, closing = stack.pop()
        if node.children is None:
            slot = 0
            for i in (alphabet.index(node.label),) + path:
                step = (slot, i)
                slot = slot_of.get(step)
                if slot is None:
                    slot = slot_of[step] = len(walk) + 1
                    walk.append(steps.setdefault(step, step))
            grafts.append(slot)
            pending.append(slot)
        elif closing:
            nodes.append(pending[-n:])
            del pending[-n:]
            pending.append(~(len(nodes) - 1))
        else:
            stack.append((node, path, True))
            for i in reversed(range(n)):
                stack.append((node.children[alphabet.symbols[i]], path + (i,), False))
    first = len(walk) + 1
    node_getters = []
    for kids in nodes:
        key = tuple(r if r >= 0 else first + ~r for r in kids)
        getter = getters.get(key)
        if getter is None:
            getter = getters[key] = itemgetter(*key)
        node_getters.append(getter)
    return SliceEntry(tuple(walk), tuple(grafts), tuple(node_getters),
                      slice_.node_touches + len(nodes), slice_.depth,
                      slice_.is_regeneration, slice_.reach)


class SliceTable:
    """The slices of a finite-order kernel, found by bisection.

    Gap ``i`` of the ones found so far, in ascending order, is
    ``[lows[i], highs[i])`` and its draws get ``entries[i]``.  A draw in no
    known gap is expanded by :func:`build_slice` at the kernel's order,
    where every draw resolves, and the gap it reports is compiled and
    inserted.  The gap of 0 is found first, so the last gap starting at or
    below a draw is its only candidate.  The kernel is held weakly: the
    table lives in ``kernel.slice_cache``, so a strong one would be a cycle.

    The table is also a memo of whole steps.  ``maps`` interns composite
    maps (shared-subtree root tuples, each its own key, so equal maps are
    one object) and ``starts`` holds the interned initial map of each
    window length that runs share.  :meth:`remember` stores a step from an
    interned map in the gap's :attr:`SliceEntry.memo`, keyed by the map's
    ``id``, which the interning dict keeps alive and unique.  A program's
    result depends only on the map's structure and the gap, so a stored
    transition gives exactly what the program would: the memo is exact.
    At most :data:`MEMO_CAP` transitions are stored, and each interns at
    most one new map, so the memo holds at most ``MEMO_CAP`` maps besides
    the initial ones: it is bounded.
    """

    def __init__(self, kernel: Kernel):
        if kernel.order is None:
            raise UnsupportedOperation("a slice table needs a finite-order kernel")
        self._kernel = ref(kernel)
        self._max_depth = max(kernel.order, 1)
        self.lows: List[float] = []
        self.highs: List[float] = []
        self.entries: List[SliceEntry] = []
        self._steps: Dict[WalkStep, WalkStep] = {}
        self._getters: Dict[Tuple[int, ...], NodeGetter] = {}
        self.maps: Dict[tuple, tuple] = {}
        self.starts: Dict[int, tuple] = {}
        self.transitions = 0
        self._add(0.0)

    def lookup(self, u: float) -> SliceEntry:
        """The entry of the gap holding the draw ``u`` (0 <= u < 1)."""
        i = bisect_right(self.lows, u) - 1
        if u < self.highs[i]:
            return self.entries[i]
        return self._add(u)

    def _add(self, u: float) -> SliceEntry:
        slice_ = build_slice(self._kernel(), u, self._max_depth)
        entry = _compile_entry(slice_, self._steps, self._getters)
        lo, hi = slice_.gap
        i = bisect_right(self.lows, lo)
        self.lows.insert(i, lo)
        self.highs.insert(i, hi)
        self.entries.insert(i, entry)
        return entry

    def start(self, length: int, initial: tuple) -> tuple:
        """Intern ``initial`` as the initial map runs of window length
        ``length`` start from, and return the interned map."""
        root = self.starts[length] = self.maps.setdefault(initial, initial)
        return root

    def remember(self, entry: SliceEntry, before: tuple, after: tuple,
                 touches: int) -> Optional[tuple]:
        """Store the step from the interned map ``before`` through
        ``entry``'s program, which gave ``after`` and ``touches``; returns
        the interned ``after``, or None once the memo is full."""
        if self.transitions >= MEMO_CAP:
            return None
        after = self.maps.setdefault(after, after)
        entry.memo[id(before)] = (after, touches)
        self.transitions += 1
        return after


def slice_table(kernel: Kernel) -> SliceTable:
    """The kernel's :class:`SliceTable`, built on first use and kept on the
    kernel object."""
    table = kernel.slice_cache
    if table is None:
        table = kernel.slice_cache = SliceTable(kernel)
    return table


@dataclass
class MeasureReport:
    """Result of checking the interval layout against the kernel law."""

    context: Context
    ok: bool
    max_mass_error: float
    coverage_error: float
    failures: List[str]


def verify_measure(kernel: Kernel, w: Context, tolerance: float = 1e-9) -> MeasureReport:
    """Check that, at a resolving chain ``w``, per-symbol interval mass
    telescopes to the conditional law, and that the intervals tile [0, 1)."""
    row = kernel.lower_bounds(w)
    failures: List[str] = []
    if not row.resolved:
        failures.append(f"context {w} does not resolve the kernel (mass {row.mass})")
        return MeasureReport(w, False, float("inf"), float("inf"), failures)

    table = interval_table(kernel, w, u_cap=1.0)
    totals = {g: 0.0 for g in kernel.alphabet.symbols}
    cursor = 0.0
    for iv in table:
        if iv.beta < iv.alpha - 1e-15:
            failures.append(f"inverted interval {iv}")
        if iv.alpha < cursor - 1e-15:
            failures.append(f"interval {iv} overlaps its predecessor (cursor {cursor!r})")
        cursor = iv.beta
        totals[iv.symbol] += iv.beta - iv.alpha
    coverage_error = abs(cursor - 1.0)
    if coverage_error > tolerance:
        failures.append(f"intervals cover [0, {cursor!r}) instead of [0, 1)")
    max_err = 0.0
    for i, g in enumerate(kernel.alphabet.symbols):
        err = abs(totals[g] - row.lower[i])
        if err > max_err:
            max_err = err
        if err > tolerance:
            failures.append(
                f"symbol {g!r}: interval mass {totals[g]!r} vs law {row.lower[i]!r}"
            )
    return MeasureReport(w, not failures, max_err, coverage_error, failures)
