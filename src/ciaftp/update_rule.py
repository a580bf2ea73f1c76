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
never disagrees between table construction, pointwise evaluation and slice
expansion.  The same helper closes every resolving level at exactly 1.0.

:func:`phi` evaluates one context pointwise: it scans the levels up to
the first interval end above ``u`` and stores nothing.  For a
finite-order kernel level ``order`` resolves and closes at 1.0, so the
scan stops there at the latest.  :func:`phi_contexts` applies the same
rule to every context of exactly ``order`` symbols at once, in
``itertools.product`` order, by bisection in each context's layout
(:func:`context_layouts`, built by the same helper), and reports the gap
between the layouts' ends that holds ``u``, where every draw gets the
same values: the extended baseline evaluates it once per gap, for every
gap when it is built (:class:`~ciaftp.engine.PwGaps`).  Building the
layouts refuses a kernel whose context of its order leaves some draw
unresolved, so the evaluation never meets one; the engine's slice tables
refuse such a kernel with the same message.

:func:`build_slice` expands the slice node by node from the kernel's
lower-bound rows alone, for finite and infinite memory alike, and builds
its minimal, complete :class:`UpdateSlice` trie in the same pass.  It also
reports the slice's reach (the depth of the deepest context it visits) and
its gap: every comparison it makes is ``u < e`` for an interval end ``e``,
so every draw between the nearest compared ends below and above ``u`` gets
the same slice.  It is the reference expansion: the engine's reference
step, and so the audit, and ``ciaftp inspect`` read its slices, while the
engine's slice tables expand their own by the same rule
(:class:`~ciaftp.engine.SliceTable`), so the audit compares two
expansions that share no code.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from .errors import InvariantViolation, MaxDepthExceeded
from .kernels import Distribution, Kernel, resolves
from .tries import Context, ContextTrie, Symbol, minimal_node

DEFAULT_MAX_DEPTH = 10_000
MEASURE_TOL = 1e-9  # verify_measure's bound on interval mass and coverage errors


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


def _level_ends(lower: Distribution, mass: float, prev: Tuple[float, ...],
                pos: float) -> List[float]:
    """Right ends of one level's intervals, in alphabet order, for a level
    with lower-bound row ``(lower, mass)`` that starts at ``pos``: symbol i
    gains ``lower[i] - prev[i]``.

    At a resolving level the last interval of nonzero width ends at exactly
    1.0, so the intervals tile [0, 1) whatever the rounding of the sums and
    every draw (``1 - 2**-53`` included) lands in one of them.
    """
    ends = []
    for low, before in zip(lower, prev):
        pos += low - before
        ends.append(pos)
    if pos != 1.0 and resolves(mass):
        last = len(ends) - 1
        while last > 0 and lower[last] == prev[last]:
            last -= 1
        ends[last:] = [1.0] * (len(ends) - last)
    return ends


def _levels(kernel: Kernel, w: Context) -> Iterator[Tuple[int, float, List[float]]]:
    """``(level, start, interval ends)`` for levels 0..len(w) of the chain
    ``w``, in canonical order; the rows come from
    :meth:`~ciaftp.kernels.Kernel.suffix_bounds`, at O(1) cost per level
    past a finite order and on the renewal kernel."""
    pos = 0.0
    prev = (0.0,) * kernel.alphabet.size
    for k, (lower, mass) in enumerate(kernel.suffix_bounds(w)):
        ends = _level_ends(lower, mass, prev, pos)
        yield k, pos, ends
        pos, prev = ends[-1], lower


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


def _layout(kernel: Kernel, w: Context) -> Tuple[float, ...]:
    """The running maximum of the chain ``w``'s interval ends, in canonical
    order: the position of the first end above ``u`` is that of the
    interval holding ``u``'s update value."""
    ends, top = [], 0.0
    for _, _, level_ends in _levels(kernel, w):
        for end in level_ends:
            top = max(top, end)
            ends.append(top)
    return tuple(ends)


def phi(kernel: Kernel, u: float, s: Context) -> Optional[Symbol]:
    """The update value at context ``s``, or None when ``s`` is too short
    to determine it (``u`` at or above the accumulated context mass)."""
    if not 0.0 <= u < 1.0:
        raise ValueError("u must lie in [0, 1)")
    # the levels below the first one ending above u end at or below u, so
    # the first interval ending above u holds it; a finite order's level
    # closes at exactly 1.0, so no draw reads a deeper level
    for _, _, ends in _levels(kernel, s):
        for g, end in zip(kernel.alphabet.symbols, ends):
            if u < end:
                return g
    return None


def context_layouts(kernel: Kernel) -> Tuple[tuple, ...]:
    """The layouts of a finite-order kernel's contexts of exactly ``order``
    symbols, in ``itertools.product`` order, with each interval's symbol
    number in place of its symbol, as one tuple of |G|^order entries: a
    bisection in an entry's running maximum finds the first interval end
    above a draw, as ``phi``'s scan does.  Nothing is stored; the extended
    baseline keeps the tuple (:class:`~ciaftp.engine.PwGaps`).

    A layout whose running maximum ends below 1.0 leaves the draws above
    its end unresolved at a context of the full order, which a kernel of
    that order must resolve: the first such context raises
    InvariantViolation (:func:`unresolved_message`)."""
    order = kernel.order
    # every layout has order + 1 levels of |G| intervals, so one tuple of
    # answers serves them all
    answers = tuple(range(kernel.alphabet.size)) * (order + 1)
    entries = []
    for key in itertools.product(kernel.alphabet.symbols, repeat=order):
        ends = _layout(kernel, key)
        if ends[-1] < 1.0:
            raise InvariantViolation(unresolved_message(order, ends[-1], key))
        entries.append((ends, answers))
    return tuple(entries)


def unresolved_message(order: int, end: float, ctx: Context) -> str:
    """The message of the InvariantViolation that refuses a kernel whose
    context ``ctx`` of its order leaves the draws from ``end`` on
    unresolved."""
    return (f"order-{order} kernel leaves the draws from {end!r} on unresolved"
            f" at depth-{order} context {ctx}")


def phi_contexts(layouts: Tuple[tuple, ...],
                 u: float) -> Tuple[List[int], Tuple[float, float]]:
    """:func:`phi`'s rule at each context of :func:`context_layouts`, in
    its order: the number of the update value, never None, as every
    layout ends at 1.0; and the gap ``[lo, hi)`` of the draws that get the
    same numbers.  In each layout ``u`` lies between the end below its
    bisection point (0 when there is none) and the end at it; every draw
    between the largest of the lower ends and the smallest of the upper
    ones bisects to the same point in every layout."""
    values = []
    lo, hi = 0.0, 1.0
    for ends, answers in layouts:
        i = bisect_right(ends, u)
        values.append(answers[i])
        if i and ends[i - 1] > lo:
            lo = ends[i - 1]
        if ends[i] < hi:
            hi = ends[i]
    return values, (lo, hi)


def depth_message(u: float, max_depth: int) -> str:
    """The message of the MaxDepthExceeded that refuses the draw ``u``."""
    return f"slice for u={u!r} did not resolve within depth {max_depth}"


def build_slice(kernel: Kernel, u: float, max_depth: int = DEFAULT_MAX_DEPTH) -> UpdateSlice:
    """Expand the minimal slice trie for draw ``u``.

    Depth-first from the root, children in alphabet order: a node whose
    accumulated mass exceeds ``u`` becomes a leaf labeled with the update
    value; otherwise all children are expanded, and MaxDepthExceeded is
    raised when they would lie deeper than ``max_depth``.  An expanded node
    is built when its closing frame pops, from its |G| children, by
    :func:`~ciaftp.tries.minimal_node`.  Only the kernel's lower-bound rows
    are read, so every kernel family gets its slice the same way.  The
    slice's gap runs from the largest end compared at or below ``u`` to
    the smallest one compared above it (0 and 1 when there is none).
    """
    if not 0.0 <= u < 1.0:
        raise ValueError("u must lie in [0, 1)")
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    symbols = kernel.alphabet.symbols
    n = len(symbols)
    touches = reach = 0
    lo, hi = 0.0, 1.0
    done: List[tuple] = []  # built nodes whose parent is not built yet
    # stack entries: (context, accumulated position, previous-level bounds),
    # or None, which builds a node from the last n nodes done
    stack: list = [((), 0.0, (0.0,) * n)]
    while stack:
        frame = stack.pop()
        if frame is None:
            done[-n:] = [minimal_node(tuple(done[-n:]))]
            continue
        ctx, pos, prev = frame
        touches += 1
        reach = max(reach, len(ctx))
        row = kernel.lower_bounds(ctx)
        ends = _level_ends(row.lower, row.mass, prev, pos)
        level_end = ends[-1]
        if u < level_end:
            hi = min(hi, level_end)
            # u >= pos, so the first interval ending above u holds it
            for g, end in zip(symbols, ends):
                if u < end:
                    done.append((1, None, g))
                    hi = min(hi, end)
                    break
                lo = max(lo, end)
        else:
            lo = max(lo, level_end)
            if len(ctx) >= max_depth:
                raise MaxDepthExceeded(depth_message(u, max_depth))
            stack.append(None)
            for g in reversed(symbols):
                stack.append(((g,) + ctx, level_end, row.lower))
    trie = ContextTrie(kernel.alphabet, done[0])
    return UpdateSlice(u, trie, trie.depth(), touches, reach, (lo, hi))


@dataclass
class MeasureReport:
    """Result of checking the interval layout against the kernel law."""

    context: Context
    ok: bool
    max_mass_error: float
    coverage_error: float
    failures: List[str]


def verify_measure(kernel: Kernel, w: Context) -> MeasureReport:
    """Check that, at a resolving chain ``w``, per-symbol interval mass
    telescopes to the conditional law, and that the intervals tile [0, 1),
    both within :data:`MEASURE_TOL`."""
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
    if coverage_error > MEASURE_TOL:
        failures.append(f"intervals cover [0, {cursor!r}) instead of [0, 1)")
    max_err = 0.0
    for i, g in enumerate(kernel.alphabet.symbols):
        err = abs(totals[g] - row.lower[i])
        if err > max_err:
            max_err = err
        if err > MEASURE_TOL:
            failures.append(
                f"symbol {g!r}: interval mass {totals[g]!r} vs law {row.lower[i]!r}"
            )
    return MeasureReport(w, not failures, max_err, coverage_error, failures)
