"""The backward-coupling sampling loop and its diagnostics.

Each backward step consumes one uniform draw: the draw's slice tells which
context suffices to determine the new symbol, and the composite map built
so far is looked up one symbol deeper.  The run stops when the composite
map is constant, at which point its single label is an exact stationary
sample.

One loop, :func:`_backward`, owns everything that does not depend on how
the composite map is stored: the depth, iteration and node budgets, the
diagnostics, the per-iteration trace records, the regeneration times and
the wall time.  Each kernel family has one representation of the
composite map, which only advances by one draw and reports its work, the
slice's depth and reach, its size and its sample, and is coalesced exactly
when its value is constant, at the start as after each draw.  The first
two are built from the same immutable nodes:

* :class:`_SharedMap` - finite-order kernels.  The minimal labeled trie
  as shared subtrees, whose leaf labels are full length-L windows.  A step
  finds the draw's gap in the kernel's :class:`SliceTable` by bisection
  and runs the gap's program (:class:`SliceEntry`, :func:`_compose`): walk
  each distinct prefix of the slice leaves' paths into the previous map
  once, graft the subtrees reached by reference and rebuild only the
  slice's internal nodes.  So a step costs O(slice size), not O(state
  size).  A program is interpreted by three flat loops until its
  :data:`COMPILE_AFTER`-th run, which compiles it into one Python function
  of the map, built from integers only, whose walk branches on leaves: a
  parent that is a leaf fills every graft below it at once.  On order6 a
  compiled run costs about a third of an interpreted one.  Few distinct
  maps occur, so the table is also an exact memo of whole steps, which
  interns at most :data:`MEMO_CAP` maps: a step that repeats a stored
  (map, gap) transition is a dict lookup;
* :class:`_CombMap` - the renewal kernel, at every window length.  Its
  slices are combs whose depth has no finite mean, so the map is kept as
  run-length-compressed side subtrees along the all-ones spine.  A step
  finds the slice depth by one bisection in the kernel's cached table of
  spine masses, then costs O(number of runs), whatever the depth;
* :class:`_TableMap` - the full depth-d table of an order-d chain, the
  classical baseline behind :func:`pw_extended`; it evaluates ``phi``
  pointwise, one bisection in a cached interval layout per history, and
  shares no slice code with the other two.

Runs of one kernel share the start of each window length, whatever its
size, in one place: the kernel's own cache, ``kernel.slice_cache``.

:func:`step` is the validated reference: it composes through
:func:`~ciaftp.update_rule.build_slice`, ``ContextTrie.from_leaves`` and
``prune_minimal``.  Its slices are expanded from the kernel's lower-bound
rows for every family, the renewal kernel included, so the comb's
closed-form slice depth is checked against the law.  Under
``run(on_iteration=...)`` it is advanced beside the family's map
(:class:`_AuditedMap`), which raises InvariantViolation on any step where
they differ and hands the reference tries of each step to the hook.
:func:`run` picks the family's map with :func:`_composite_map`, and
:func:`run_many` is the batch driver for every command.
"""

from __future__ import annotations

import itertools
import os
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from types import CodeType, FunctionType
from typing import Callable, Dict, List, Optional, Tuple
from weakref import ref

import numpy as np

from .errors import (
    InvariantViolation,
    IterationLimitExceeded,
    MaxDepthExceeded,
    NodeBudgetExceeded,
    UnsupportedOperation,
)
from .kernels import Kernel, RenewalSqrtKernel, check_enumeration
from .tries import Alphabet, Context, ContextTrie, complete_trie, prune_minimal
from .update_rule import DEFAULT_MAX_DEPTH, UpdateSlice, build_slice, phi

DEFAULT_MAX_ITER = 10**6
DEFAULT_MAX_NODES = 10**7

RNG_ALGORITHM = "pcg64"


class RngStream:
    """A seeded, portable uniform stream ([0, 1) doubles).

    The generator is always :data:`RNG_ALGORITHM`; an identical seed gives
    an identical draw sequence on every platform.  Independent runs derive
    their seeds as base + run index.

    Draws are served from blocks of ``Generator.random(k)``, which gives
    the same doubles as k scalar calls.  The first block, of 8 draws, is
    drawn by the first :meth:`uniform` call, and each later one is twice as
    large, up to 1024 draws: a short run draws few doubles it does not use,
    and a long one makes few generator calls.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._gen = np.random.Generator(np.random.PCG64(seed))
        self._block: List[float] = []
        self._pos = 0

    def uniform(self) -> float:
        pos = self._pos
        block = self._block
        if pos == len(block):
            size = min(2 * len(block), 1024) if block else 8
            block = self._block = self._gen.random(size).tolist()
            pos = 0
        self._pos = pos + 1
        return block[pos]


@dataclass
class IterationRecord:
    t: int
    leaf_count: int
    depth: int
    node_touches: int


@dataclass
class RunDiagnostics:
    tau: Optional[int]
    iterations: int
    node_touches: int
    max_slice_depth: int
    regeneration_times: List[int] = field(default_factory=list)
    records: Optional[List[IterationRecord]] = None
    seed: Optional[int] = None
    wall_ns: int = 0


@dataclass
class RunResult:
    sample: Context
    diagnostics: RunDiagnostics


def init_state(alphabet: Alphabet, length: int) -> ContextTrie:
    """The initial composite map: the complete depth-L trie with every leaf
    labeled by its own window."""
    if length < 1:
        raise ValueError("window length must be >= 1")
    return complete_trie(alphabet, length, label_fn=lambda s: s)


def step(
    kernel: Kernel,
    state: ContextTrie,
    u: float,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> Tuple[ContextTrie, UpdateSlice, ContextTrie]:
    """One backward iteration; returns (new state, slice, unpruned trie).

    The unpruned trie is rebuilt through the validating constructor, so the
    claim that it is a complete suffix dictionary is re-checked on every
    step.
    """
    slice_ = build_slice(kernel, u, max_depth)
    e_leaves: Dict[Context, Context] = {}
    for s, g in slice_.trie.leaves():
        target = s + (g,)
        hit = state.find_suffix(target)
        if hit is not None:
            e_leaves[s] = hit[1]
        else:
            # the previous dictionary needs older symbols: pull in its
            # subtree below `target`, one leaf per required extension
            node = state.node_at(target)
            stack = [(node, ())]
            while stack:
                nd, ext = stack.pop()
                if nd.children is None:
                    e_leaves[ext + s] = nd.label
                else:
                    for sym, child in nd.children.items():
                        stack.append((child, (sym,) + ext))
    e_trie = ContextTrie.from_leaves(kernel.alphabet, e_leaves)
    return prune_minimal(e_trie), slice_, e_trie


@dataclass
class StepAudit:
    """Per-iteration view handed to run(on_iteration=...)."""

    t: int
    slice_: UpdateSlice
    unpruned: ContextTrie
    state: ContextTrie


# -- the backward loop ------------------------------------------------------


def _backward(
    rep,
    rng: RngStream,
    max_depth: int,
    max_iter: int,
    max_nodes: int,
    trace: bool,
    start_ns: int,
) -> RunResult:
    """Compose draws backward in time until ``rep`` is constant.

    ``rep`` holds the composite map: ``coalesced`` says whether its value
    is constant, ``advance(u)`` composes one more draw and returns (node
    touches, slice depth, regenerated, reach), ``size()`` gives (leaf
    count, depth) for the trace records and ``sample()`` the constant
    value.  This loop alone checks the three budgets: a draw whose reach
    (the depth of the deepest context its slice's expansion visits) exceeds
    ``max_depth`` raises MaxDepthExceeded, as in
    :func:`~ciaftp.update_rule.build_slice`, before the step is counted.
    A budget error leaves the loop as its (class, message) and is raised
    after it with the diagnostics and tau None.  No local holds the raised
    error: its traceback holds this frame, and the cycle would keep the
    failed run's map alive until the cyclic collector runs.
    """
    t = touches = max_slice_depth = 0
    regen: List[int] = []
    records: Optional[List[IterationRecord]] = [] if trace else None
    advance = rep.advance
    uniform = rng.uniform
    error: Optional[Tuple[type, str]] = None
    while not rep.coalesced:
        if -t >= max_iter:
            error = IterationLimitExceeded, f"no coalescence within {max_iter} iterations"
            break
        u = uniform()
        t -= 1
        step_touches, slice_depth, regenerated, reach = advance(u)
        if reach > max_depth:
            error = MaxDepthExceeded, f"slice for u={u!r} did not resolve within depth {max_depth}"
            break
        if slice_depth > max_slice_depth:
            max_slice_depth = slice_depth
        if regenerated:
            regen.append(t)
        touches += step_touches
        if touches > max_nodes:
            error = NodeBudgetExceeded, f"node budget {max_nodes} exhausted at t={t}"
            break
        if records is not None:
            records.append(IterationRecord(t, *rep.size(), step_touches))
    diagnostics = RunDiagnostics(None if error else t, -t, touches, max_slice_depth, regen,
                                 records, rng.seed, time.perf_counter_ns() - start_ns)
    if error is not None:
        raise error[0](error[1], diagnostics)
    return RunResult(rep.sample(), diagnostics)


# Nodes of the composite map.  A leaf is ``(None, 1, label)`` and an
# internal node ``(children, tree size)``, with children in alphabet order;
# the size memo makes the node touches O(1).  Every internal node has |G|
# children, so a tree of size n has ((|G| - 1) * n + 1) / |G| leaves and
# needs no leaf count of its own; its depth is not stored either, and only
# the trace records and the audit, which read it, walk for it (_depth), once
# per map the slice table interns (SliceTable.depths).  A node is never
# changed once built, so a step grafts the previous map's subtrees by
# reference.  Each label has one leaf object: the initial map creates every
# leaf and later steps only graft them, so a node whose children are all
# the same leaf object becomes that leaf - the rule of tries.prune_minimal.
# Grafted subtrees come from a minimal map, so only the nodes a step
# rebuilds need the rule.  (The initial map is built reduced too; it
# differs from the complete trie only for a one-symbol alphabet, whose
# chain of L nodes is one leaf here: that map is constant before any draw.)


def _node(kids: tuple) -> tuple:
    first = kids[0]
    if first[0] is None and kids.count(first) == len(kids):
        return first
    size = 1
    for k in kids:
        size += k[1]
    return (kids, size)


def _depth(root: tuple) -> int:
    """The depth of a shared-subtree map, one level at a time, each distinct
    internal node of a level once."""
    depth = 0
    level = [] if root[0] is None else [root]
    while level:
        depth += 1
        level = list({id(k): k for node in level for k in node[0] if k[0] is not None}.values())
    return depth


def _initial_map(symbols: Tuple[str, ...], length: int) -> tuple:
    """The complete depth-L trie with leaf w labeled w.  Its nodes are
    immutable, so the runs of one kernel share it through the kernel's
    cache."""
    if length < 1:
        raise ValueError("window length must be >= 1")
    check_enumeration(len(symbols), length, f"windows of length {length}")
    # built from the leaves up; each level lists its contexts in
    # itertools.product order, so the children (g,) + c of context c sit
    # one stride apart
    level = [(None, 1, w) for w in itertools.product(symbols, repeat=length)]
    for k in range(length - 1, -1, -1):
        stride = len(symbols) ** k
        level = [_node(tuple(level[j::stride])) for j in range(stride)]
    return level[0]


def _map_leaves(root: tuple, symbols: Tuple[str, ...]) -> Dict[Context, Context]:
    """``{context: label}`` of a shared-subtree map, like ContextTrie.leaves."""
    out: Dict[Context, Context] = {}
    stack = [(root, ())]
    while stack:
        node, ctx = stack.pop()
        if node[0] is None:
            out[ctx] = node[2]
        else:
            for g, child in zip(symbols, node[0]):
                stack.append((child, (g,) + ctx))
    return out


def _window(leaf: tuple, length: int) -> Context:
    """The label of the coalesced map's leaf, checked to be a window."""
    sample = leaf[2]
    if len(sample) != length:
        raise InvariantViolation(f"coalesced label {sample} is not a length-{length} window")
    return sample


# -- the slice table ---------------------------------------------------------

# The most maps a SliceTable interns for its step memo; see SliceTable.
MEMO_CAP = 256
# The program run at which _compose compiles a gap's program; see _compose.
COMPILE_AFTER = 300

WalkStep = Tuple[int, int]
NodeGetter = Callable[[list], tuple]
Program = Callable[[tuple], Tuple[tuple, int]]


@dataclass
class SliceEntry:
    """The slice shared by every draw in one gap of a :class:`SliceTable`,
    compiled into a program that :func:`_compose` runs on a composite map.

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

    A slice regenerates exactly when its ``depth`` is 0.  ``reach`` is the
    slice's :attr:`~ciaftp.update_rule.UpdateSlice.reach`: :func:`_backward`
    refuses the draw exactly when it exceeds ``max_depth``, as
    :func:`~ciaftp.update_rule.build_slice` does.

    Three fields are not init fields, so an entry made by
    ``dataclasses.replace`` starts with none of the original's: ``memo``
    holds the table's stored transitions through this gap, at most one per
    interned map, keyed by the map's ``id``; ``runs`` counts the program's
    interpreted runs (memo hits excluded), and ``program`` is the program
    compiled into one function (:func:`_compile_program`), which
    :func:`_compose` builds at run :data:`COMPILE_AFTER`.  Compiled, an
    order6 program costs about 13.8 KB (tracemalloc, CPython 3.11), so its
    65 gaps' programs about 0.90 MB.
    """

    walk: Tuple[WalkStep, ...]
    grafts: Tuple[int, ...]
    nodes: Tuple[NodeGetter, ...]
    touch_base: int
    depth: int
    reach: int
    memo: Dict[int, Tuple[tuple, int]] = field(
        default_factory=dict, init=False, compare=False, repr=False)
    runs: int = field(default=0, init=False, compare=False, repr=False)
    program: Optional[Program] = field(default=None, init=False, compare=False, repr=False)


def _compile_entry(slice_: UpdateSlice, steps: Dict[WalkStep, WalkStep],
                   getters: Dict[Tuple[int, ...], NodeGetter]) -> SliceEntry:
    """The :class:`SliceEntry` of a slice built by
    :func:`~ciaftp.update_rule.build_slice`.

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
                      slice_.node_touches + len(nodes), slice_.depth, slice_.reach)


class SliceTable:
    """The slices of a finite-order kernel, found by bisection, and the
    memo of the steps composed with them.

    Gap ``i`` of the ones found so far, in ascending order, is
    ``[lows[i], highs[i])`` and its draws get ``entries[i]``.  A draw in no
    known gap is expanded by :func:`~ciaftp.update_rule.build_slice` at the
    kernel's order, where every draw resolves, and the gap it reports is
    compiled and inserted.  The gap of 0 is found first, so the last gap
    starting at or below a draw is its only candidate.  The kernel is held
    weakly: the table lives in ``kernel.slice_cache``, so a strong one
    would be a cycle.  Nothing else points back at the table either: the
    entries' compiled programs share one globals dict and hold no cycle,
    so dropping the kernel frees them at once.

    The table is also a memo of whole steps, which :class:`_SharedMap`
    reads and fills.  A composite map is a function on contexts of depth
    max(order, L), so only finitely many occur, and few in practice.
    ``maps`` interns them (shared-subtree root tuples, each its own key,
    so equal maps are one object) and ``starts`` holds the interned
    initial map that every run of a window length starts from.  Every
    step looks its map's ``id`` up in the gap's :attr:`SliceEntry.memo`;
    a miss runs the program, and while ``maps`` holds fewer than
    :data:`MEMO_CAP` maps (starts included) its result is interned and
    stored there as ``(next interned map, node touches)``.  A program's
    result depends only on the map's structure and the gap, so a stored
    transition gives exactly what the program would: the memo is exact.
    ``maps`` only grows, so while it has room every map a run holds is
    interned and kept alive by it; once it is full, a map a run composes
    is not interned, its ``id`` is no key (keys are ids of live interned
    maps) and its steps miss and store nothing.  So the memo holds at most
    ``MEMO_CAP`` maps plus one start for each window length, and at most
    one transition per (map, gap).  ``depths`` holds the depth of each
    interned map that a traced or audited run has sized
    (:meth:`_SharedMap.size`), keyed by its ``id`` like the memo: a map
    that is not interned is walked each time.  Over seeds 0..2999
    (``scripts/memo_traffic.py``): desk_vlmc at L=3 takes 120 transitions
    between 38 maps and the memo answers 99.3% of its steps; order2 at
    L=3 stores 687 transitions on 256 maps (76.3%); order6 at L=1 stores
    262 (1.0%), and its maps cost about 2.0 KB each (tracemalloc, CPython
    3.11), so the cap holds about 0.51 MB there.
    """

    def __init__(self, kernel: Kernel):
        if kernel.order is None:
            raise UnsupportedOperation("a slice table needs a finite-order kernel")
        self._kernel = ref(kernel)
        self._max_depth = max(kernel.order, 1)
        self.arity = kernel.alphabet.size
        self.lows: List[float] = []
        self.highs: List[float] = []
        self.entries: List[SliceEntry] = []
        self._steps: Dict[WalkStep, WalkStep] = {}
        self._getters: Dict[Tuple[int, ...], NodeGetter] = {}
        self.maps: Dict[tuple, tuple] = {}
        self.starts: Dict[int, tuple] = {}
        self.depths: Dict[int, int] = {}
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

    def compile_all(self) -> None:
        """Find every gap, from 0 up, and compile each program that is not
        compiled yet, so that every later program run is a compiled one
        (``scripts/run_outcomes.py`` diffs those runs against interpreted
        ones)."""
        u = 0.0
        while u < 1.0:
            entry = self.lookup(u)
            if entry.program is None:
                entry.program = _compile_program(entry, self.arity)
            u = self.highs[bisect_right(self.lows, u) - 1]


def slice_table(kernel: Kernel) -> SliceTable:
    """The kernel's :class:`SliceTable`, built on first use and kept on the
    kernel object; an infinite-memory kernel has none, whatever its cache
    holds."""
    table = kernel.slice_cache
    if not isinstance(table, SliceTable):
        table = kernel.slice_cache = SliceTable(kernel)
    return table


def _compose(root: tuple, entry: SliceEntry, arity: int) -> Tuple[tuple, int]:
    """Run ``entry``'s program on the map ``root``; returns (new map, node
    touches).

    A program's first ``COMPILE_AFTER - 1`` runs interpret it
    (:func:`_interpret`).  Run ``COMPILE_AFTER`` compiles it into one
    function (:func:`_compile_program`), which gives the same map and
    touches and runs from then on.  On order6 at L=1 (2 vCPU, CPython
    3.11, median over its 65 programs and 8945 recorded steps) a compile
    costs about 2.3 ms and a compiled run about 3.5 us against the
    interpreter's 10.8 us, so it pays back after about 315 runs, close to
    ``COMPILE_AFTER`` = 300: only the gaps a kernel keeps drawing are
    compiled, and a few warm-up runs compile nothing.
    """
    program = entry.program
    if program is None:
        runs = entry.runs = entry.runs + 1
        if runs < COMPILE_AFTER:
            return _interpret(root, entry, arity)
        program = entry.program = _compile_program(entry, arity)
    return program(root)


def _interpret(root: tuple, entry: SliceEntry, arity: int) -> Tuple[tuple, int]:
    """``entry``'s program run by three flat loops over a list of slots: the
    walk steps fill a slot for every distinct prefix of the slice leaves'
    paths into ``root``, the grafts' tree sizes add up to the node touches,
    and the getters rebuild the slice's internal nodes above the grafts, in
    post-order, with the collapse rule of :func:`_node`."""
    slots = [root]
    append = slots.append
    for parent, child in entry.walk:
        node = slots[parent]
        kids = node[0]
        append(node if kids is None else kids[child])
    touches = entry.touch_base
    for graft in entry.grafts:
        touches += slots[graft][1]
    for get in entry.nodes:
        # _node, inlined
        kids = get(slots)
        first = kids[0]
        if first[0] is None and kids.count(first) == arity:
            append(first)
            continue
        size = 1
        for k in kids:
            size += k[1]
        append((kids, size))
    return slots[-1], touches


# CPython's tokenizer refuses a line indented this many levels: a limit of
# the language, which _program_source keeps below, not a setting.
_INDENT_LIMIT = 100


def _program_source(entry: SliceEntry, arity: int) -> str:
    """``entry``'s program as the source of one function of the map ``s0``,
    whose locals are the slots (slot ``i`` is ``s<i>``).

    The walk is emitted as nested branches.  Each parent slot's children
    are read once, into ``k``: if the parent is a leaf, every graft slot
    below it is set to that leaf in one chained assignment and nothing
    under it is unpacked (only the nodes and the return read slots, and
    they read grafts alone); otherwise ``k`` is unpacked into the children,
    ``_`` naming the ones no step takes, and each child that is a parent is
    emitted the same way, one indentation level deeper.  CPython refuses a
    line indented :data:`_INDENT_LIMIT` levels, so a subtree at the last
    allowed level is emitted flat, one unpack per parent in which a leaf
    stands for each of its children.  On order6 at L=1 a step fills about
    84 walk slots, 71% of them below a leaf, so most of the walk is chained
    assignments; against a walk of flat unpacks only, the branches make a
    run about 1.35 times as fast, a compile about 1.4 times as slow and the
    function about 1.2 times as large (see :func:`_compose` and
    :class:`SliceEntry`).

    After the walk, each internal node is one conditional expression with
    the collapse rule of :func:`_node` (one leaf object per label, so equal
    leaves are the same object); the return adds the grafts' tree sizes to
    ``touch_base``.  Only integers reach the source: slot and child
    indices, the arity and ``touch_base``.
    """
    taken: Dict[int, Dict[int, int]] = {}
    # the graft slots of each walk slot's subtree; a child's slot is larger
    # than its parent's, so one backward pass collects them
    below: Dict[int, List[int]] = {int(g): [int(g)] for g in entry.grafts}
    for slot in range(len(entry.walk), 0, -1):
        parent, child = map(int, entry.walk[slot - 1])
        taken.setdefault(parent, {})[child] = slot
        below.setdefault(parent, []).extend(below[slot])

    lines = ["def program(s0):"]
    # (parent slot, indentation level), popped in the order of the lines
    stack = [(0, 1)]
    while stack:
        parent, level = stack.pop()
        pad = " " * level
        children = taken[parent]
        names = "".join(f"s{children[i]}, " if i in children else "_, " for i in range(arity))
        if level + 1 < _INDENT_LIMIT:
            lines.append(f"{pad}k = s{parent}[0]")
            lines.append(f"{pad}if k is None: {' = '.join(f's{g}' for g in below[parent])}"
                         f" = s{parent}")
            lines.append(f"{pad}else:")
            lines.append(f"{pad} {names}= k")
            level += 1
        else:
            lines.append(f"{pad}{names}= s{parent}[0] or ({f's{parent}, ' * arity})")
        stack.extend((children[i], level) for i in sorted(children, reverse=True)
                     if children[i] in taken)
    first = len(entry.walk) + 1
    slots = range(first + len(entry.nodes))
    for i, get in enumerate(entry.nodes):
        # a getter applied to the slot numbers picks its children's slots
        kids = [f"s{slot}" for slot in get(slots)]
        lines.append(f" s{first + i} = {kids[0]} if {' is '.join(kids)} and {kids[0]}[0] is None"
                     f" else (({', '.join(kids)}), {' + '.join(k + '[1]' for k in kids)} + 1)")
    touches = " + ".join([str(int(entry.touch_base))] + [f"s{int(g)}[1]" for g in entry.grafts])
    lines.append(f" return s{slots[-1]}, {touches}")
    return "\n".join(lines) + "\n"


# The globals of every compiled program: it reads none, so none are offered.
# One dict for all of them, so a program and its namespace make no cycle.
_PROGRAM_GLOBALS: dict = {"__builtins__": {}}


def _compile_program(entry: SliceEntry, arity: int) -> Program:
    """``entry``'s program compiled into one function (see
    :func:`_program_source`), built from its code object on the shared
    :data:`_PROGRAM_GLOBALS`."""
    module = compile(_program_source(entry, arity), "<slice program>", "exec")
    code = next(c for c in module.co_consts if isinstance(c, CodeType))
    return FunctionType(code, _PROGRAM_GLOBALS)


class _SharedMap:
    """The composite map of a finite-order kernel, as shared subtrees.

    A step looks the draw's :class:`SliceEntry` up in the kernel's
    :class:`SliceTable` and reads the step from the entry's memo, or, on a
    miss, composes it onto the map with the entry's program
    (:func:`_compose`) and stores it while the table's ``maps`` has room.
    Node touches count what :func:`step` counts: the slice's touches plus
    the nodes of the unpruned composition.
    """

    __slots__ = ("length", "arity", "lookup", "maps", "depths", "root", "coalesced")

    def __init__(self, kernel: Kernel, length: int):
        self.length = length
        self.arity = kernel.alphabet.size
        table = slice_table(kernel)
        self.lookup = table.lookup
        self.maps = maps = table.maps
        self.depths = table.depths
        root = table.starts.get(length)
        if root is None:
            root = _initial_map(kernel.alphabet.symbols, length)
            root = table.starts[length] = maps.setdefault(root, root)
        self.root = root
        self.coalesced = root[0] is None

    def advance(self, u: float) -> Tuple[int, int, bool, int]:
        entry = self.lookup(u)
        root = self.root
        hit = entry.memo.get(id(root))
        if hit is not None:
            root, touches = hit
        else:
            new, touches = _compose(root, entry, self.arity)
            maps = self.maps
            if len(maps) < MEMO_CAP:
                new = maps.setdefault(new, new)
                entry.memo[id(root)] = (new, touches)
            root = new
        self.root = root
        self.coalesced = root[0] is None
        return touches, entry.depth, not entry.depth, entry.reach

    def size(self) -> Tuple[int, int]:
        root, arity = self.root, self.arity
        depth = self.depths.get(id(root))
        if depth is None:
            depth = _depth(root)
            if self.maps.get(root) is root:
                self.depths[id(root)] = depth
        return ((arity - 1) * root[1] + 1) // arity, depth

    def sample(self) -> Context:
        return _window(self.root, self.length)


# Every map of the renewal kernel is a comb: side subtrees at the paths
# 1^j 0, j < D, and a leaf at 1^D.  A depth-m renewal slice is a comb whose
# leaf 0 1^j grafts the node at path 1^(j+1) 0 and whose spine leaf grafts
# the node at 0 1^m, so the new map is a comb again: new side j is old side
# j+1 (the old spine past the old end); below them hangs old side 0 followed
# m steps along its ones, whose own sides (only in the first L-1 steps is it
# internal) continue the comb down to its leaf; trailing sides that are that
# leaf are absorbed into it.  Sides are kept as runs of one node object, so
# a step costs O(number of runs), whatever the slice depth.


class _CombMap:
    """The composite map of the renewal kernel, at every window length.

    A step costs one bisection, in ``kernel.slice_depth``'s cached table
    of spine masses, plus O(number of runs) to compose the comb.  Runs
    share their start ``(runs, spine)``, kept per window length in
    ``kernel.slice_cache``: :meth:`advance` never changes a run list."""

    __slots__ = ("length", "slice_depth", "runs", "spine", "coalesced")

    def __init__(self, kernel: RenewalSqrtKernel, length: int):
        self.length = length
        self.slice_depth = kernel.slice_depth
        starts = kernel.slice_cache
        if starts is None:
            starts = kernel.slice_cache = {}
        start = starts.get(length)
        if start is None:
            # (side node, count) from the root down: count spine levels
            # whose 0-child is that node
            runs: List[Tuple[tuple, int]] = []
            node = _initial_map(kernel.alphabet.symbols, length)
            while node[0] is not None:
                side, node = node[0]
                runs.append((side, 1))
            start = starts[length] = (runs, node)
        self.runs, self.spine = start
        self.coalesced = not self.runs

    def advance(self, u: float) -> Tuple[int, int, bool, int]:
        # the slice visits the spine down to depth m: its reach is m
        m = self.slice_depth(u)
        runs = self.runs
        head, head_count = runs[0]
        shifted = runs[1:] if head_count == 1 else [(head, head_count - 1)] + runs[1:]
        # the slice's 2m+1 touches and 2m+1 nodes, then the grafts
        touches = 4 * m + 2
        new_runs = []
        need = m
        for side, count in shifted:
            take = count if count < need else need
            new_runs.append((side, take))
            touches += take * (side[1] - 1)
            need -= take
            if not need:
                break
        else:
            new_runs.append((self.spine, need))
        node = head
        if node[0] is not None:
            for _ in range(m):
                if node[0] is None:
                    break
                node = node[0][1]
            touches += node[1] - 1
            while node[0] is not None:
                side, node = node[0]
                new_runs.append((side, 1))
        while new_runs and new_runs[-1][0] is node:
            new_runs.pop()
        self.runs, self.spine = new_runs, node
        self.coalesced = not new_runs
        return touches, m, False, m

    def size(self) -> Tuple[int, int]:
        # a spine level is one node plus its side; the spine leaf lies where
        # the last run ends, and that run's side reaches at least as deep
        size, depth, end = 1, 0, 0
        for side, count in self.runs:
            size += count * (side[1] + 1)
            end += count
            depth = max(depth, end + _depth(side))
        return (size + 1) // 2, depth

    @property
    def root(self) -> tuple:
        """The map as one shared-subtree node (for the audit)."""
        node = self.spine
        for side, count in reversed(self.runs):
            for _ in range(count):
                node = _node((side, node))
        return node

    def sample(self) -> Context:
        return _window(self.spine, self.length)


def _composite_map(kernel: Kernel, length: int):
    """The representation of the kernel's family: the comb for the renewal
    kernel, shared subtrees on the slice table for finite-order kernels."""
    if isinstance(kernel, RenewalSqrtKernel):
        return _CombMap(kernel, length)
    return _SharedMap(kernel, length)


class _AuditedMap:
    """The family's composite map with the reference :func:`step` advanced
    beside it on every draw: any step where their work, slice depth,
    regeneration flag, reach, state or trace size differ raises
    InvariantViolation; a draw the reference refuses must reach deeper
    than ``max_depth``.  Each step that passes goes to ``on_iteration``."""

    def __init__(self, kernel: Kernel, length: int, max_depth: int,
                 on_iteration: Callable[[StepAudit], None]):
        self.kernel = kernel
        self.max_depth = max_depth
        self.on_iteration = on_iteration
        self.map = _composite_map(kernel, length)
        self.state = prune_minimal(init_state(kernel.alphabet, length))
        self.t = 0

    @property
    def coalesced(self) -> bool:
        return self.map.coalesced

    def advance(self, u: float) -> Tuple[int, int, bool, int]:
        got = self.map.advance(u)
        try:
            state, slice_, unpruned = step(self.kernel, self.state, u, self.max_depth)
            want = (slice_.node_touches + unpruned.node_count(),
                    slice_.depth, slice_.is_regeneration, slice_.reach)
        except MaxDepthExceeded:
            if got[3] > self.max_depth:
                return got  # for _backward to refuse
            state, want = self.state, None
        leaves = dict(state.leaves())
        if got != want or (
            _map_leaves(self.map.root, self.kernel.alphabet.symbols) != leaves
            or self.map.size() != (len(leaves), max(map(len, leaves)))
        ):
            raise InvariantViolation(
                f"at u={u!r} the composite map gives {got} and the reference {want}"
                ", or their states or sizes differ"
            )
        self.state = state
        self.t -= 1
        self.on_iteration(StepAudit(self.t, slice_, unpruned, state))
        return got

    def size(self) -> Tuple[int, int]:
        return self.map.size()

    def sample(self) -> Context:
        return self.map.sample()


def run(
    kernel: Kernel,
    length: int,
    rng: RngStream,
    *,
    max_iter: int = DEFAULT_MAX_ITER,
    max_depth: int = DEFAULT_MAX_DEPTH,
    max_nodes: int = DEFAULT_MAX_NODES,
    trace: bool = False,
    on_iteration: Optional[Callable[[StepAudit], None]] = None,
) -> RunResult:
    """Draw one exact stationary window of the given length.

    Draws are consumed in backward time order (the first draw belongs to
    time -1) until the composite map is constant; one constant from the
    start (a one-symbol alphabet) takes no draw, as in :func:`pw_extended`.
    Budget violations raise with partial diagnostics attached.
    With ``on_iteration`` the kernel family's composite map runs beside the
    reference :func:`step`, which checks it on every draw and supplies the
    tries of each :class:`StepAudit`.  The hook sees t = -1, -2, ... up
    to the step that ends the run, the one that exhausts the node budget
    included, but not a draw that ``max_depth`` refuses.
    """
    if max_iter < 1 or max_depth < 1 or max_nodes < 1:
        raise ValueError("limits must be positive")
    start_ns = time.perf_counter_ns()
    rep = (_composite_map(kernel, length) if on_iteration is None
           else _AuditedMap(kernel, length, max_depth, on_iteration))
    return _backward(rep, rng, max_depth, max_iter, max_nodes, trace, start_ns)


# -- extended Propp-Wilson baseline ---------------------------------------


class _TableMap:
    """The composite map on every history of length max(order, L), with no
    adaptive dictionary and no pruning benefit."""

    def __init__(self, kernel: Kernel, order: int, length: int):
        self.kernel = kernel
        self.order = order
        self.symbols = kernel.alphabet.symbols
        self.m = max(order, length)
        check_enumeration(len(self.symbols), self.m, f"histories of length {self.m}")
        self.table: Dict[Context, Context] = {
            h: h[-length:] for h in itertools.product(self.symbols, repeat=self.m)
        }
        self.coalesced = len(set(self.table.values())) == 1

    def advance(self, u: float) -> Tuple[int, int, bool, int]:
        m = self.m
        m_next = max(self.order, m - 1)
        new_table: Dict[Context, Context] = {}
        for h in itertools.product(self.symbols, repeat=m_next):
            g = phi(self.kernel, u, h)
            if g is None:
                raise InvariantViolation(
                    f"order-{self.order} kernel unresolved at depth-{m_next} context {h}"
                )
            new_table[h] = self.table[(h + (g,))[-m:]]
        self.table, self.m = new_table, m_next
        self.coalesced = len(set(new_table.values())) == 1
        # every node of the full depth-m trie is held, not only the leaves;
        # a one-symbol table is constant from the start, so n_sym >= 2
        n_sym = len(self.symbols)
        touches = (n_sym ** (m_next + 1) - 1) // (n_sym - 1)
        # phi resolves at the full order: no slice, so no depth budget
        return touches, 0, False, 0

    def size(self) -> Tuple[int, int]:
        return len(self.table), self.m

    def sample(self) -> Context:
        return next(iter(self.table.values()))


def pw_extended(
    kernel: Kernel,
    length: int,
    rng: RngStream,
    *,
    max_iter: int = DEFAULT_MAX_ITER,
    max_depth: int = DEFAULT_MAX_DEPTH,
    max_nodes: int = DEFAULT_MAX_NODES,
    trace: bool = False,
) -> RunResult:
    """The classical baseline: the composite map over the full extended
    state space, with the same update rule and the same draw discipline as
    :func:`run`."""
    if max_iter < 1 or max_depth < 1 or max_nodes < 1:
        raise ValueError("limits must be positive")
    order = kernel.order
    if order is None:
        raise UnsupportedOperation("pw_extended needs a finite-order kernel")
    if length < 1:
        raise ValueError("window length must be >= 1")
    start_ns = time.perf_counter_ns()
    rep = _TableMap(kernel, max(order, 1), length)
    return _backward(rep, rng, max_depth, max_iter, max_nodes, trace, start_ns)


# -- batch driver ---------------------------------------------------------


@dataclass
class RunRow:
    """One line of the sample/bench reports."""

    run_id: int
    sample: Optional[Context]
    tau: Optional[int]
    iterations: int
    node_touches: int
    wall_ns: int
    error: Optional[str] = None
    max_slice_depth: int = 0
    records: Optional[List[IterationRecord]] = None


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_many(
    kernel: Kernel,
    length: int,
    seed_base: int,
    start: int,
    count: int,
    *,
    algorithm: str = "ciaftp",
    max_iter: int = DEFAULT_MAX_ITER,
    max_depth: int = DEFAULT_MAX_DEPTH,
    max_nodes: int = DEFAULT_MAX_NODES,
    timing: bool = True,
    trace: bool = False,
    jobs: int = 1,
) -> List[RunRow]:
    """Independent runs with seeds ``seed_base + run_id``; budget errors
    become rows with an error code instead of aborting the batch.

    ``algorithm`` is ``"ciaftp"`` (:func:`run`, never audited) or
    ``"pw_extended"``, and ``trace`` keeps each run's iteration records on
    its row.  With ``jobs > 1`` the runs are split into contiguous blocks
    over that many processes, but never more than this process's usable
    CPUs; the rows come back in run order and never depend on ``jobs``.
    """
    workers = min(jobs, _usable_cpus()) if jobs > 1 else 1
    if workers > 1 and count >= 2 * workers:
        import concurrent.futures

        kwargs = dict(algorithm=algorithm, max_iter=max_iter, max_depth=max_depth,
                      max_nodes=max_nodes, timing=timing, trace=trace)
        bounds = [start + (i * count) // workers for i in range(workers + 1)]
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futs = [
                pool.submit(run_many, kernel, length, seed_base, lo, hi - lo, **kwargs)
                for lo, hi in zip(bounds, bounds[1:])
            ]
            return [row for fut in futs for row in fut.result()]

    sampler = {"ciaftp": run, "pw_extended": pw_extended}.get(algorithm)
    if sampler is None:
        raise ValueError(f"unknown algorithm {algorithm!r}")

    rows: List[RunRow] = []
    for idx in range(start, start + count):
        try:
            result = sampler(kernel, length, RngStream(seed_base + idx), max_iter=max_iter,
                             max_depth=max_depth, max_nodes=max_nodes, trace=trace)
        except (IterationLimitExceeded, MaxDepthExceeded, NodeBudgetExceeded) as exc:
            sample, error, d = None, exc.code, exc.diagnostics
        else:
            sample, error, d = result.sample, None, result.diagnostics
        # a budget error's diagnostics have tau None
        rows.append(RunRow(
            run_id=idx, sample=sample, tau=d.tau, iterations=d.iterations,
            node_touches=d.node_touches, wall_ns=d.wall_ns if timing else 0, error=error,
            max_slice_depth=0 if error else d.max_slice_depth, records=d.records,
        ))
    return rows
