"""The backward-coupling sampling loop and its diagnostics.

Each backward step consumes one uniform draw: the draw's slice tells which
context suffices to determine the new symbol, and the composite map built
so far is looked up one symbol deeper.  The run stops when the composite
map is constant, at which point its single label is an exact stationary
sample.

One loop, :func:`_backward`, owns everything that does not depend on how
the composite map is stored: the depth, iteration and node budgets, the
diagnostics, the per-iteration trace records, the regeneration times and
the wall time.  It iterates the stream's draws (:attr:`RngStream.draws`)
and keeps the map in a local.  Each kernel family has one representation
of the composite map, a plain value, and one step function,
``step(map, u) -> (next map, (node touches, slice depth, regenerated,
reach, constant))``, whose last field says whether the next map's value
is constant; with a size function (leaf count and depth, for the trace
records) and a sample function, a plain read of the constant map's one
label, that is all the loop knows of a family, so a step's fixed cost is
one call and a few local tests.  The first two
are built from the same immutable trie nodes of :mod:`ciaftp.tries`, one
flat tuple each: ``(tree size, child_0, ..., child_{|G|-1})``, or ``(1,
None, label)`` for a leaf:

* finite-order kernels - the minimal labeled trie as shared subtrees,
  whose leaf labels are full length-L windows, stepped by the function
  the kernel's :class:`SliceTable` builds once (:func:`_shared_step`).  A
  step finds the draw's gap by bisection and runs the gap's program
  (:class:`SliceEntry`, :func:`_compose`).  The table finds every gap
  when it is built, in one sweep from 0 up: each context the sweep
  visits keeps its interval ends and the last sub-slice found below it,
  so a gap expands only the contexts no earlier gap has expanded for its
  draws, and grafts the rest.  The program is: walk each distinct prefix of
  the slice leaves' paths into the previous map once, graft the subtrees
  reached by reference and rebuild only the slice's internal nodes, one
  tuple each.  So a step costs O(slice size), not O(state size).  A
  program is interpreted by three flat loops until its
  :data:`COMPILE_AFTER`-th run, which compiles it into one Python
  function of the map, built from integers only, whose walk branches on
  leaves: a parent that is a leaf fills every graft below it at once.  At
  window length L every map is at most max(order, L) deep, and a table
  serves every length of one such bound, so every length up to the order
  shares one: a node at the bound is a leaf, so every program's walk ends
  there, and the compiled program does not test it.  On order6 at
  L=1 a compiled run costs about a fifth of an interpreted one.  Few
  distinct maps occur, so the table is also an exact memo of whole steps,
  which interns at most :data:`MEMO_CAP` maps: a step that repeats a
  stored (map, gap) transition is a bisection and a dict lookup, which
  returns the stored (next map, step) pair itself;
* the renewal kernel, at every window length - a comb (:func:`_comb_step`).
  Its slices are combs whose depth has no finite mean, so the map is kept
  as run-length-compressed side subtrees along the all-ones spine, ``(runs,
  spine)``.  A step takes the slice depth from its closed form
  (``kernel.slice_depth``, read once per run), then costs O(number of
  runs), whatever the depth;
* :func:`pw_extended` - the full depth-d table of an order-d chain, the
  classical baseline, kept as ``(table, d)``: the window of each history,
  by history number in ``itertools.product`` order.  History i moves on to
  history (i |G| + g) mod |G|^d, g ``phi``'s value at its context of
  exactly the kernel's order.  Those values depend on the draw only
  through its gap between the contexts' interval ends, so the kernel's
  :class:`PwGaps` finds every gap when it is built, applying ``phi``'s
  rule at every such context once per gap, one bisection in each
  context's interval layout (:func:`~ciaftp.update_rule.phi_contexts`),
  and keeps the gap's gather index: a step is one bisection for the gap,
  one gather and one count.
  It shares no slice code with the other two.

The runs of one kernel at one window length share their start, whatever
its size, in one place: the kernel's own cache, ``kernel.slice_cache``,
keyed by window length, which holds the slice table of that length's
bound, one object under every length that shares it, which keeps the
length's start, or, for the renewal kernel, the comb's start.

:func:`step` is the validated reference: it composes the slice of
:func:`~ciaftp.update_rule.build_slice` onto the previous state's leaves,
through ``ContextTrie.from_leaves`` and ``prune_minimal``.  Its slices
are expanded from the kernel's lower-bound rows for every family, the
renewal kernel included, so the comb's closed-form slice depth is checked
against the law, and the slice tables' own expansion shares no code with
it.  Under ``run(on_iteration=...)`` it is advanced beside
the family's step function (:class:`_Audit`), which raises
InvariantViolation on any step where they differ and hands the reference
tries of each step to the hook.  The audit is also what checks the
sample: a step only grafts leaves of the start, so the constant map's
label is a length-L window by construction, and a plain run returns it
unchecked, while the audit compares every map, labels included, with
the reference trie built from length-L windows.  :func:`run` picks the
kernel's family, and :func:`run_many` is the batch driver for every
command.

A run's draws come from :class:`RngStream`, numpy's ``PCG64`` seeded as
``PCG64(seed)`` seeds it.  Runs use consecutive seeds, and the module
keeps one block of their seeding words: a seed at the block's end hashes
the next 8, 16, ..., up to 1024 seeds in one numpy pass of
``SeedSequence``'s pool hash (:func:`_seed_words`), and ``PCG64`` reads a
seed's words from the block through numpy's ``ISeedSequence`` interface.
Any other seed - the first of a series, a jump, a seed of 2^64 - 1024 or
more, a negative one or one that is not an int - is seeded by
``PCG64(seed)`` itself.
"""

from __future__ import annotations

import itertools
import os
import sys
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from types import CodeType, FunctionType, MethodType
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from .errors import (
    BudgetError,
    InvariantViolation,
    IterationLimitExceeded,
    MaxDepthExceeded,
    NodeBudgetExceeded,
    UnsupportedOperation,
)
from .kernels import Kernel, RenewalSqrtKernel, check_enumeration
from .tries import (Alphabet, Context, ContextTrie, complete_trie, iter_leaves_below,
                    minimal_node, node_depth, prune_minimal)
from .update_rule import (DEFAULT_MAX_DEPTH, UpdateSlice, _level_ends, build_slice,
                          context_layouts, depth_message, phi_contexts, unresolved_message)

DEFAULT_MAX_ITER = 10**6
DEFAULT_MAX_NODES = 10**7

RNG_ALGORITHM = "pcg64"


class RngStream:
    """A seeded, portable uniform stream ([0, 1) doubles).

    The generator is always :data:`RNG_ALGORITHM`; an identical seed gives
    an identical draw sequence on every platform.  Independent runs derive
    their seeds as base + run index.

    ``draws`` is one iterator of the stream's doubles, which
    :func:`_backward` loops over and :meth:`uniform` advances.  It chains
    blocks of ``Generator.random(k)``, which gives the same doubles as k
    scalar calls.  The first block, of 8 draws, is drawn when the first
    draw is read, and each later one is twice as large, up to 1024 draws:
    a short run draws few doubles it does not use, and a long one makes
    few generator calls.  The iterator holds a generator, so a stream does
    not pickle.

    The generator is numpy's own ``PCG64``, seeded as ``PCG64(seed)`` is:
    from the 4 words of ``SeedSequence(seed).generate_state(4, np.uint64)``.
    That hash is most of what a stream costs, so consecutive seeds share
    one numpy pass (:func:`_pcg64`): an int seed in [0, 2^64 - 1024) that
    lies in the current block of hashed words, or at its end, where it
    hashes the next block, takes its words from the block, and ``PCG64``
    reads them through numpy's ``ISeedSequence`` interface
    (:class:`_SeedWords`).  Every other seed - the first of a series, a
    jump, a seed of 2^64 - 1024 or more, a negative one or one that is not
    an int - goes to ``PCG64(seed)`` itself, so numpy's refusals and its
    handling of large seeds are unchanged.  Both paths give the same words,
    and so the same draws.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.draws = itertools.chain.from_iterable(
            _blocks(np.random.Generator(_pcg64(seed))))

    def uniform(self) -> float:
        return next(self.draws)


def _blocks(gen: np.random.Generator) -> Iterator[List[float]]:
    """Blocks of 8, 16, ..., 1024, 1024, ... doubles of ``gen``."""
    size = 8
    while True:
        yield gen.random(size).tolist()
        size = min(2 * size, 1024)


# -- stream seeding in blocks -------------------------------------------------
#
# numpy's SeedSequence with its default pool of 4 words, from numpy's
# bit_generator.pyx.  A seed below 2^64 is 2 entropy words, its low and high
# 32 bits; numpy gives a seed below 2^32 one word, and hashes the missing
# pool words exactly as a zero high word.  The hash constants run through the
# same sequence for every seed, so each hashmix's pair (xor constant,
# multiplier) is fixed by its place in the hash.

_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_MULT_L, _MIX_MULT_R = 0xca01f9dd, 0x4973f715
_XSHIFT = 16
_POOL = 4
_SEED_BLOCK_MAX = 1024
_SEED_BLOCK_END = 2**64 - _SEED_BLOCK_MAX  # a block never reaches 2^64


def _hash_constants(init: int, mult: int, n: int) -> List[Tuple[int, int]]:
    """The (xor constant, multiplier) of ``n`` hashmix calls in turn."""
    pairs = []
    for _ in range(n):
        after = init * mult & 0xFFFFFFFF
        pairs.append((init, after))
        init = after
    return pairs


def _hash_tables():
    mixing = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL)
    fill = np.array(mixing[:_POOL], np.uint32).T
    # row s: the pairs of the hashmix of pool word s into every other word
    # (the diagonal is unused)
    mix = np.zeros((2, _POOL, _POOL), np.uint32)
    pairs = iter(mixing[_POOL:])
    for s in range(_POOL):
        for d in range(_POOL):
            if d != s:
                mix[:, s, d] = next(pairs)
    out = np.array(_hash_constants(_INIT_B, _MULT_B, 2 * _POOL), np.uint32).T
    return fill, mix, out


_FILL, _MIX, _OUT = _hash_tables()


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` of every seed ``s``
    of the ``uint64`` array ``seeds``, one row each."""
    # mix_entropy: hash the entropy words into the pool, then each pool
    # word into every other one
    pool = np.zeros((len(seeds), _POOL), np.uint32)
    pool[:, 0] = seeds  # the low 32 bits
    pool[:, 1] = seeds >> np.uint64(32)
    pool ^= _FILL[0]
    pool *= _FILL[1]
    pool ^= pool >> _XSHIFT
    for s in range(_POOL):
        hashed = pool[:, s, None] ^ _MIX[0, s]
        hashed *= _MIX[1, s]
        hashed ^= hashed >> _XSHIFT
        mixed = _MIX_MULT_L * pool - _MIX_MULT_R * hashed
        mixed ^= mixed >> _XSHIFT
        mixed[:, s] = pool[:, s]
        pool = mixed
    # generate_state: 8 32-bit words, hashed from the pool's words cycled
    state = np.tile(pool, 2)
    state ^= _OUT[0]
    state *= _OUT[1]
    state ^= state >> _XSHIFT
    # as numpy does: little-endian 32-bit pairs, then native 64-bit words
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """One seed's hashed words, as the seed sequence ``PCG64`` reads."""

    __slots__ = ("seed", "words")

    def __init__(self, seed: int, words: np.ndarray):
        self.seed = seed
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words == _POOL and dtype is np.uint64:
            return self.words
        return np.random.SeedSequence(self.seed).generate_state(n_words, dtype)


# The current block of seeding words, (lo, hi, words of lo .. hi - 1): read
# once per call and replaced whole, so no caller mixes two blocks.
_seed_block: Tuple[int, int, list] = (-1, -1, [])


def _pcg64(seed) -> np.random.PCG64:
    """``np.random.PCG64(seed)``, seeded from the current block of words
    when ``seed`` is in it or at its end; a seed at its end hashes the next
    block, twice as large as this one (8 at first, up to 1024)."""
    global _seed_block
    lo, hi, words = _seed_block
    if type(seed) is int and 0 <= seed < _SEED_BLOCK_END:
        if lo <= seed < hi:
            return np.random.PCG64(_SeedWords(seed, words[seed - lo]))
        if seed == hi:
            size = min(max(2 * (hi - lo), 8), _SEED_BLOCK_MAX)
            words = list(_seed_words(np.arange(size, dtype=np.uint64) + np.uint64(seed)))
            _seed_block = (seed, seed + size, words)
            return np.random.PCG64(_SeedWords(seed, words[0]))
        _seed_block = (seed + 1, seed + 1, [])
    return np.random.PCG64(seed)


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
    regeneration_times: List[int]
    records: Optional[List[IterationRecord]]
    seed: Optional[int]
    wall_ns: int


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

    Slice leaf ``s`` emitting ``g`` takes the state's label at ``s + (g,)``,
    or the leaves of the state's subtree there (``iter_leaves_below``).
    The unpruned trie is rebuilt from them through the validating
    ``ContextTrie.from_leaves``, so the claim that it is a complete suffix
    dictionary is re-checked on every step.
    """
    slice_ = build_slice(kernel, u, max_depth)
    e_leaves: Dict[Context, Context] = {}
    for s, g in slice_.trie.leaves():
        target = s + (g,)
        hit = state.find_suffix(target)
        if hit is not None:
            e_leaves[s] = hit[1]
        else:
            for ext, label in iter_leaves_below(state, target):
                e_leaves[ext + s] = label
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


# What a step reports: (node touches, slice depth, regenerated, reach,
# whether the next map is constant).
StepReport = Tuple[int, int, bool, int, bool]
StepFunction = Callable[[object, float], Tuple[object, StepReport]]


def _backward(
    step_fn: StepFunction,
    state,
    constant: bool,
    size: Callable[[object], Tuple[int, int]],
    sample: Callable[[object], Context],
    rng: RngStream,
    max_depth: int,
    max_iter: int,
    max_nodes: int,
    trace: bool,
    start_ns: int,
) -> RunResult:
    """Compose draws backward in time, from the map ``state``, until the
    map is constant.

    ``constant`` says whether ``state`` is constant already.
    ``step_fn(map, u)`` composes one more draw and returns (next map,
    (node touches, slice depth, regenerated, reach, constant)), the last
    field saying whether the next map is constant; ``size(map)`` gives
    (leaf count, depth) for the trace records and ``sample(map)`` the
    constant map's value.  The loop keeps the map in a local, runs over the
    stream's ``draws``, one step per draw, and leaves it right after the
    step that reports a constant map, so a run reads exactly its own draws.
    This loop alone checks the three budgets: a draw whose reach (the depth
    of the deepest context its slice's expansion visits) exceeds
    ``max_depth`` raises MaxDepthExceeded, as in
    :func:`~ciaftp.update_rule.build_slice`, before the step is counted;
    ``max_iter`` is checked after each step that leaves the map
    non-constant, so the run draws no more than ``max_iter`` times.  A
    budget error leaves the loop as its (class, message) and is raised
    after it with the diagnostics and tau None.  No local holds the raised
    error: its traceback holds this frame, and the cycle would keep the
    failed run's map alive until the cyclic collector runs.
    """
    t = touches = max_slice_depth = 0
    regen: List[int] = []
    records: Optional[List[IterationRecord]] = [] if trace else None
    error: Optional[Tuple[type, str]] = None
    if not constant:
        for u in rng.draws:
            t -= 1
            state, (step_touches, slice_depth, regenerated, reach, constant) = step_fn(state, u)
            if reach > max_depth:
                error = MaxDepthExceeded, depth_message(u, max_depth)
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
                records.append(IterationRecord(t, *size(state), step_touches))
            if constant:
                break
            if -t >= max_iter:
                error = IterationLimitExceeded, f"no coalescence within {max_iter} iterations"
                break
    diagnostics = RunDiagnostics(None if error else t, -t, touches, max_slice_depth, regen,
                                 records, rng.seed, time.perf_counter_ns() - start_ns)
    if error is not None:
        raise error[0](error[1], diagnostics)
    return RunResult(sample(state), diagnostics)


# The composite maps are built from the trie nodes of ciaftp.tries, whose
# size makes the node touches O(1); only the trace records and the audit
# read a map's depth (node_depth), once per map the slice table interns
# (SliceTable.depths).  The engine keeps one invariant of its own: each
# label has one leaf object.  The initial map creates every leaf and later
# steps only graft them, so a node whose children are all the same leaf
# object becomes that leaf - tries.minimal_node, the rule of
# tries.prune_minimal, whose count finds them by identity.  Grafted
# subtrees come from a minimal map, so only the nodes a step rebuilds need
# the rule.  (The initial map is built reduced too; it differs from the
# complete trie only for a one-symbol alphabet, whose chain of L nodes is
# one leaf here: that map is constant before any draw.)


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
    level = [(1, None, w) for w in itertools.product(symbols, repeat=length)]
    for k in range(length - 1, -1, -1):
        stride = len(symbols) ** k
        level = [minimal_node(tuple(level[j::stride])) for j in range(stride)]
    return level[0]


# The sample function of a finite-order kernel's maps: a constant map is
# one leaf, and its label is the sample.
_leaf_label = itemgetter(2)


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
    oldest, cut after its first ``bound`` steps, ``bound`` being its
    table's: every map the program runs on is at most that deep, so the
    node there is a leaf, which a deeper slot would only hold again.  The
    program fills a list of slots, slot 0 being the previous map's root, in
    three flat passes, which both ways of running it read
    (:func:`_interpret`, :func:`_compile_program`):

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
    interned map, keyed by the map's ``id``, each the pair ``(next interned
    map, step report)`` that the table's step function returns
    (:func:`_shared_step`), the report's last field saying whether the next
    map is constant; ``runs``
    counts the program's interpreted runs (memo hits excluded); ``program``
    is the program compiled into one function (:func:`_compile_program`),
    which :func:`_compose` builds when ``runs`` reaches
    :data:`COMPILE_AFTER`.
    """

    walk: Tuple[WalkStep, ...]
    grafts: Tuple[int, ...]
    nodes: Tuple[NodeGetter, ...]
    touch_base: int
    depth: int
    reach: int
    memo: Dict[int, Tuple[tuple, StepReport]] = field(
        default_factory=dict, init=False, compare=False, repr=False)
    runs: int = field(default=0, init=False, compare=False, repr=False)
    program: Optional[Program] = field(default=None, init=False, compare=False, repr=False)


# A sub-slice of a SliceTable: (lo, hi, node, touches, reach, depth), the
# slice below one context of every draw in [lo, hi) that reaches it, its
# leaves labeled by symbol number.
Piece = Tuple[float, float, tuple, int, int, int]


def _compile_entry(piece: Piece, arity: int, bound: int, steps: Dict[WalkStep, WalkStep],
                   getters: Dict[Tuple[int, ...], NodeGetter]) -> SliceEntry:
    """The :class:`SliceEntry` of the root :data:`Piece` of a gap, for maps
    at most ``bound`` deep, in one post-order pass over the piece's node:
    each leaf's walk path ends after its first ``bound`` steps.

    Equal walk steps and node getters are kept once in ``steps`` and
    ``getters``, which the entries of one table share.
    """
    _, _, root, touches, reach, depth = piece
    if root[1] is None:
        step = (0, root[2])
        return SliceEntry((steps.setdefault(step, step),), (1,), (), touches, depth, reach)
    walk: List[WalkStep] = []
    grafts: List[int] = []
    # children of each internal node: a walk slot, or ~i for internal node i
    nodes: List[List[int]] = []
    pending: List[int] = []
    # along the internal nodes from the root to the one at hand, at depth
    # d: path[j] is the child index taken into depth j (path[0] is unused),
    # and prefix[j][g] the slot of the walk prefix (g, path[1], ...,
    # path[j]), or 0 while there is none; only the leaves below that node
    # share it
    path = [0]
    prefix = [[0] * arity]
    last = bound - 1
    # post-order, children in alphabet order: each internal node is left for
    # its next internal child, and resumed at the child after it
    stack: List[Tuple[tuple, int, int]] = []
    node, d, c = root, 0, 0
    while True:
        while c < arity:
            kid = node[1 + c]
            if kid[1] is not None:
                stack.append((node, d, c + 1))
                path.append(c)
                prefix.append([0] * arity)
                node, d, c = kid, d + 1, 0
                continue
            # the walk path (g, path[1], ..., path[d], c), cut after
            # ``bound`` steps: find its longest known prefix and add the
            # rest; the step into the leaf itself is always new
            g = kid[2]
            if d < last:
                top, j = d + 1, d
            else:
                top = j = last
            while j >= 0 and not prefix[j][g]:
                j -= 1
            slot = prefix[j][g] if j >= 0 else 0
            for j in range(j + 1, top + 1):
                step = (slot, (path[j] if j <= d else c) if j else g)
                slot = len(walk) + 1
                if j <= d:
                    prefix[j][g] = slot
                walk.append(steps.setdefault(step, step))
            grafts.append(slot)
            pending.append(slot)
            c += 1
        nodes.append(pending[-arity:])
        pending[-arity:] = [~(len(nodes) - 1)]
        if not stack:
            break
        path.pop()
        prefix.pop()
        node, d, c = stack.pop()
    first = len(walk) + 1
    node_getters = []
    for kids in nodes:
        key = tuple([r if r >= 0 else first + ~r for r in kids])
        getter = getters.get(key)
        if getter is None:
            getter = getters[key] = itemgetter(*key)
        node_getters.append(getter)
    return SliceEntry(tuple(walk), tuple(grafts), tuple(node_getters),
                      touches + len(nodes), depth, reach)


class _Context:
    """A context the sweep that builds a :class:`SliceTable` has visited,
    with what the sweep knows of it.

    ``ends`` are the right ends of its level's intervals
    (:func:`~ciaftp.update_rule._level_ends`, the layout's one source),
    read once from the kernel's lower-bound row, and ``lower`` is that
    row's bounds, the previous level of its children; ``kids`` are the
    children, in alphabet order, made when a draw first expands it.
    ``piece`` is the last sub-slice found here, or None: the sweep's draws
    ascend, so a later draw that reaches the context lies in that piece's
    gap or above it.
    """

    __slots__ = ("ctx", "ends", "lower", "kids", "piece")

    def __init__(self, kernel: Kernel, ctx: Context, pos: float, prev: Tuple[float, ...]):
        row = kernel.lower_bounds(ctx)
        self.ctx = ctx
        self.ends = _level_ends(row.lower, row.mass, prev, pos)
        self.lower = row.lower
        self.kids: Optional[List[_Context]] = None
        self.piece: Optional[Piece] = None


def _expand(kernel: Kernel, root: _Context, u: float, leaves: List[tuple]) -> Piece:
    """The root piece of the draw ``u``, at or above every gap the sweep
    has found below ``root``.

    Depth-first from the root, children in alphabet order, by the rule of
    :func:`~ciaftp.update_rule.build_slice`: a context whose level ends
    above ``u`` is a leaf, ``leaves[g]`` for the number g of the symbol
    whose interval holds ``u``, and any other one expands into all its
    children.  A context at the kernel's order that leaves ``u``
    unresolved refuses the kernel with InvariantViolation, naming it.  A
    context whose last piece holds ``u`` is not expanded: the piece is
    grafted.  Each new piece is stored at its context.  A piece's gap runs
    from the largest interval end compared at or below ``u`` in its
    subtree to the smallest compared above it (0 and 1 when there is
    none), and its node is built by :func:`~ciaftp.tries.minimal_node` from
    its children's when its closing frame pops.
    """
    order, n = kernel.order, len(leaves)
    done: List[Piece] = []  # pieces whose parent is not done
    stack = [(root, False)]
    while stack:
        at, closing = stack.pop()
        if closing:
            los, his, nodes, touches, reaches, depths = zip(*done[-n:])
            del done[-n:]
            node = minimal_node(nodes)
            piece = (max(at.ends[-1], *los), min(his), node, 1 + sum(touches),
                     max(reaches), 0 if node[1] is None else 1 + max(depths))
        else:
            piece = at.piece
            if piece is not None and u < piece[1]:
                done.append(piece)
                continue
            ends = at.ends
            level_end = ends[-1]
            if u < level_end:
                lo = 0.0
                # u is at or above the level's start, so the first
                # interval ending above it holds it
                for g, end in enumerate(ends):
                    if u < end:
                        break
                    lo = max(lo, end)
                piece = (lo, min(level_end, end), leaves[g], 1, len(at.ctx), 0)
            else:
                if len(at.ctx) >= order:
                    raise InvariantViolation(unresolved_message(order, level_end, at.ctx))
                if at.kids is None:
                    at.kids = [_Context(kernel, (g,) + at.ctx, level_end, at.lower)
                               for g in kernel.alphabet.symbols]
                stack.append((at, True))
                stack.extend((kid, False) for kid in reversed(at.kids))
                continue
        at.piece = piece
        done.append(piece)
    return done[0]


class SliceTable:
    """The slices of a finite-order kernel, found by bisection, and the
    memo of the steps composed with them, for every window length of one
    depth bound.

    Gap ``i``, in ascending order, is ``[lows[i], lows[i + 1])``, the last
    one ending at 1.0, and its draws get ``entries[i]``.  The table finds
    every gap when it is built, in one sweep from 0 up: the draw at the end
    of each gap is expanded (:func:`_expand`), with the rule of
    :func:`~ciaftp.update_rule.build_slice` at the kernel's order, where
    every draw resolves, and the gap it finds, which must start at that
    draw, is compiled (:func:`_compile_entry`).  Each context the sweep
    visits is a :class:`_Context` that keeps its interval ends, read once
    from the kernel, and the last sub-slice (:data:`Piece`) found below
    it, valid for every draw of its gap that reaches the context.  So a gap
    expands only the contexts that hold no piece for its draw and grafts
    every other sub-slice, and each context's ends and pieces are computed
    once.  On order6 at L=1 the 65 gaps make 384 pieces on the 126
    contexts below the root.  A kernel with a context of its order that
    leaves some draws unresolved is refused by the sweep, before any run,
    with the message :func:`pw_extended` refuses it with.  The context
    tree and the kernel are locals of the build: the table keeps the
    kernel's ``symbols`` only, and the entries' compiled programs share one
    globals dict and hold no cycle, so dropping the kernel frees them at
    once.

    Every map at window length L is at most max(order, L) deep: the start
    is L deep, and a step grafts below each slice leaf, at most the order
    deep, a subtree found one level deeper in the previous map, so the new
    map is at most max(order, d - 1) deep after a map d deep.  A slice
    depends only on the draw, and a step only on the map and the slice, so
    the length decides only the start and that depth.  So a table serves
    every length whose max(order, L) is its ``bound``, and one program per
    gap, for maps at most ``bound`` deep, serves every run of those
    lengths: its walk ends at the bound (:class:`SliceEntry`), where a map
    holds only leaves, and it runs interpreted or compiled.  Every length
    up to the order shares the table of bound ``order``, and each longer
    length has its own.  :meth:`add_start` adds a length:
    ``starts[length]`` is the interned initial map that every run of that
    length starts from, built once.

    The table is also a memo of whole steps, which its step function
    ``step`` (:func:`_shared_step`, built once with the table) reads and
    fills.  A composite map is a function on contexts of depth ``bound``,
    so only finitely many occur, and few in practice.  ``maps`` interns
    them (shared-subtree root tuples, each its own key, so equal maps are
    one object; maps of two lengths have labels of two lengths, so they
    are never equal), and ``depths`` is keyed by their ids.  Every step
    looks its map's ``id`` up in the gap's :attr:`SliceEntry.memo`; a miss
    runs the program, and while ``maps`` holds fewer than ``memo_cap``
    maps (the starts included) its result is interned and stored there as
    the pair ``(next interned map, step report)`` - the report being (node
    touches, slice depth, regenerated, reach, constant) - which a hit
    returns itself, building nothing.  ``memo_cap`` is :data:`MEMO_CAP`,
    or 0 for a bound of at least half the recursion limit, whose maps are
    too deep for interning to compare: there only the starts are
    interned, and every step misses and stores nothing, as on a full memo.
    A program's result depends only on the map's structure and the gap,
    so a stored transition gives exactly what the program would: the memo
    is exact, and the lengths that share it cannot tell.  ``maps`` only
    grows, so while it has room every map a run holds is interned and
    kept alive by it; once it is full, a map a run composes is not
    interned, its ``id`` is no key (keys are ids of live interned maps)
    and its steps miss and store nothing.  A start is interned even on a
    full memo, so the memo holds at most ``MEMO_CAP`` maps plus one start
    for each length added after it filled, and at most one transition per
    (map, gap).  ``depths`` maps the ``id`` of each interned map to its
    depth once a traced or audited run has sized it (:meth:`size`), and to
    None before: a map whose ``id`` is no key is walked each time, and no
    map is hashed to find out.  Over seeds 0..2999, each window length on
    a fresh kernel (``scripts/memo_traffic.py``): desk_vlmc at L=3 takes
    120 transitions between 38 maps and the memo answers 99.3% of its
    steps; order2 at L=3 stores 687 transitions on 256 maps (76.3%);
    order6 at L=1 stores 262 (1.0%), and the distinct nodes of a full
    memo's 256 maps take about 0.27 MB there (1.1 KB a map;
    ``sys.getsizeof``, CPython 3.11).
    """

    def __init__(self, kernel: Kernel, bound: int):
        self.symbols = kernel.alphabet.symbols
        self.bound = bound
        self.arity = n = len(self.symbols)
        self.lows: List[float] = []
        self.entries: List[SliceEntry] = []
        root = _Context(kernel, (), 0.0, (0.0,) * n)
        leaves = [(1, None, i) for i in range(n)]
        steps: Dict[WalkStep, WalkStep] = {}
        getters: Dict[Tuple[int, ...], NodeGetter] = {}
        u = 0.0
        while u < 1.0:
            piece = _expand(kernel, root, u, leaves)
            if not piece[0] == u < piece[1]:
                raise InvariantViolation(
                    f"the sweep at u={u!r} found the gap [{piece[0]!r}, {piece[1]!r})")
            self.lows.append(u)
            self.entries.append(_compile_entry(piece, n, bound, steps, getters))
            u = piece[1]
        # interning compares maps by tuple ==, which recurses one level per
        # trie level; maps as deep as the bound may take at most half the
        # recursion limit, else only the starts are interned
        self.memo_cap = MEMO_CAP if 2 * bound < sys.getrecursionlimit() else 0
        self.maps: Dict[tuple, tuple] = {}
        self.depths: Dict[int, Optional[int]] = {}
        self.starts: Dict[int, tuple] = {}
        self.step = _shared_step(self)

    def add_start(self, length: int) -> None:
        """Build, check and intern the start of window length ``length``.
        Past the order the start is the only map as deep as the bound, and
        no step leads back to it, so no run sizes it: it is checked here,
        once, before it is registered, so that its depth is not kept."""
        start = _initial_map(self.symbols, length)
        self.size(start)
        self.maps[start] = start
        self.depths[id(start)] = None
        self.starts[length] = start

    def lookup(self, u: float) -> SliceEntry:
        """The entry of the gap holding the draw ``u`` (0 <= u < 1)."""
        return self.entries[bisect_right(self.lows, u) - 1]

    def size(self, root: tuple) -> Tuple[int, int]:
        """(leaf count, depth) of the map ``root``.  The depth of an
        interned map is walked once and kept in ``depths``; any other map's
        is walked on every call.  A walked depth past ``bound``, which every
        program takes for granted, raises InvariantViolation."""
        depths = self.depths
        depth = depths.get(id(root))
        if depth is None:
            depth = node_depth(root)
            if depth > self.bound:
                raise InvariantViolation(
                    f"a map is {depth} deep, past its table's bound {self.bound}")
            if id(root) in depths:
                depths[id(root)] = depth
        arity = self.arity
        return ((arity - 1) * root[0] + 1) // arity, depth

    def compile_all(self) -> None:
        """Compile each gap's program that is not compiled yet, so that
        every later program run is a compiled one
        (``scripts/run_outcomes.py`` diffs those runs against interpreted
        ones)."""
        for entry in self.entries:
            if entry.program is None:
                entry.program = _compile_program(entry, self.arity, self.bound)


def slice_table(kernel: Kernel, length: int) -> SliceTable:
    """The kernel's :class:`SliceTable` for window length ``length``, kept
    in ``kernel.slice_cache`` under that length.  A length's first call
    takes the cached table of its bound max(order, L), or builds one, and
    adds the length's start to it; an infinite-memory kernel has none,
    whatever its cache holds.  A kernel the table's sweep refuses is
    refused before anything is cached."""
    cache = kernel.slice_cache
    table = cache.get(length)
    if not isinstance(table, SliceTable):
        if kernel.order is None:
            raise UnsupportedOperation("a slice table needs a finite-order kernel")
        bound = max(kernel.order, length)
        table = next((t for t in cache.values() if t.bound == bound), None)
        if table is None:
            table = SliceTable(kernel, bound)
        table.add_start(length)
        cache[length] = table
    return table


def _compose(root: tuple, entry: SliceEntry, arity: int, bound: int) -> Tuple[tuple, int]:
    """Run ``entry``'s program on the map ``root``, at most ``bound`` deep
    (its table's bound); returns (new map, node touches).

    A program's first ``COMPILE_AFTER - 1`` runs interpret it
    (:func:`_interpret`).  Run ``COMPILE_AFTER`` compiles it into one
    function for maps at most ``bound`` deep (:func:`_compile_program`),
    which gives the same map and touches from then on.  On order6 at L=1
    (2 vCPU, CPython 3.11.7; the maps and gaps of 3000 recorded steps, run
    interpreted and compiled, and the median compile over the table's 64
    programs; two measurements, whose absolute times differ with the VM's
    speed) a run costs about 17-21 us interpreted and 3.6-3.9 us compiled,
    and a compile about 3.0-3.6 ms, so a compile pays back after about
    210-225 runs, below ``COMPILE_AFTER`` = 300: only the gaps a kernel
    keeps drawing are compiled, and a few warm-up runs compile nothing.
    """
    program = entry.program
    if program is None:
        runs = entry.runs = entry.runs + 1
        if runs < COMPILE_AFTER:
            return _interpret(root, entry, arity)
        program = entry.program = _compile_program(entry, arity, bound)
    return program(root)


def _interpret(root: tuple, entry: SliceEntry, arity: int) -> Tuple[tuple, int]:
    """``entry``'s program run by three flat loops over a list of slots: the
    walk steps fill a slot for every distinct prefix of the slice leaves'
    paths into ``root``, the grafts' tree sizes add up to the node touches,
    and the getters rebuild the slice's internal nodes above the grafts, in
    post-order, with the collapse rule of
    :func:`~ciaftp.tries.minimal_node`.  It reads the walk the compiled
    program reads, which ends at the table's bound, so both run one
    program."""
    slots = [root]
    append = slots.append
    for parent, child in entry.walk:
        node = slots[parent]
        append(node if node[1] is None else node[1 + child])
    touches = entry.touch_base
    for graft in entry.grafts:
        touches += slots[graft][0]
    for get in entry.nodes:
        # minimal_node, inlined
        kids = get(slots)
        first = kids[0]
        if first[1] is None and kids.count(first) == arity:
            append(first)
            continue
        size = 1
        for k in kids:
            size += k[0]
        append((size,) + kids)
    return slots[-1], touches


# CPython's tokenizer refuses a line indented this many levels: a limit of
# the language, which _program_source keeps below, not a setting.
_INDENT_LIMIT = 100


def _program_source(entry: SliceEntry, arity: int, bound: int) -> str:
    """``entry``'s program as the source of one function of a map ``s0``
    at most ``bound`` deep, whose locals are the slots (slot ``i`` is
    ``s<i>``).

    The walk is emitted as nested branches.  Each parent slot is tested
    once: if it is a leaf, every graft slot below it is set to it in one
    chained assignment and nothing under it is unpacked (only the nodes and
    the return read slots, and they read grafts alone); otherwise it is
    unpacked into its size and children, ``_`` naming the size and the
    children no step takes, and each child that is a parent is emitted the
    same way, one indentation level deeper.  CPython refuses a line
    indented :data:`_INDENT_LIMIT` levels, so a subtree at the last allowed
    level is emitted flat, one unpack per parent in which a leaf stands for
    each of its children.

    After the walk, each internal node is one conditional expression with
    the collapse rule of :func:`~ciaftp.tries.minimal_node` (one leaf
    object per label, so equal leaves are the same object); the return
    adds the grafts' tree sizes to
    ``touch_base``.  Only integers reach the source: slot indices, tree
    sizes and node touches.

    The walk ends at depth ``bound`` (:class:`SliceEntry`), where the
    map's nodes are leaves: a slot at that depth is never tested, each
    graft there adds its size of 1 to the constant, and a node with such a
    leaf among its children collapses exactly when its children are one
    object, with no leaf test.  A walk path is at most one step longer
    than the kernel's order, so from a window length of the order plus 2
    on, no slot reaches the bound.
    """
    walk = [tuple(map(int, step)) for step in entry.walk]
    depth = [0]
    for parent, _ in walk:
        depth.append(depth[parent] + 1)

    def known_leaf(slot: int) -> bool:
        return slot < len(depth) and depth[slot] >= bound

    grafts = [int(g) for g in entry.grafts]
    taken: Dict[int, Dict[int, int]] = {}
    # the variables of the grafts in each walk slot's subtree; a child's
    # slot is larger than its parent's, so one backward pass collects them
    below: Dict[int, Dict[int, None]] = {g: {g: None} for g in grafts}
    for slot in range(len(walk), 0, -1):
        parent, child = walk[slot - 1]
        taken.setdefault(parent, {})[child] = slot
        below.setdefault(parent, {}).update(below[slot])

    lines = ["def program(s0):"]
    # (parent slot, indentation level), popped in the order of the lines
    stack = [(0, 1)]
    while stack:
        parent, level = stack.pop()
        pad = " " * level
        children = taken[parent]
        names = "".join(f"s{children[i]}, " if i in children else "_, " for i in range(arity))
        if level + 1 < _INDENT_LIMIT:
            lines.append(f"{pad}if s{parent}[1] is None: "
                         f"{' = '.join(f's{g}' for g in below[parent])} = s{parent}")
            lines.append(f"{pad}else:")
            lines.append(f"{pad} _, {names}= s{parent}")
            level += 1
        else:
            lines.append(f"{pad}_, {names}= ({f's{parent}, ' * (arity + 1)})"
                         f" if s{parent}[1] is None else s{parent}")
        stack.extend((children[i], level) for i in sorted(children, reverse=True)
                     if children[i] in taken)
    first = len(walk) + 1
    slots = range(first + len(entry.nodes))
    for i, get in enumerate(entry.nodes):
        # a getter applied to the slot numbers picks its children's slots
        kid_slots = get(slots)
        kids = [f"s{slot}" for slot in kid_slots]
        leafy = [known_leaf(slot) for slot in kid_slots]
        sizes = "".join(f"{k}[0] + " for k, leaf in zip(kids, leafy) if not leaf)
        same = " is ".join(kids) + ("" if any(leafy) else f" and {kids[0]}[1] is None")
        lines.append(f" s{first + i} = {kids[0]} if {same}"
                     f" else ({sizes}{1 + sum(leafy)}, {', '.join(kids)})")
    base = int(entry.touch_base) + sum(map(known_leaf, grafts))
    touches = " + ".join([str(base)] + [f"s{g}[0]" for g in grafts if not known_leaf(g)])
    lines.append(f" return s{slots[-1]}, {touches}")
    return "\n".join(lines) + "\n"


# The globals of every compiled program: it reads none, so none are offered.
# One dict for all of them, so a program and its namespace make no cycle.
_PROGRAM_GLOBALS: dict = {"__builtins__": {}}


def _compile_program(entry: SliceEntry, arity: int, bound: int) -> Program:
    """``entry``'s program compiled into one function (see
    :func:`_program_source`), built from its code object on the shared
    :data:`_PROGRAM_GLOBALS`."""
    module = compile(_program_source(entry, arity, bound), "<slice program>", "exec")
    code = next(c for c in module.co_consts if isinstance(c, CodeType))
    return FunctionType(code, _PROGRAM_GLOBALS)


def _shared_step(table: SliceTable) -> StepFunction:
    """The step function of a finite-order kernel's maps at every window
    length of ``table``'s bound, built once by the table.

    A step finds the draw's :class:`SliceEntry` by the table's bisection
    and returns the pair that the entry's memo holds for the map, itself.
    On a miss it composes the map with the entry's program
    (:func:`_compose`) and, while the table's ``maps`` has room, interns
    the result and stores the pair it returns.  Node touches count what
    :func:`step` counts: the slice's touches plus the nodes of the unpruned
    composition.  The table's gaps are all found when it is built, so the
    function reads its lists and dicts and never the table itself.
    """
    lows, entries = table.lows, table.entries
    maps, depths, memo_cap = table.maps, table.depths, table.memo_cap
    arity, bound = table.arity, table.bound

    def shared_step(root: tuple, u: float) -> Tuple[tuple, StepReport]:
        entry = entries[bisect_right(lows, u) - 1]
        hit = entry.memo.get(id(root))
        if hit is not None:
            return hit
        new, touches = _compose(root, entry, arity, bound)
        report = touches, entry.depth, not entry.depth, entry.reach, new[1] is None
        if len(maps) >= memo_cap:
            return new, report
        new = maps.setdefault(new, new)
        depths.setdefault(id(new), None)
        hit = entry.memo[id(root)] = new, report
        return hit

    return shared_step


# Every map of the renewal kernel is a comb: side subtrees at the paths
# 1^j 0, j < D, and a leaf at 1^D.  A depth-m renewal slice is a comb whose
# leaf 0 1^j grafts the node at path 1^(j+1) 0 and whose spine leaf grafts
# the node at 0 1^m, so the new map is a comb again: new side j is old side
# j+1 (the old spine past the old end); below them hangs old side 0 followed
# m steps along its ones, whose own sides (only in the first L-1 steps is it
# internal) continue the comb down to its leaf; trailing sides that are that
# leaf are absorbed into it.  Sides are kept as runs of one node object, so
# a step costs O(number of runs), whatever the slice depth.  A comb map is
# the pair (runs, spine leaf): runs of (side node, count) from the root
# down, count spine levels whose 0-child is that node.  It is constant
# exactly when it has no run.

Comb = Tuple[List[Tuple[tuple, int]], tuple]


def _comb_start(kernel: RenewalSqrtKernel, length: int) -> Comb:
    """The comb's start at window length ``length``, built on first use and
    kept under that length in ``kernel.slice_cache``: a step never changes
    a run list, so every run of that length starts from it."""
    starts = kernel.slice_cache
    start = starts.get(length)
    if start is None:
        runs: List[Tuple[tuple, int]] = []
        node = _initial_map(kernel.alphabet.symbols, length)
        while node[1] is not None:
            _, side, node = node
            runs.append((side, 1))
        start = starts[length] = (runs, node)
    return start


def _comb_step(slice_depth: Callable[[float], int], comb: Comb,
               u: float) -> Tuple[Comb, StepReport]:
    """The renewal kernel's step, given the kernel's closed-form
    ``slice_depth``: one slice depth plus O(number of runs) to compose the
    comb."""
    # the slice visits the spine down to depth m: its reach is m
    m = slice_depth(u)
    runs, spine = comb
    head, count = runs[0]
    # the slice's 2m+1 touches and 2m+1 nodes, then the grafts
    touches = 4 * m + 2
    new_runs = []
    # new sides 0..m-1 are old sides 1..m: walk the old runs by index,
    # from the head's remainder on
    side, count, i, need = head, count - 1, 1, m
    while True:
        if count:
            take = count if count < need else need
            new_runs.append((side, take))
            touches += take * (side[0] - 1)
            need -= take
            if not need:
                break
        if i == len(runs):
            new_runs.append((spine, need))
            break
        side, count = runs[i]
        i += 1
    node = head
    if node[1] is not None:
        for _ in range(m):
            if node[1] is None:
                break
            node = node[2]
        touches += node[0] - 1
        while node[1] is not None:
            _, side, node = node
            new_runs.append((side, 1))
    while new_runs and new_runs[-1][0] is node:
        new_runs.pop()
    return (new_runs, node), (touches, m, False, m, not new_runs)


def _comb_size(comb: Comb) -> Tuple[int, int]:
    """(leaf count, depth) of a comb map."""
    # a spine level is one node plus its side; the spine leaf lies where
    # the last run ends, and that run's side reaches at least as deep
    size, depth, end = 1, 0, 0
    for side, count in comb[0]:
        size += count * (side[0] + 1)
        end += count
        depth = max(depth, end + node_depth(side))
    return (size + 1) // 2, depth


def _comb_root(comb: Comb) -> tuple:
    """A comb map as one shared-subtree node (for the audit)."""
    runs, node = comb
    for side, count in reversed(runs):
        for _ in range(count):
            node = minimal_node((side, node))
    return node


def _comb_sample(comb: Comb) -> Context:
    return comb[1][2]


class _Audit:
    """A family's step function with the reference :func:`step` advanced
    beside it on every draw: any step where their node touches, slice
    depth, regeneration flag, reach, constancy flag (the reference's being
    whether its state is coalesced), state or trace size differ raises
    InvariantViolation; a draw the reference refuses must reach deeper than
    ``max_depth``.  The states are compared node by node, the map read as
    a ``ContextTrie`` on its own nodes (``root_of`` builds them for a map
    that is not one node), with no leaf dict and no context tuple.  Each
    step that passes goes to ``on_iteration``."""

    def __init__(self, step_fn: StepFunction, size: Callable[[object], Tuple[int, int]],
                 root_of: Optional[Callable[[object], tuple]], kernel: Kernel, length: int,
                 max_depth: int, on_iteration: Callable[[StepAudit], None]):
        self.step_fn = step_fn
        self.size = size
        self.root_of = root_of
        self.kernel = kernel
        self.max_depth = max_depth
        self.on_iteration = on_iteration
        self.state = prune_minimal(init_state(kernel.alphabet, length))
        self.t = 0

    def __call__(self, state, u: float):
        new, got = self.step_fn(state, u)
        try:
            want_state, slice_, unpruned = step(self.kernel, self.state, u, self.max_depth)
            want = (slice_.node_touches + unpruned.node_count(), slice_.depth,
                    slice_.is_regeneration, slice_.reach, want_state.is_coalesced())
        except MaxDepthExceeded:
            if got[3] > self.max_depth:
                return new, got  # for _backward to refuse
            want_state, want = self.state, None
        root = new if self.root_of is None else self.root_of(new)
        if got != want or (
            ContextTrie(self.kernel.alphabet, root) != want_state
            or self.size(new) != (want_state.leaf_count(), want_state.depth())
        ):
            raise InvariantViolation(
                f"at u={u!r} the step function gives {got} and the reference {want}"
                ", or their states or sizes differ"
            )
        self.state = want_state
        self.t -= 1
        self.on_iteration(StepAudit(self.t, slice_, unpruned, want_state))
        return new, got


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

    ``rng`` is any object with a ``seed`` and an iterator ``draws`` of
    doubles in [0, 1), such as :class:`RngStream`.  Draws are consumed in
    backward time order (the first draw belongs to time -1) until the
    composite map is constant, and none past it; one constant from the
    start (a one-symbol alphabet) takes no draw, as in :func:`pw_extended`.
    The kernel's family gives the loop its step function and start: the
    comb's for the renewal kernel, the slice table's for a finite-order
    kernel.  Budget violations raise with partial diagnostics attached.
    With ``on_iteration`` the family's step function runs beside the
    reference :func:`step` (:class:`_Audit`), which checks it on every draw
    and supplies the tries of each :class:`StepAudit`.  The hook sees t =
    -1, -2, ... up to the step that ends the run, the one that exhausts the
    node budget included, but not a draw that ``max_depth`` refuses.
    """
    if max_iter < 1 or max_depth < 1 or max_nodes < 1:
        raise ValueError("limits must be positive")
    start_ns = time.perf_counter_ns()
    root_of: Optional[Callable[[object], tuple]] = None
    if isinstance(kernel, RenewalSqrtKernel):
        state = _comb_start(kernel, length)
        constant = not state[0]
        # kernel.slice_depth is read once, here.  The comb's step function
        # is bound as a method, so each run's is the same Python function,
        # whose calls CPython keeps specialized; a new closure per run would
        # miss that specialization, and a functools.partial gets none.
        step_fn = MethodType(_comb_step, kernel.slice_depth)
        size, sample, root_of = _comb_size, _comb_sample, _comb_root
    else:
        table = slice_table(kernel, length)
        state = table.starts[length]
        step_fn, sample = table.step, _leaf_label
        constant = state[1] is None
        size = table.size
    if on_iteration is not None:
        step_fn = _Audit(step_fn, size, root_of, kernel, length, max_depth, on_iteration)
    return _backward(step_fn, state, constant, size, sample, rng, max_depth, max_iter,
                     max_nodes, trace, start_ns)


# -- extended Propp-Wilson baseline ---------------------------------------


PwTable = Tuple[Tuple[Context, ...], int]


class PwGaps:
    """What :func:`pw_extended`'s runs of one finite-order kernel share:
    the draws' gaps, each with its gather indices, and each window
    length's start.

    ``phi``'s values at the contexts of the kernel's order depend on a
    draw only through the gap between interval ends that holds it
    (:func:`~ciaftp.update_rule.phi_contexts`).  Gap ``i``, in ascending
    order, is ``[lows[i], lows[i + 1])``, the last one ending at 1.0, and
    its draws get ``values[i]``.  Every gap is found when the object is
    built, in one sweep from 0 up that evaluates the values at each gap's
    start, which must be where the last gap ended: a sweep of its own,
    which shares no code with :class:`SliceTable`'s.  ``layouts`` are the
    contexts' layouts (:func:`~ciaftp.update_rule.context_layouts`), whose
    build refuses a kernel that leaves draws unresolved, before any draw.
    A step of a table of histories of length m gathers through the index of
    its gap and m (:meth:`_gather`), which is kept once the next table is
    at the order, where every run spends all but its first max(0, L -
    order - 1) steps: so what is kept is at most two indices of |G|^order
    entries per gap, whatever L.  The object holds no kernel and lives in
    ``kernel.pw_gaps``, which a pickled kernel leaves behind.
    """

    __slots__ = ("layouts", "symbols", "order", "lows", "values", "gathers", "starts")

    def __init__(self, kernel: Kernel):
        self.layouts = context_layouts(kernel)
        self.symbols = kernel.alphabet.symbols
        self.order = max(kernel.order, 1)
        self.lows: List[float] = []
        self.values: List[List[int]] = []
        u = 0.0
        while u < 1.0:
            values, (lo, hi) = phi_contexts(self.layouts, u)
            if not lo == u < hi:
                raise InvariantViolation(f"the sweep at u={u!r} found the gap [{lo!r}, {hi!r})")
            self.lows.append(u)
            self.values.append(values)
            u = hi
        # per gap: m -> (getter, m', touches), for the m with m' = order
        self.gathers: List[Dict[int, tuple]] = [{} for _ in self.lows]
        self.starts: Dict[int, Tuple[PwTable, bool]] = {}

    def _gather(self, i: int, m: int) -> tuple:
        """``(getter, m', touches)`` of a step from histories of length m in
        gap ``i``.  History j of length m' = max(order, m - 1) draws the
        value g at its context, number j mod |G|^order, and moves on to
        history (j |G| + g) mod |G|^m, whose window it takes; every node
        of the full depth-m' trie is held, not only the leaves."""
        n, order, values = len(self.symbols), self.order, self.values[i]
        m_next = max(order, m - 1)
        size, count = n ** m, len(values)
        getter = itemgetter(*[(j * n + values[j % count]) % size
                              for j in range(n ** m_next)])
        # a one-symbol table is constant from the start, so n >= 2
        gather = (getter, m_next, (n ** (m_next + 1) - 1) // (n - 1))
        if m_next == order:
            self.gathers[i][m] = gather
        return gather

    def start(self, length: int) -> Tuple[PwTable, bool]:
        """The start at window length L, and whether it is constant:
        history i of length m = max(order, L) has its last L symbols,
        window number i mod |G|^L."""
        start = self.starts.get(length)
        if start is None:
            m = max(self.order, length)
            windows = list(itertools.product(self.symbols, repeat=length))
            table = tuple(windows * len(self.symbols) ** (m - length))
            start = self.starts[length] = ((table, m), table.count(table[0]) == len(table))
        return start

    def step(self, state: PwTable, u: float) -> Tuple[PwTable, StepReport]:
        """The step function of the composite map ``state`` = (table, m):
        the window of every history of length m, by history number in
        ``itertools.product`` order, with no adaptive dictionary and no
        pruning benefit: one bisection for the draw's gap, one gather and
        one count.  The next map is constant when its table holds one
        distinct value."""
        table, m = state
        i = bisect_right(self.lows, u) - 1
        getter, m_next, touches = self.gathers[i].get(m) or self._gather(i, m)
        new_table = getter(table)
        # phi resolves at the full order: no slice, so no depth budget
        return (new_table, m_next), (touches, 0, False, 0,
                                     new_table.count(new_table[0]) == len(new_table))


def _pw_size(state: PwTable) -> Tuple[int, int]:
    return len(state[0]), state[1]


def _pw_sample(state: PwTable) -> Context:
    return state[0][0]


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
    :func:`run`.  The kernel's runs share one :class:`PwGaps`, kept in
    ``kernel.pw_gaps``: its gaps, each with ``phi``'s values and gather
    indices, and each length's start.  A kernel with a context of its
    order that leaves some draws unresolved is refused before any draw is
    read (:func:`~ciaftp.update_rule.context_layouts`), and keeps nothing."""
    if max_iter < 1 or max_depth < 1 or max_nodes < 1:
        raise ValueError("limits must be positive")
    order = kernel.order
    if order is None:
        raise UnsupportedOperation("pw_extended needs a finite-order kernel")
    if length < 1:
        raise ValueError("window length must be >= 1")
    start_ns = time.perf_counter_ns()
    m = max(order, 1, length)
    check_enumeration(kernel.alphabet.size, m, f"histories of length {m}")
    gaps = kernel.pw_gaps
    if gaps is None:
        gaps = kernel.pw_gaps = PwGaps(kernel)
    state, constant = gaps.start(length)
    return _backward(gaps.step, state, constant, _pw_size, _pw_sample, rng, max_depth,
                     max_iter, max_nodes, trace, start_ns)


# -- batch driver ---------------------------------------------------------


@dataclass
class RunRow:
    """One line of the sample/bench reports: the run's sample, or the code
    of the budget error that ended it, and the run's own diagnostics (the
    error's, tau None, for a failed run)."""

    run_id: int
    sample: Optional[Context]
    error: Optional[str]
    diagnostics: RunDiagnostics


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
    ``"pw_extended"``, and ``trace`` keeps each run's iteration records in
    its row's diagnostics, and ``timing=False`` zeroes their ``wall_ns``.
    With ``jobs > 1`` the runs are split into contiguous blocks over that
    many processes, but never more than this process's usable CPUs; the
    rows come back in run order and never depend on ``jobs``.
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
        except BudgetError as exc:
            row = RunRow(idx, None, exc.code, exc.diagnostics)
        else:
            row = RunRow(idx, result.sample, None, result.diagnostics)
        if not timing:
            row.diagnostics.wall_ns = 0
        rows.append(row)
    return rows
