"""Outside-in span tracer for the ciaftp layers.

The tracer replaces the module-level names the engine calls through (and two
methods of the kernel instance) with timing wrappers, so no library file is
changed.  Each wrapped call becomes one span: name, caller category, parent
span, run seed, start, end and self time.  Spans stay in compact in-memory
arrays until :meth:`Tracer.write` saves them.

Self time is the span's duration minus the time its child wrappers cover,
where a child covers its whole wrapper, bookkeeping included; so the
bookkeeping a child does after its callee returns (node counts, leaf counts)
is charged to nobody.  The caller category is the innermost enclosing span
among ``engine.run`` (``run``), ``engine.pw_extended`` (``pw``),
``engine.init_state`` (``init``), ``update_rule.build_slice`` (``slice``)
and ``engine.step`` (``compose``); it separates, for example, the
``from_leaves`` that builds a slice from the one that composes the state.

A name that no longer exists in the library is skipped and reports zero
calls.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ciaftp import engine, update_rule
from ciaftp.tries import ContextTrie

CATEGORIES = ("none", "run", "pw", "init", "slice", "compose")
RUN, PW, INIT, SLICE, COMPOSE = 1, 2, 3, 4, 5

NAMES = (
    "engine.run",
    "engine.pw_extended",
    "engine.init_state",
    "engine.step",
    "update_rule.build_slice",
    "update_rule.phi",
    "tries.from_leaves",
    "tries.prune_minimal",
    "tries.find_suffix",
    "kernels.lower_bounds",
    "kernels.slice_depth",
)
NAME_ID = {name: i for i, name in enumerate(NAMES)}

Aux = Callable[[tuple, object], Tuple[int, int]]


def _slice_aux(args: tuple, result) -> Tuple[int, int]:
    return result.depth, result.trie.leaf_count()


def _leaves_aux(args: tuple, result) -> Tuple[int, int]:
    # from_leaves(cls, alphabet, leaves): a plain iterable of leaves has no length
    leaves = args[2]
    return (len(leaves) if hasattr(leaves, "__len__") else 0), 0


def _prune_aux(args: tuple, result) -> Tuple[int, int]:
    return args[0].node_count(), result.node_count()


def _depth_aux(args: tuple, result) -> Tuple[int, int]:
    # a draw within 1e-9 of 1 has a depth beyond int64
    return min(result, 2**62), 0


class Tracer:
    """Span recorder; :meth:`installed` puts its wrappers in place."""

    def __init__(self) -> None:
        self.columns: Dict[str, array] = {
            "id": array("q"),
            "parent": array("q"),
            "name": array("b"),
            "cat": array("b"),
            "seed": array("q"),
            "start": array("q"),
            "end": array("q"),
            "self_ns": array("q"),
            "a": array("q"),
            "b": array("q"),
        }
        # open spans: [span id, category, ns covered by child wrappers]
        self._stack: List[list] = []
        self._next_id = 0
        self.seed = -1
        self.lower_bounds_seen: set = set()

    def wrap(self, name: str, fn: Callable, category: Optional[int] = None,
             aux: Optional[Aux] = None) -> Callable:
        nid = NAME_ID[name]
        cols = self.columns
        c_id, c_parent, c_name, c_cat = cols["id"], cols["parent"], cols["name"], cols["cat"]
        c_seed, c_start, c_end, c_self = cols["seed"], cols["start"], cols["end"], cols["self_ns"]
        c_a, c_b = cols["a"], cols["b"]
        stack = self._stack

        def record(frame: list, parent: Optional[list], t0: int, t1: int, a: int, b: int) -> None:
            c_id.append(frame[0])
            c_parent.append(parent[0] if parent else -1)
            c_name.append(nid)
            c_cat.append(frame[1])
            c_seed.append(self.seed)
            c_start.append(t0)
            c_end.append(t1)
            c_self.append(t1 - t0 - frame[2])
            c_a.append(a)
            c_b.append(b)

        def wrapper(*args, **kwargs):
            t_enter = perf_counter_ns()
            parent = stack[-1] if stack else None
            cat = category if category is not None else (parent[1] if parent else 0)
            frame = [self._next_id, cat, 0]
            self._next_id += 1
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = perf_counter_ns()
                stack.pop()
                record(frame, parent, t0, t1, -1, -1)
                if parent is not None:
                    parent[2] += perf_counter_ns() - t_enter
                raise
            t1 = perf_counter_ns()
            stack.pop()
            a, b = aux(args, result) if aux is not None else (0, 0)
            record(frame, parent, t0, t1, a, b)
            if parent is not None:
                parent[2] += perf_counter_ns() - t_enter
            return result

        return wrapper

    @contextmanager
    def installed(self, kernel) -> Iterator[None]:
        """Swap the traced names in (skipping any that no longer exist) and
        restore them on exit."""
        restore: List[Callable[[], None]] = []

        def swap(owner, attr: str, name: str, category=None, aux=None) -> None:
            original = getattr(owner, attr, None)
            if original is None:
                return
            setattr(owner, attr, self.wrap(name, original, category, aux))
            restore.append(lambda: setattr(owner, attr, original))

        def swap_kernel(attr: str, name: str, aux: Aux) -> None:
            original = getattr(kernel, attr, None)
            if original is None:
                return
            setattr(kernel, attr, self.wrap(name, original, None, aux))
            restore.append(lambda: delattr(kernel, attr))

        def first_seen(args: tuple, result) -> Tuple[int, int]:
            if args[0] in self.lower_bounds_seen:
                return 0, 0
            self.lower_bounds_seen.add(args[0])
            return 1, 0

        try:
            swap(engine, "step", "engine.step", COMPOSE)
            swap(engine, "init_state", "engine.init_state", INIT)
            swap(engine, "build_slice", "update_rule.build_slice", SLICE, _slice_aux)
            swap(engine, "prune_minimal", "tries.prune_minimal", None, _prune_aux)
            swap(update_rule, "prune_minimal", "tries.prune_minimal", None, _prune_aux)
            swap(engine, "phi", "update_rule.phi")
            from_leaves = ContextTrie.__dict__.get("from_leaves")
            if from_leaves is not None:
                ContextTrie.from_leaves = classmethod(
                    self.wrap("tries.from_leaves", from_leaves.__func__, None, _leaves_aux))
                restore.append(lambda: setattr(ContextTrie, "from_leaves", from_leaves))
            swap(ContextTrie, "find_suffix", "tries.find_suffix")
            swap_kernel("lower_bounds", "kernels.lower_bounds", first_seen)
            swap_kernel("slice_depth", "kernels.slice_depth", _depth_aux)
            yield
        finally:
            for undo in reversed(restore):
                undo()

    def arrays(self) -> Dict[str, np.ndarray]:
        # copies, so the columns can still grow after a snapshot
        return {key: np.frombuffer(col, dtype=col.typecode).copy() if len(col) else
                np.zeros(0, dtype=col.typecode) for key, col in self.columns.items()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(NAMES), categories=np.array(CATEGORIES), **self.arrays())
