"""Finite contexts, the suffix order, and trie machinery.

A *context* is a finite word of most-recent symbols, stored oldest-to-newest:
``("0", "1")`` means "the symbol before last was 0, the last symbol was 1".
A complete suffix dictionary (CSD) is a set of contexts such that every
infinite past has exactly one suffix in the set.  CSDs are stored as tries in
which the edge nearest the root carries the MOST RECENT symbol, so trie
traversal consumes a context from its newest end.

``ContextTrie`` covers both plain dictionaries (labels ``None``) and
piecewise-constant maps (a label at every leaf), on the immutable nodes
the engine's composite maps are built from: one node format for both.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, Mapping, Optional, Tuple

from .errors import IncompleteTrie, TrieStructureError, UnknownSymbol

Symbol = str
Context = Tuple[Symbol, ...]

EMPTY: Context = ()


@dataclass(frozen=True)
class Alphabet:
    """A finite ordered alphabet; the order fixes the coupling layout."""

    symbols: Tuple[Symbol, ...]

    def __post_init__(self) -> None:
        if len(self.symbols) == 0:
            raise ValueError("alphabet must not be empty")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be distinct")
        # longer names are written joined by "," (format_word)
        if not self.single_char and any(g == "" or "," in g for g in self.symbols):
            raise ValueError(
                f"symbol names {self.symbols} must be non-empty and free of ',' "
                "unless every name is one character"
            )
        object.__setattr__(self, "_index", {g: i for i, g in enumerate(self.symbols)})

    @property
    def size(self) -> int:
        return len(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self.symbols)

    def __contains__(self, sym: object) -> bool:
        return sym in self._index  # type: ignore[attr-defined]

    def index(self, sym: Symbol) -> int:
        try:
            return self._index[sym]  # type: ignore[attr-defined]
        except KeyError:
            raise UnknownSymbol(f"symbol {sym!r} not in alphabet {self.symbols}")

    @property
    def single_char(self) -> bool:
        return all(len(g) == 1 for g in self.symbols)

    def parse_word(self, text: str) -> Context:
        """Parse an oldest-to-newest context string (see kernel spec format)."""
        if text == "":
            return EMPTY
        parts = tuple(text) if self.single_char else tuple(text.split(","))
        for g in parts:
            if g not in self:
                raise UnknownSymbol(f"symbol {g!r} not in alphabet {self.symbols}")
        return parts

    def format_word(self, word: Context) -> str:
        sep = "" if self.single_char else ","
        return sep.join(word)


def is_suffix(s: Context, h: Context) -> bool:
    """True iff the last ``len(s)`` symbols of ``h`` equal ``s``."""
    n = len(s)
    if n == 0:
        return True
    if len(h) < n:
        return False
    return h[-n:] == s


# Trie nodes.  A leaf is ``(None, 1, label)`` and an internal node
# ``(children, tree size)``, with one child per alphabet symbol, in alphabet
# order.  Every internal node has |G| children, so a tree of n nodes has
# ((|G| - 1) * n + 1) / |G| leaves.  A node is never changed once built, so
# tries share subtrees by reference.  Every walk below is iterative:
# CPython's tuple ``==`` and pickling recurse, two levels per trie level,
# and fail past about 500 of them.


def internal_node(kids: tuple) -> tuple:
    size = 1
    for k in kids:
        size += k[1]
    return (kids, size)


def minimal_node(kids: tuple) -> tuple:
    """The node over ``kids`` (its children in alphabet order) under the
    rule of :func:`prune_minimal`: the first child when all of them are
    leaves with equal labels."""
    first = kids[0]
    if first[0] is None and all(k[0] is None and k[2] == first[2] for k in kids):
        return first
    return internal_node(kids)


def node_depth(node: tuple) -> int:
    """The depth of the trie below ``node``, one level at a time, each
    distinct internal node of a level once."""
    depth = 0
    level = [] if node[0] is None else [node]
    while level:
        depth += 1
        level = list({id(k): k for nd in level for k in nd[0] if k[0] is not None}.values())
    return depth


def _iter_leaves(node: tuple, symbols: Tuple[Symbol, ...]) -> Iterator[Tuple[Context, Any]]:
    # in alphabet order of the newest symbol first
    stack = [(node, EMPTY)]
    while stack:
        nd, c = stack.pop()
        kids = nd[0]
        if kids is None:
            yield (c, nd[2])
        else:
            for sym, child in zip(reversed(symbols), reversed(kids)):
                stack.append((child, (sym,) + c))


def _freeze(symbols: Tuple[Symbol, ...], staged: Any) -> tuple:
    """The staged trie (a dict of children per internal node, a leaf node
    per leaf) as nodes, in one post-order pass that refuses a node with a
    missing branch."""
    holder = {None: staged}
    path: list = []  # the keys from the holder down to the node last opened
    # (node, its parent, its key there, its depth), or depth -1 to close it
    stack = [(staged, holder, None, 0)] if type(staged) is dict else []
    while stack:
        node, parent, key, depth = stack.pop()
        if depth < 0:
            parent[key] = internal_node(tuple(map(node.__getitem__, symbols)))
            continue
        path[depth:] = [key]
        if len(node) != len(symbols):
            ctx = tuple(reversed(path[1:]))
            missing = next(g for g in symbols if g not in node)
            raise IncompleteTrie(f"incomplete node at context {ctx}: no branch for symbol "
                                 f"{missing!r} (uncovered context {(missing,) + ctx})")
        stack.append((node, parent, key, -1))
        for sym, child in node.items():
            if type(child) is dict:
                stack.append((child, node, sym, depth + 1))
    return holder[None]


class ContextTrie:
    """A complete suffix dictionary, optionally with a label at each leaf.

    Use :meth:`from_leaves` to build one; direct construction assumes the
    root is already a valid complete trie (see the node layout above).
    """

    __slots__ = ("alphabet", "root")

    def __init__(self, alphabet: Alphabet, root: tuple):
        self.alphabet = alphabet
        self.root = root

    @classmethod
    def from_leaves(
        cls,
        alphabet: Alphabet,
        leaves: Iterable[Context] | Mapping[Context, Any],
    ) -> "ContextTrie":
        """Build and validate a trie from its leaf contexts.

        Rejects overlapping leaves (one a suffix of another), duplicate
        leaves, and incomplete branching.
        """
        items = leaves.items() if isinstance(leaves, Mapping) else ((c, None) for c in leaves)
        # staged as _freeze reads it, the root under the key None
        known = alphabet._index  # type: ignore[attr-defined]
        top: Dict[Optional[Symbol], Any] = {}
        for ctx, label in items:
            node, key = top, None
            # walk newest-to-oldest; create internal nodes along the way
            for depth, sym in enumerate(reversed(ctx)):
                if sym not in known:
                    raise UnknownSymbol(f"symbol {sym!r} not in alphabet {alphabet.symbols}")
                child = node.get(key)
                if child is None:
                    child = node[key] = {}
                elif type(child) is tuple:
                    raise TrieStructureError(
                        f"context {ctx} descends through leaf {ctx[len(ctx) - depth:]}"
                    )
                node, key = child, sym
            child = node.get(key)
            if type(child) is dict:
                raise TrieStructureError(f"context {ctx} is an ancestor of another leaf")
            if child is not None:
                raise TrieStructureError(f"duplicate leaf context {ctx}")
            node[key] = (None, 1, label)
        if not top:
            raise TrieStructureError("a trie needs at least one leaf")
        return cls(alphabet, _freeze(alphabet.symbols, top[None]))

    def __reduce__(self):
        # rebuilt from its leaves, validated on load: a pickled node tuple
        # would recurse once per trie level
        return (type(self).from_leaves, (self.alphabet, dict(self.leaves())))

    # -- queries ----------------------------------------------------------

    def find_suffix(self, h: Context) -> Optional[Tuple[Context, Any]]:
        """Return ``(leaf_context, label)`` for the unique suffix leaf of
        ``h``, or ``None`` if ``h`` is too short to resolve (ends at an
        internal node)."""
        node = self.root
        index = self.alphabet.index
        n = len(h)
        for i in range(n):
            kids = node[0]
            if kids is None:
                return (h[n - i:], node[2])
            node = kids[index(h[n - 1 - i])]
        if node[0] is None:
            return (h, node[2])
        return None

    def node_at(self, ctx: Context) -> tuple:
        node = self.root
        index = self.alphabet.index
        for i in range(1, len(ctx) + 1):
            if node[0] is None:
                raise TrieStructureError(f"context {ctx} passes through a leaf")
            node = node[0][index(ctx[-i])]
        return node

    def leaves(self) -> Iterator[Tuple[Context, Any]]:
        """Yield ``(context, label)`` for every leaf."""
        return _iter_leaves(self.root, self.alphabet.symbols)

    def leaf_contexts(self) -> Iterator[Context]:
        return (ctx for ctx, _ in self.leaves())

    def depth(self) -> int:
        return node_depth(self.root)

    def leaf_count(self) -> int:
        n = self.alphabet.size
        return ((n - 1) * self.root[1] + 1) // n

    def node_count(self) -> int:
        return self.root[1]

    def is_coalesced(self) -> bool:
        """True iff the dictionary is the root-only trie {eps}."""
        return self.root[0] is None

    def root_label(self) -> Any:
        return self.root[2] if self.root[0] is None else None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ContextTrie):
            return NotImplemented
        if self.alphabet != other.alphabet:
            return False
        # node by node, labels by equality
        stack = [(self.root, other.root)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a[0] is None or b[0] is None:
                if a[0] is not b[0] or a[2] != b[2]:
                    return False
            elif a[1] != b[1]:
                return False
            else:
                stack.extend(zip(a[0], b[0]))
        return True

    def __hash__(self):  # equal tries are not one object; containers use ids
        return id(self)

    # -- debug output -----------------------------------------------------

    def to_text(self) -> str:
        lines: list[str] = []
        symbols = self.alphabet.symbols
        stack: list[tuple[tuple, Optional[Symbol], int]] = [(self.root, None, 0)]
        while stack:
            node, sym, indent = stack.pop()
            head = "." if sym is None else sym
            if node[0] is None:
                lab = "" if node[2] is None else f"  -> {_fmt_label(node[2])}"
                lines.append("  " * indent + head + lab)
            else:
                lines.append("  " * indent + head)
                for g, child in zip(reversed(symbols), reversed(node[0])):
                    stack.append((child, g, indent + 1))
        return "\n".join(lines)


def _fmt_label(label: Any) -> str:
    if isinstance(label, tuple):
        return ",".join(str(x) for x in label)
    return str(label)


def iter_leaves_below(trie: ContextTrie, ctx: Context) -> Iterator[Tuple[Context, Any]]:
    """Yield ``(extension, label)`` for leaves below the node at ``ctx``;
    the leaf's full context is ``extension + ctx``."""
    return _iter_leaves(trie.node_at(ctx), trie.alphabet.symbols)


def dominates(dp: ContextTrie, d: ContextTrie) -> bool:
    """True iff every leaf of ``dp`` has a suffix among the leaves of ``d``."""
    if dp.alphabet != d.alphabet:
        raise ValueError("dictionaries must share an alphabet")
    return all(d.find_suffix(s) is not None for s in dp.leaf_contexts())


def prune_minimal(trie: ContextTrie) -> ContextTrie:
    """The unique minimal trie representing the same piecewise-constant map.

    Post-order: whenever all children of a node are leaves with equal
    labels, the node becomes a leaf with that label (:func:`minimal_node`).
    Labels are compared by exact equality.  The input is not modified;
    its leaves, and each shared subtree's result, are reused.
    """
    done: Dict[int, tuple] = {}
    stack = [(trie.root, False)]
    while stack:
        node, closing = stack.pop()
        kids = node[0]
        if kids is None:
            done[id(node)] = node
        elif closing:
            done[id(node)] = minimal_node(tuple(done[id(k)] for k in kids))
        elif id(node) not in done:
            stack.append((node, True))
            stack.extend((k, False) for k in kids)
    return ContextTrie(trie.alphabet, done[id(trie.root)])


def prefix_closure(d: ContextTrie) -> ContextTrie:
    """The minimal prefix-closed CSD dominating ``d``.

    Collects every nonempty prefix (initial, i.e. oldest, segment) of every
    leaf and keeps the maximal elements for the suffix order.  Satisfies
    ``|closure| <= |d| * depth(d)``.
    """
    if d.is_coalesced():
        return ContextTrie.from_leaves(d.alphabet, [EMPTY])
    prefixes = {s[:j] for s in d.leaf_contexts() for j in range(1, len(s) + 1)}
    maximal = [t for t in prefixes if not any(u != t and is_suffix(t, u) for u in prefixes)]
    return ContextTrie.from_leaves(d.alphabet, maximal)


def complete_trie(alphabet: Alphabet, depth: int, label_fn=None) -> ContextTrie:
    """The complete trie of the given depth; leaf ``s`` labeled
    ``label_fn(s)`` when a label function is supplied."""
    return ContextTrie.from_leaves(alphabet, {
        s: None if label_fn is None else label_fn(s)
        for s in itertools.product(alphabet.symbols, repeat=depth)})
