"""Finite contexts, the suffix order, and trie machinery.

A *context* is a finite word of most-recent symbols, stored oldest-to-newest:
``("0", "1")`` means "the symbol before last was 0, the last symbol was 1".
A complete suffix dictionary (CSD) is a set of contexts such that every
infinite past has exactly one suffix in the set.  CSDs are stored as tries in
which the edge nearest the root carries the MOST RECENT symbol, so trie
traversal consumes a context from its newest end.

``ContextTrie`` covers both plain dictionaries (labels ``None``) and
piecewise-constant maps (a label at every leaf).
"""

from __future__ import annotations

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


class _Node:
    __slots__ = ("children", "label")

    def __init__(self, children: Optional[Dict[Symbol, "_Node"]] = None, label: Any = None):
        self.children = children
        self.label = label


class ContextTrie:
    """A complete suffix dictionary, optionally with a label at each leaf.

    Use :meth:`from_leaves` to build one; direct construction assumes the
    root is already a valid complete trie.
    """

    __slots__ = ("alphabet", "root")

    def __init__(self, alphabet: Alphabet, root: _Node):
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
        if isinstance(leaves, Mapping):
            items: Iterable[Tuple[Context, Any]] = leaves.items()
        else:
            items = ((c, None) for c in leaves)

        root = _Node()
        declared: set[int] = set()
        empty = True
        for ctx, label in items:
            empty = False
            node = root
            # walk newest-to-oldest; create internal nodes along the way
            for i in range(1, len(ctx) + 1):
                sym = ctx[-i]
                if sym not in alphabet:
                    raise UnknownSymbol(f"symbol {sym!r} not in alphabet {alphabet.symbols}")
                if id(node) in declared:
                    raise TrieStructureError(
                        f"context {ctx} descends through leaf {ctx[len(ctx) - i + 1:]}"
                    )
                if node.children is None:
                    node.children = {}
                child = node.children.get(sym)
                if child is None:
                    child = _Node()
                    node.children[sym] = child
                node = child
            if node.children is not None:
                raise TrieStructureError(f"context {ctx} is an ancestor of another leaf")
            if id(node) in declared:
                raise TrieStructureError(f"duplicate leaf context {ctx}")
            declared.add(id(node))
            node.label = label
        if empty:
            raise TrieStructureError("a trie needs at least one leaf")

        trie = cls(alphabet, root)
        trie._finalize_and_check()
        return trie

    def _finalize_and_check(self) -> None:
        full = self.alphabet.size
        stack = [(self.root, EMPTY)]
        while stack:
            node, ctx = stack.pop()
            if node.children is None:
                continue
            if len(node.children) != full:
                missing = next(g for g in self.alphabet if g not in node.children)
                raise IncompleteTrie(
                    f"incomplete node at context {ctx}: no branch for symbol {missing!r} "
                    f"(uncovered context {(missing,) + ctx})"
                )
            for sym, child in node.children.items():
                stack.append((child, (sym,) + ctx))

    # -- queries ----------------------------------------------------------

    def find_suffix(self, h: Context) -> Optional[Tuple[Context, Any]]:
        """Return ``(leaf_context, label)`` for the unique suffix leaf of
        ``h``, or ``None`` if ``h`` is too short to resolve (ends at an
        internal node)."""
        node = self.root
        n = len(h)
        for i in range(n):
            if node.children is None:
                return (h[n - i:], node.label)
            sym = h[n - 1 - i]
            try:
                node = node.children[sym]
            except KeyError:
                raise UnknownSymbol(f"symbol {sym!r} not in alphabet {self.alphabet.symbols}")
        if node.children is None:
            return (h, node.label)
        return None

    def node_at(self, ctx: Context) -> _Node:
        node = self.root
        for i in range(1, len(ctx) + 1):
            if node.children is None:
                raise TrieStructureError(f"context {ctx} passes through a leaf")
            node = node.children[ctx[-i]]
        return node

    def leaves(self) -> Iterator[Tuple[Context, Any]]:
        """Yield ``(context, label)`` for every leaf."""
        yield from _iter_leaves(self.root, EMPTY)

    def leaf_contexts(self) -> Iterator[Context]:
        for ctx, _ in self.leaves():
            yield ctx

    def depth(self) -> int:
        best = 0
        stack = [(self.root, 0)]
        while stack:
            node, d = stack.pop()
            if node.children is None:
                if d > best:
                    best = d
            else:
                for child in node.children.values():
                    stack.append((child, d + 1))
        return best

    def leaf_count(self) -> int:
        return sum(1 for _ in self.leaves())

    def node_count(self) -> int:
        count = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            count += 1
            if node.children is not None:
                stack.extend(node.children.values())
        return count

    def is_coalesced(self) -> bool:
        """True iff the dictionary is the root-only trie {eps}."""
        return self.root.children is None

    def root_label(self) -> Any:
        return self.root.label

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ContextTrie):
            return NotImplemented
        return self.alphabet == other.alphabet and dict(self.leaves()) == dict(other.leaves())

    def __hash__(self):  # mutable-ish structure; containers should use ids
        return id(self)

    # -- debug output -----------------------------------------------------

    def to_text(self) -> str:
        lines: list[str] = []
        stack: list[tuple[_Node, Optional[Symbol], int]] = [(self.root, None, 0)]
        while stack:
            node, sym, indent = stack.pop()
            head = "." if sym is None else sym
            if node.children is None:
                lab = "" if node.label is None else f"  -> {_fmt_label(node.label)}"
                lines.append("  " * indent + head + lab)
            else:
                lines.append("  " * indent + head)
                for g in reversed(self.alphabet.symbols):
                    stack.append((node.children[g], g, indent + 1))
        return "\n".join(lines)


def _fmt_label(label: Any) -> str:
    if isinstance(label, tuple):
        return ",".join(str(x) for x in label)
    return str(label)


def _iter_leaves(node: _Node, ctx: Context) -> Iterator[Tuple[Context, Any]]:
    stack = [(node, ctx)]
    while stack:
        nd, c = stack.pop()
        if nd.children is None:
            yield (c, nd.label)
        else:
            for sym, child in nd.children.items():
                stack.append((child, (sym,) + c))


def iter_leaves_below(trie: ContextTrie, ctx: Context) -> Iterator[Tuple[Context, Any]]:
    """Yield ``(extension, label)`` for leaves below the node at ``ctx``;
    the leaf's full context is ``extension + ctx``."""
    yield from _iter_leaves(trie.node_at(ctx), EMPTY)


def dominates(dp: ContextTrie, d: ContextTrie) -> bool:
    """True iff every leaf of ``dp`` has a suffix among the leaves of ``d``."""
    if dp.alphabet != d.alphabet:
        raise ValueError("dictionaries must share an alphabet")
    return all(d.find_suffix(s) is not None for s in dp.leaf_contexts())


def prune_minimal(trie: ContextTrie) -> ContextTrie:
    """The unique minimal trie representing the same piecewise-constant map.

    Post-order: whenever all children of a node are leaves with equal
    labels, the node becomes a leaf with that label.  Labels are compared
    by exact equality.  The input is not modified.
    """

    # iterative post-order (tries can be deeper than the recursion limit)
    done: Dict[int, _Node] = {}
    stack = [(trie.root, False)]
    while stack:
        node, expanded = stack.pop()
        if node.children is None:
            done[id(node)] = _Node(None, node.label)
        elif not expanded:
            stack.append((node, True))
            for child in node.children.values():
                stack.append((child, False))
        else:
            kids = {sym: done[id(child)] for sym, child in node.children.items()}
            first = next(iter(kids.values()))
            if first.children is None and all(
                c.children is None and c.label == first.label for c in kids.values()
            ):
                done[id(node)] = _Node(None, first.label)
            else:
                done[id(node)] = _Node(kids)
    return ContextTrie(trie.alphabet, done[id(trie.root)])


def prefix_closure(d: ContextTrie) -> ContextTrie:
    """The minimal prefix-closed CSD dominating ``d``.

    Collects every nonempty prefix (initial, i.e. oldest, segment) of every
    leaf and keeps the maximal elements for the suffix order.  Satisfies
    ``|closure| <= |d| * depth(d)``.
    """
    leaves = list(d.leaf_contexts())
    if leaves == [EMPTY]:
        return ContextTrie.from_leaves(d.alphabet, [EMPTY])
    prefixes = set()
    for s in leaves:
        for j in range(1, len(s) + 1):
            prefixes.add(s[:j])
    maximal = [
        t
        for t in prefixes
        if not any(u != t and is_suffix(t, u) for u in prefixes)
    ]
    return ContextTrie.from_leaves(d.alphabet, maximal)


def complete_trie(alphabet: Alphabet, depth: int, label_fn=None) -> ContextTrie:
    """The complete trie of the given depth; leaf ``s`` labeled
    ``label_fn(s)`` when a label function is supplied."""
    import itertools

    leaves: Dict[Context, Any] = {}
    for tup in itertools.product(alphabet.symbols, repeat=depth):
        leaves[tup] = None if label_fn is None else label_fn(tup)
    return ContextTrie.from_leaves(alphabet, leaves)
