"""Transition kernels and their coupling coefficients.

A kernel gives the law of the next symbol conditionally on the whole past.
The only capability the sampler needs is the per-context lower-bound row:
for a finite context ``s``, the infimum of ``P(g | past)`` over all pasts
ending with ``s``, for each symbol ``g``, together with their total mass.
Mass 1 means the context fully resolves the kernel.

Built-in families:

* ``ContextTreeKernel`` - variable-length Markov chain given by a minimal
  labeled trie of distributions (covers full order-d and memoryless chains).
* ``RenewalSqrtKernel`` - the binary infinite-memory renewal kernel with
  ``P(next=0 | r trailing ones) = 1 - 1/sqrt(r+1)`` and a forced 1 after
  each 0.  Not regenerating: the empty context carries mass 0.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from math import sqrt
from typing import Dict, Iterator, Optional, Tuple

from .errors import (
    BadProbability,
    EnumerationGuardExceeded,
    IncompleteDictionary,
    IncompleteTrie,
    KernelSpecError,
    OverlappingContexts,
    TrieStructureError,
    UnknownSymbol,
    UnsupportedOperation,
)
from .tries import EMPTY, Alphabet, Context, ContextTrie, iter_leaves_below

PROB_TOL = 1e-12
ENUM_GUARD = 10**7
DEPTH_BOUND_TRUNCATION = 200  # the deepest A_k that expected_depth_bound reads

Distribution = Tuple[float, ...]


def check_enumeration(size: int, k: int, what: str) -> None:
    """Refuse, before anything is built, to list the ``size**k`` words of
    length k (``what``) past :data:`ENUM_GUARD`."""
    if size**k > ENUM_GUARD:
        raise EnumerationGuardExceeded(
            f"{what}: |G|^{k} = {size ** k} exceeds the enumeration guard {ENUM_GUARD}"
        )


def check_distribution(alphabet: Alphabet, probs: Distribution, where: str = "") -> None:
    if len(probs) != alphabet.size:
        raise BadProbability(f"distribution{where} has {len(probs)} entries, expected {alphabet.size}")
    if not all(0.0 <= p <= 1.0 for p in probs):
        raise BadProbability(f"distribution{where} has entries not in [0, 1]: {probs}")
    total = math.fsum(probs)
    if abs(total - 1.0) > PROB_TOL:
        raise BadProbability(f"distribution{where} sums to {total!r}, not 1 within {PROB_TOL}")


@dataclass(frozen=True)
class LowerBoundRow:
    """Per-symbol conditional-probability infima over one context ball."""

    lower: Distribution
    mass: float

    @property
    def resolved(self) -> bool:
        return resolves(self.mass)


def resolves(mass: float) -> bool:
    """Whether a context with this lower-bound mass determines the law."""
    return mass >= 1.0 - PROB_TOL


class Kernel:
    """Base class; subclasses implement :meth:`lower_bounds`."""

    family = "abstract"

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet
        # what the engine's runs of this kernel share, built on first use
        # and keyed by window length: the slice table (engine.slice_table)
        # of a finite-order kernel, one object under every length of one
        # depth bound max(order, L), with every gap found when it is built,
        # or the renewal comb's start
        self.slice_cache: Dict[int, object] = {}
        # what engine.pw_extended's runs of a finite-order kernel share:
        # the layouts of its contexts of exactly ``order`` symbols, every
        # draw's gap, each with its values at those contexts and its gather
        # indices, and each length's start (engine.PwGaps), all gaps found
        # when it is built
        self.pw_gaps: Optional[object] = None

    def __getstate__(self) -> dict:
        # the caches hold functions made at run time (step functions,
        # compiled programs), which do not pickle: every process builds its
        # own
        return dict(self.__dict__, slice_cache={}, pw_gaps=None)

    # Markov order, or None for infinite memory
    order: Optional[int] = None

    def lower_bounds(self, s: Context) -> LowerBoundRow:
        raise NotImplementedError

    def suffix_bounds(self, w: Context) -> Iterator[Tuple[Distribution, float]]:
        """``(lower, mass)`` of :meth:`lower_bounds` at the suffixes of ``w``
        of lengths 0..len(w), shortest first.  Past a finite order every
        suffix resolves to the law at its last ``order`` symbols, so the
        row at the order repeats and no longer suffix is sliced."""
        n, order = len(w), self.order
        for k in range(n + 1):
            if order is None or k <= order:
                row = self.lower_bounds(w[n - k:])
            yield row.lower, row.mass

    def distribution_at(self, s: Context) -> Distribution:
        """The exact next-symbol law at a resolving context."""
        row = self.lower_bounds(s)
        if not row.resolved:
            raise UnsupportedOperation(
                f"context {s} does not resolve the kernel (mass {row.mass})"
            )
        return row.lower

    def min_mass(self, k: int) -> float:
        """Worst-case lower-bound mass over all depth-k contexts."""
        if k < 0:
            raise ValueError("depth must be >= 0")
        check_enumeration(self.alphabet.size, k, f"depth-{k} contexts")
        return min(
            self.lower_bounds(ctx).mass
            for ctx in itertools.product(self.alphabet.symbols, repeat=k)
        )


class ContextTreeKernel(Kernel):
    """A finite context tree: one distribution per dictionary leaf."""

    family = "context_tree"

    def __init__(self, trie: ContextTrie):
        super().__init__(trie.alphabet)
        for ctx, probs in trie.leaves():
            check_distribution(trie.alphabet, probs, where=f" at context {ctx}")
        self.trie = trie
        # the trie is never changed, so its depth is read once
        self.order: int = trie.depth()
        self._rows: Dict[Context, LowerBoundRow] = {}

    def lower_bounds(self, s: Context) -> LowerBoundRow:
        row = self._rows.get(s)
        if row is None:
            hit = self.trie.find_suffix(s)
            if hit is None:
                # s ends at an internal node, and every internal node's row
                # is filled at the first such call
                self._fill_internal_rows()
                return self._rows[s]
            row = self._rows[s] = LowerBoundRow(hit[1], 1.0)
        return row

    def _fill_internal_rows(self) -> None:
        """The row of every internal node of the trie, in one post-order
        pass: a node's lower bound for a symbol is the minimum over the
        leaves below it, so the elementwise minimum of its children's (a
        leaf child's is its distribution), taken in the order of the
        leaves, and its mass is the ``fsum`` of that tuple."""
        symbols, rows = self.alphabet.symbols, self._rows
        internal = []  # parents before their children
        stack = [(EMPTY, self.trie.root)]
        while stack:
            ctx, node = stack.pop()
            if node[1] is not None:
                internal.append((ctx, node))
                stack.extend(((g,) + ctx, kid) for g, kid in zip(symbols, node[1:]))
        for ctx, node in reversed(internal):
            kids = [kid[2] if kid[1] is None else rows[(g,) + ctx].lower
                    for g, kid in zip(symbols, node[1:])]
            lower = tuple(map(min, zip(*kids)))
            rows[ctx] = LowerBoundRow(lower, math.fsum(lower))

    def min_mass(self, k: int) -> float:
        # a depth-k context either passes a leaf at depth <= k, and resolves
        # (mass 1), or is an internal node at depth k: read those nodes, not
        # all |G|^k contexts
        if k < 0:
            raise ValueError("depth must be >= 0")
        symbols = self.alphabet.symbols
        level = [(EMPTY, self.trie.root)]
        leaf_above = False
        for _ in range(k):
            leaf_above = leaf_above or any(node[1] is None for _, node in level)
            level = [((sym,) + ctx, child) for ctx, node in level if node[1] is not None
                     for sym, child in zip(symbols, node[1:])]
        masses = [1.0] if leaf_above else []
        masses += [1.0 if node[1] is None else self.lower_bounds(ctx).mass
                   for ctx, node in level]
        return min(masses)

    def oscillation(self, s: Context) -> float:
        """Largest total-variation distance between conditional laws of two
        pasts sharing suffix ``s``; zero once ``s`` resolves the tree."""
        if self.trie.find_suffix(s) is not None:
            return 0.0
        dists = [label for _, label in iter_leaves_below(self.trie, s)]
        best = 0.0
        for i in range(len(dists)):
            for j in range(i + 1, len(dists)):
                tv = 0.5 * math.fsum(abs(a - b) for a, b in zip(dists[i], dists[j]))
                if tv > best:
                    best = tv
        return best


def memoryless_kernel(alphabet: Alphabet, probs: Distribution) -> ContextTreeKernel:
    kernel = ContextTreeKernel(ContextTrie.from_leaves(alphabet, {(): tuple(probs)}))
    kernel.family = "memoryless"
    return kernel


def full_markov_kernel(
    alphabet: Alphabet, order: int, table: Dict[Context, Distribution]
) -> ContextTreeKernel:
    """Order-d chain: a distribution for every d-tuple."""
    if order < 1:
        raise ValueError("order must be >= 1")
    leaves = {}
    for ctx in itertools.product(alphabet.symbols, repeat=order):
        if ctx not in table:
            raise IncompleteDictionary(f"missing distribution for context {ctx}")
        leaves[ctx] = tuple(table[ctx])
    if len(table) != len(leaves):
        extra = next(c for c in table if c not in leaves)
        raise KernelSpecError(f"context {extra} does not have length {order}")
    kernel = ContextTreeKernel(ContextTrie.from_leaves(alphabet, leaves))
    kernel.family = "full_markov"
    return kernel


class RenewalSqrtKernel(Kernel):
    """Binary renewal kernel classified by the trailing-ones count r.

    After a 0 the next symbol is 1 with probability one; with r >= 1
    trailing ones the next symbol is 0 with probability 1 - 1/sqrt(r+1).
    An all-ones context of length k bounds only r >= k, leaving lower
    bounds (1 - 1/sqrt(k+1), 0); in particular the empty context carries
    mass 0 and slices can be arbitrarily deep.
    """

    family = "renewal_sqrt"

    def __init__(self) -> None:
        super().__init__(Alphabet(("0", "1")))

    @staticmethod
    def p_zero(trailing_ones: int) -> float:
        return 1.0 - 1.0 / sqrt(trailing_ones + 1)

    def _bounds(self, r: int, all_ones: bool) -> Tuple[Distribution, float]:
        """``(lower, mass)`` of a context ending in r ones, all of it ones or
        not: an all-ones context bounds only the 0-probability."""
        p0 = self.p_zero(r)
        if all_ones:
            return (p0, 0.0), p0
        if r == 0:
            return (0.0, 1.0), 1.0
        return (p0, 1.0 - p0), 1.0

    def lower_bounds(self, s: Context) -> LowerBoundRow:
        # only the symbols after the newest 0 are read
        r = s[::-1].index("0") if "0" in s else len(s)
        tail = s[len(s) - r:]
        if tail.count("1") != r:
            sym = next(x for x in reversed(tail) if x != "1")
            raise UnknownSymbol(f"symbol {sym!r} not in alphabet ('0', '1')")
        return LowerBoundRow(*self._bounds(r, r == len(s)))

    def suffix_bounds(self, w: Context) -> Iterator[Tuple[Distribution, float]]:
        # level k reads one symbol more, the k-th newest, so O(1) work per
        # level: the rows of all-ones suffixes (the empty one included),
        # then, from the level that reaches the newest 0, one resolved row
        # for every longer suffix
        n = len(w)
        for k in range(n + 1):
            if k and w[n - k] != "1":
                if w[n - k] != "0":
                    raise UnknownSymbol(f"symbol {w[n - k]!r} not in alphabet ('0', '1')")
                row = self._bounds(k - 1, False)
                for _ in range(k, n + 1):
                    yield row
                return
            yield self._bounds(k, True)

    def min_mass(self, k: int) -> float:
        # the minimizing depth-k context is the all-ones one
        return self.p_zero(k)

    def slice_depth(self, u: float) -> int:
        """Depth of the minimal slice for draw ``u``: the smallest m >= 1
        with ``u < 1 - 1/sqrt(m+1)``, on the exact float predicate
        ``u < p_zero(m)`` of the lower-bound rows."""
        if not 0.0 <= u < 1.0:
            raise ValueError("u must lie in [0, 1)")
        # u < 1 - 1/sqrt(m+1) iff m > 1/(1-u)^2 - 1, whose smallest integer
        # is m0 = floor(1/(1-u)^2) >= 1.  In floats m0 is the answer up to
        # about m = 2^29 and within 2 of it up to 2^35; deeper, p_zero is
        # flat over runs of m and m0 can be off by about m * sqrt(m) * 2^-52.
        # So check m0 first (the predicate written out), else, as p_zero
        # never decreases in floats, gallop from m0 to the nearest bracket
        # and bisect: two predicate calls at every depth up to about 2^29,
        # so on all but 2^-14.5 of the draws
        v = 1.0 - u
        m = int(1.0 / (v * v))
        if u < 1.0 - 1.0 / sqrt(m + 1) and (m == 1 or not u < 1.0 - 1.0 / sqrt(m)):
            return m
        p_zero = self.p_zero
        step = 1
        if u < p_zero(m):
            # the predicate is False at 0
            hi = m
            while hi - step > 0 and u < p_zero(hi - step):
                hi -= step
                step *= 2
            lo = max(0, hi - step)
        else:
            lo = m
            while not u < p_zero(lo + step):
                lo += step
                step *= 2
            hi = lo + step
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if u < p_zero(mid):
                hi = mid
            else:
                lo = mid
        return hi


@dataclass
class DepthBoundReport:
    """Truncated evaluation of the expected slice-depth bound."""

    bound: float
    sum_finite: bool


def expected_depth_bound(kernel: Kernel, window: int) -> DepthBoundReport:
    """Truncated bound on the expected dictionary depth for a length-
    ``window`` target, ``sum(1 - prod_{j>=k} A_j)`` over
    k <= :data:`DEPTH_BOUND_TRUNCATION`, with the tail of the product
    treated as 1 (so the value is a lower estimate).

    ``sum_finite`` reports whether ``sum_m prod_{k<=m} A_k`` looks finite
    numerically; finiteness means the classical regeneration-based
    termination criterion does NOT apply.
    """
    masses = [kernel.min_mass(k) for k in range(DEPTH_BOUND_TRUNCATION + 1)]
    bound = 0.0
    for k in range(1, window + 1):
        prod = 1.0
        for j in range(k, DEPTH_BOUND_TRUNCATION + 1):
            prod *= masses[j]
        bound += 1.0 - prod
    partial = 1.0
    for m in masses:
        partial *= m
    return DepthBoundReport(bound=bound, sum_finite=partial < 1e-9)


# -- kernel spec files ----------------------------------------------------

_FAMILIES = ("context_tree", "full_markov", "memoryless", "renewal_sqrt")


def parse_kernel_spec(text: str) -> Kernel:
    """Parse a UTF-8 JSON kernel spec into a validated kernel.

    Schema::

        {"alphabet": ["0", "1"],
         "type": "context_tree" | "full_markov" | "memoryless" | "renewal_sqrt",
         "contexts": [{"context": "<oldest-to-newest>", "probs": {"0": 0.4, ...}}, ...]}

    Context strings join symbol names without separator when every symbol
    is a single character, comma-joined otherwise; probabilities are JSON
    numbers.  The context set must form a complete suffix dictionary, and
    is empty (``[]`` or absent) for ``renewal_sqrt``.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise KernelSpecError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise KernelSpecError("top level must be a JSON object")
    family = doc.get("type")
    if family not in _FAMILIES:
        raise KernelSpecError(f"type must be one of {_FAMILIES}, got {family!r}")

    if family == "renewal_sqrt":
        if doc.get("alphabet", ["0", "1"]) != ["0", "1"]:
            raise KernelSpecError("renewal_sqrt requires alphabet ['0', '1']")
        if doc.get("contexts", []) != []:
            raise KernelSpecError("renewal_sqrt takes no contexts: give [] or leave it out")
        return RenewalSqrtKernel()

    raw_alphabet = doc.get("alphabet")
    if not isinstance(raw_alphabet, list) or not raw_alphabet:
        raise KernelSpecError("alphabet must be a non-empty list of symbol names")
    for g in raw_alphabet:
        if not isinstance(g, str):
            raise KernelSpecError(f"symbol names must be strings: {g!r}")
    try:
        alphabet = Alphabet(tuple(raw_alphabet))
    except ValueError as exc:
        raise KernelSpecError(str(exc)) from exc

    entries = doc.get("contexts")
    if not isinstance(entries, list) or not entries:
        raise KernelSpecError("contexts must be a non-empty list")
    leaves: Dict[Context, Distribution] = {}
    for entry in entries:
        if not isinstance(entry, dict) or "context" not in entry or "probs" not in entry:
            raise KernelSpecError(f"each context entry needs 'context' and 'probs': {entry!r}")
        if not isinstance(entry["context"], str):
            raise KernelSpecError(f"context must be a string: {entry['context']!r}")
        ctx = alphabet.parse_word(entry["context"])
        probs_map = entry["probs"]
        if not isinstance(probs_map, dict):
            raise BadProbability(f"probs for context {ctx} must be an object")
        for sym in probs_map:
            if sym not in alphabet:
                raise UnknownSymbol(f"probs for context {ctx} name unknown symbol {sym!r}")
        raw = [probs_map.get(g) for g in alphabet]
        # JSON numbers only (true and false are ints to Python, "0.5" is
        # text), in range before float() meets an int too large for it
        if not all(type(p) in (int, float) and 0 <= p <= 1 for p in raw):
            raise BadProbability(
                f"probs for context {ctx} must give each symbol a JSON number in [0, 1]: {probs_map}")
        probs = tuple(map(float, raw))
        check_distribution(alphabet, probs, where=f" at context {ctx}")
        if ctx in leaves:
            raise OverlappingContexts(f"context {ctx} appears twice")
        leaves[ctx] = probs

    try:
        trie = ContextTrie.from_leaves(alphabet, leaves)
    except IncompleteTrie as exc:
        raise IncompleteDictionary(str(exc)) from exc
    except TrieStructureError as exc:
        raise OverlappingContexts(str(exc)) from exc

    if family == "memoryless" and trie.depth() != 0:
        raise KernelSpecError("memoryless kernels take exactly the empty context")
    if family == "full_markov":
        d = trie.depth()
        if d == 0:
            raise KernelSpecError(
                "full_markov needs contexts of length >= 1; an order-0 chain is memoryless")
        if any(len(c) != d for c in trie.leaf_contexts()):
            raise KernelSpecError("full_markov requires all contexts of one length")

    kernel = ContextTreeKernel(trie)
    kernel.family = family
    return kernel


def load_kernel(path: str) -> Kernel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise KernelSpecError(f"{path} is not UTF-8 text: {exc}") from None
    return parse_kernel_spec(text)


def kernel_spec_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def kernel_to_spec(kernel: Kernel) -> str:
    """Serialize a kernel back to the JSON spec format."""
    if isinstance(kernel, RenewalSqrtKernel):
        doc = {"alphabet": list(kernel.alphabet.symbols), "type": "renewal_sqrt", "contexts": []}
    elif isinstance(kernel, ContextTreeKernel):
        contexts = [
            {
                "context": kernel.alphabet.format_word(ctx),
                "probs": {g: p for g, p in zip(kernel.alphabet.symbols, probs)},
            }
            for ctx, probs in sorted(kernel.trie.leaves())
        ]
        doc = {
            "alphabet": list(kernel.alphabet.symbols),
            "type": kernel.family,
            "contexts": contexts,
        }
    else:
        raise UnsupportedOperation(f"cannot serialize kernel family {kernel.family}")
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
