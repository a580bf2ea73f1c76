import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciaftp.errors import IncompleteTrie, TrieStructureError, UnknownSymbol
from ciaftp.tries import (
    Alphabet,
    ContextTrie,
    complete_trie,
    dominates,
    is_suffix,
    iter_leaves_below,
    prefix_closure,
    prune_minimal,
)

from helpers import BINARY, TERNARY, random_csd

DESK_LEAVES = {("0",): "a", ("0", "1"): "b", ("1", "1"): "c"}


def desk_trie():
    return ContextTrie.from_leaves(BINARY, DESK_LEAVES)


def test_alphabet_word_roundtrip():
    assert BINARY.parse_word("011") == ("0", "1", "1")
    assert BINARY.parse_word("") == ()
    assert BINARY.format_word(("0", "1")) == "01"
    multi = Alphabet(("lo", "hi"))
    assert multi.parse_word("lo,hi") == ("lo", "hi")
    assert multi.format_word(("hi", "lo")) == "hi,lo"
    with pytest.raises(UnknownSymbol):
        BINARY.parse_word("02")


def test_alphabet_rejects_duplicates():
    with pytest.raises(ValueError):
        Alphabet(("0", "0"))
    with pytest.raises(ValueError):
        Alphabet(())


@pytest.mark.parametrize("symbols", [("a,b", "c"), ("lo", ","), ("", "hi"), ("a", "")])
def test_alphabet_rejects_names_words_cannot_hold(symbols):
    # names longer than one character are joined by ",", so none may be
    # empty or contain ","
    with pytest.raises(ValueError):
        Alphabet(symbols)


def test_single_char_alphabet_may_use_a_comma():
    alphabet = Alphabet((",", "a"))
    assert alphabet.parse_word(",a,") == (",", "a", ",")
    assert alphabet.format_word((",", "a")) == ",a"


def test_is_suffix():
    assert is_suffix((), ("0", "1"))
    assert is_suffix(("1",), ("0", "1"))
    assert not is_suffix(("0",), ("0", "1"))
    assert is_suffix(("0", "1"), ("0", "1"))
    assert not is_suffix(("0", "1", "1"), ("1", "1"))


def test_from_leaves_desk_structure():
    t = desk_trie()
    assert dict(t.leaves()) == DESK_LEAVES
    assert t.depth() == 2
    assert t.leaf_count() == 3
    assert t.node_count() == 5
    assert not t.is_coalesced()


def test_find_suffix_resolution():
    t = desk_trie()
    # newest symbol is the last tuple entry
    assert t.find_suffix(("0",)) == (("0",), "a")
    assert t.find_suffix(("1",)) is None  # needs one more symbol
    assert t.find_suffix(("0", "1")) == (("0", "1"), "b")
    assert t.find_suffix(("1", "0", "1")) == (("0", "1"), "b")
    assert t.find_suffix(("0", "1", "1")) == (("1", "1"), "c")
    assert t.find_suffix(()) is None


def test_find_suffix_unknown_symbol():
    with pytest.raises(UnknownSymbol):
        desk_trie().find_suffix(("x",))


def test_from_leaves_rejects_overlap():
    with pytest.raises(TrieStructureError) as exc:
        ContextTrie.from_leaves(BINARY, [("0",), ("0", "1"), ("1", "1"), ("1",)])
    assert not isinstance(exc.value, IncompleteTrie)


def test_from_leaves_rejects_incomplete():
    with pytest.raises(IncompleteTrie) as exc:
        ContextTrie.from_leaves(BINARY, [("0",), ("0", "1")])
    assert "1" in str(exc.value)  # names an uncovered context


def test_from_leaves_rejects_duplicate_and_empty():
    with pytest.raises(TrieStructureError):
        ContextTrie.from_leaves(BINARY, [("0",), ("0",), ("1",)])
    with pytest.raises(TrieStructureError):
        ContextTrie.from_leaves(BINARY, [])


def test_root_only_trie():
    t = ContextTrie.from_leaves(BINARY, {(): "z"})
    assert t.is_coalesced()
    assert t.root_label() == "z"
    assert t.depth() == 0
    assert t.find_suffix(("0", "1")) == ((), "z")


def test_iter_leaves_below():
    t = desk_trie()
    below = dict(iter_leaves_below(t, ("1",)))
    assert below == {("0",): "b", ("1",): "c"}
    assert dict(iter_leaves_below(t, ())) == DESK_LEAVES


def test_dominates():
    full2 = complete_trie(BINARY, 2)
    assert dominates(full2, desk_trie())
    assert not dominates(desk_trie(), full2)
    assert dominates(desk_trie(), desk_trie())
    root = ContextTrie.from_leaves(BINARY, [()])
    assert dominates(desk_trie(), root)
    assert not dominates(root, desk_trie())


def test_prune_minimal_merges_equal_labels():
    t = ContextTrie.from_leaves(
        BINARY, {("0",): "x", ("0", "1"): "x", ("1", "1"): "x"}
    )
    p = prune_minimal(t)
    assert p.is_coalesced() and p.root_label() == "x"
    # distinct labels survive untouched
    q = prune_minimal(desk_trie())
    assert dict(q.leaves()) == DESK_LEAVES


def test_prune_minimal_partial_merge():
    t = ContextTrie.from_leaves(
        BINARY, {("0",): "x", ("0", "1"): "y", ("1", "1"): "y"}
    )
    p = prune_minimal(t)
    assert dict(p.leaves()) == {("0",): "x", ("1",): "y"}


def test_prune_does_not_mutate_input():
    t = ContextTrie.from_leaves(BINARY, {("0",): "x", ("1",): "x"})
    prune_minimal(t)
    assert t.leaf_count() == 2


def test_prefix_closure_fixture():
    # {0, 001, 101, 11} closes to {00, 10, 001, 101, 11}
    d = ContextTrie.from_leaves(
        BINARY, [("0",), ("0", "0", "1"), ("1", "0", "1"), ("1", "1")]
    )
    closed = set(prefix_closure(d).leaf_contexts())
    assert closed == {
        ("0", "0"),
        ("1", "0"),
        ("0", "0", "1"),
        ("1", "0", "1"),
        ("1", "1"),
    }


def test_prefix_closure_already_closed():
    d = desk_trie()
    assert set(prefix_closure(d).leaf_contexts()) == set(DESK_LEAVES)
    root = ContextTrie.from_leaves(BINARY, [()])
    assert list(prefix_closure(root).leaf_contexts()) == [()]


@pytest.mark.parametrize("alphabet", [BINARY, TERNARY])
def test_prefix_closure_properties_random(alphabet):
    rng = np.random.Generator(np.random.PCG64(2024))
    for _ in range(30):
        leaves = random_csd(rng, alphabet, int(rng.integers(1, 10)))
        d = ContextTrie.from_leaves(alphabet, leaves)
        c = prefix_closure(d)
        assert dominates(c, d)
        # prefix-closed: every nonempty prefix of a leaf resolves
        for s in c.leaf_contexts():
            for j in range(1, len(s) + 1):
                assert c.find_suffix(s[:j]) is not None or any(
                    is_suffix(s[:j], t) for t in c.leaf_contexts()
                )
        assert c.leaf_count() <= max(1, d.leaf_count() * d.depth())


def test_complete_trie():
    t = complete_trie(BINARY, 3, label_fn=lambda s: s)
    assert t.leaf_count() == 8
    assert t.depth() == 3
    assert all(ctx == lab for ctx, lab in t.leaves())
    assert complete_trie(BINARY, 0).is_coalesced()


def _walked_counts(trie):
    """(nodes, leaves) of ``trie``, counted by a walk."""
    nodes = leaves = 0
    stack = [trie.root]
    while stack:
        node = stack.pop()
        nodes += 1
        if node[0] is None:
            leaves += 1
        else:
            stack.extend(node[0])
    return nodes, leaves


def _comb(depth, label):
    """The binary comb whose leaves are 0 1^j (j < depth), labeled "1", and
    1^depth, labeled ``label``."""
    node = (None, 1, label)
    for _ in range(depth):
        node = (((None, 1, "1"), node), node[1] + 2)
    return ContextTrie(BINARY, node)


def test_deep_trie_no_recursion_limit():
    # tuple ==, and pickling a node tuple, recurse once per trie level and
    # fail long before depth 5000; the trie's walks, equality and pickling
    # do not
    depth = 5000
    leaves = {("0",) + ("1",) * j: "1" for j in range(depth)}
    leaves[("1",) * depth] = "0"
    t = ContextTrie.from_leaves(BINARY, leaves)
    assert t.depth() == depth
    p = prune_minimal(t)
    assert p.depth() == depth
    assert len(t.to_text().splitlines()) == t.node_count()
    assert (t.node_count(), t.leaf_count()) == _walked_counts(t) == (2 * depth + 1, depth + 1)
    # the same comb built bottom-up, without from_leaves
    assert _comb(depth, "0") == t == p and _comb(depth, "0").root is not t.root
    assert _comb(depth, "1") != t
    assert pickle.loads(pickle.dumps(t)) == t


def test_equality_compares_labels_and_shape():
    t = desk_trie()
    assert t == ContextTrie.from_leaves(BINARY, dict(reversed(DESK_LEAVES.items())))
    assert t != ContextTrie.from_leaves(BINARY, {**DESK_LEAVES, ("0",): "z"})
    assert t != ContextTrie.from_leaves(BINARY, {("0",): "a", ("1",): "b"})
    assert t != ContextTrie.from_leaves(TERNARY, {("a",): "a", ("b",): "b", ("c",): "c"})
    # a plain dictionary, labels None, survives a pickle round trip too
    plain = ContextTrie.from_leaves(BINARY, list(DESK_LEAVES))
    assert pickle.loads(pickle.dumps(plain)) == plain
    assert dict(plain.leaves()) == dict.fromkeys(DESK_LEAVES)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12))
def test_from_leaves_roundtrip_random(seed, splits):
    rng = np.random.Generator(np.random.PCG64(seed))
    leaves = random_csd(rng, BINARY, splits)
    t = ContextTrie.from_leaves(BINARY, leaves)
    assert set(t.leaf_contexts()) == leaves
    # every long history resolves to exactly one leaf
    for _ in range(20):
        h = tuple(BINARY.symbols[i] for i in rng.integers(2, size=t.depth() + 2))
        ctx, _ = t.find_suffix(h)
        assert is_suffix(ctx, h)
        assert ctx in leaves


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_prune_idempotent(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    leaves = {c: str(rng.integers(2)) for c in random_csd(rng, BINARY, 8)}
    t = ContextTrie.from_leaves(BINARY, leaves)
    once = prune_minimal(t)
    twice = prune_minimal(once)
    assert once == twice
    # same classification of histories
    for _ in range(20):
        h = tuple(BINARY.symbols[i] for i in rng.integers(2, size=t.depth() + 1))
        assert t.find_suffix(h)[1] == once.find_suffix(h)[1]
