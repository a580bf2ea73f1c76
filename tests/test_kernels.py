import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciaftp.errors import (
    BadProbability,
    IncompleteDictionary,
    KernelSpecError,
    OverlappingContexts,
    UnknownSymbol,
    UnsupportedOperation,
)
from ciaftp.kernels import (
    ContextTreeKernel,
    Kernel,
    LowerBoundRow,
    RenewalSqrtKernel,
    expected_depth_bound,
    full_markov_kernel,
    kernel_to_spec,
    load_kernel,
    memoryless_kernel,
    parse_kernel_spec,
)

from ciaftp.tries import ContextTrie, iter_leaves_below

from helpers import BINARY, TERNARY, desk_vlmc, order1_chain, random_csd, random_vlmc

KERNELS = Path(__file__).resolve().parent.parent / "kernels"


def test_desk_lower_bounds():
    k = desk_vlmc()
    # at the internal context "1" the bounds are the per-symbol minima over
    # the two leaves 01, 11
    row = k.lower_bounds(("1",))
    assert row.lower == (0.1, 0.6)
    assert row.mass == pytest.approx(0.7, abs=1e-15)
    assert not row.resolved
    # at the empty context the minima span all three leaves
    root = k.lower_bounds(())
    assert root.lower == (0.1, 0.3)
    assert root.mass == pytest.approx(0.4, abs=1e-15)
    # leaf contexts resolve exactly
    leaf = k.lower_bounds(("0", "1"))
    assert leaf.resolved and leaf.lower == (0.4, 0.6)
    # longer histories resolve through their suffix
    assert k.lower_bounds(("1", "0", "1")).lower == (0.4, 0.6)


def _rows_by_leaves(k, ctx):
    """The row at ``ctx`` as the minimum over every leaf below it, one
    leaf scan per context; a context that ends at or passes a leaf
    resolves to that leaf's law."""
    hit = k.trie.find_suffix(ctx)
    if hit is not None:
        return LowerBoundRow(hit[1], 1.0)
    dists = [label for _, label in iter_leaves_below(k.trie, ctx)]
    lower = tuple(min(d[i] for d in dists) for i in range(k.alphabet.size))
    return LowerBoundRow(lower, math.fsum(lower))


def _vlmc_with_zeros(rng, alphabet, splits):
    """A random context tree whose laws have zeros, some of them -0.0, so
    that a minimum's sign depends on which leaf it is taken from."""
    leaves = {}
    for ctx in sorted(random_csd(rng, alphabet, splits)):
        x = rng.random(alphabet.size) * (rng.random(alphabet.size) < 0.6)
        x[rng.integers(alphabet.size)] += 1.0
        probs = [float(v) for v in x / x.sum()]
        probs[-1] = 1.0 - math.fsum(probs[:-1])
        leaves[ctx] = tuple(-0.0 if p == 0.0 and rng.random() < 0.5 else p for p in probs)
    return ContextTreeKernel(ContextTrie.from_leaves(alphabet, leaves))


def test_internal_rows_are_the_minima_over_the_leaves_below():
    # a fresh kernel fills every internal row at the first internal
    # context asked for, once, from its children's rows: at every node of
    # every shipped finite kernel and of random trees with zero (and -0.0)
    # probabilities, asked in a random order, the row is bit for bit the
    # minimum over the leaves below, signs of zeros included
    rng = np.random.Generator(np.random.PCG64(31))
    kernels = [(p.name, load_kernel(str(p))) for p in sorted(KERNELS.glob("*.json"))]
    kernels += [(f"zeros{a.size}-{i}", _vlmc_with_zeros(rng, a, int(rng.integers(1, 12))))
                for a in (BINARY, TERNARY) for i in range(6)]
    for name, k in kernels:
        if k.order is None:
            continue
        fills = []
        fill = k._fill_internal_rows
        k._fill_internal_rows = lambda: fills.append(1) or fill()
        nodes = [()]
        for ctx in nodes:
            if k.trie.find_suffix(ctx) is None:
                nodes += [(g,) + ctx for g in k.alphabet.symbols]
        assert len(nodes) == k.trie.node_count(), name
        for i in rng.permutation(len(nodes)):
            got, want = k.lower_bounds(nodes[i]), _rows_by_leaves(k, nodes[i])
            assert ([p.hex() for p in got.lower], got.mass.hex()) == (
                [p.hex() for p in want.lower], want.mass.hex()), (name, nodes[i])
        assert len(fills) == (k.order > 0), name
    assert any(math.copysign(1.0, p) < 0 for _, k in kernels[-12:]
               for ctx, _ in k.trie.leaves() for p in k.lower_bounds(ctx[1:]).lower)


def test_desk_oscillation():
    k = desk_vlmc()
    assert k.oscillation(("1",)) == pytest.approx(0.3, abs=1e-15)
    assert k.oscillation(("0", "1")) == 0.0
    assert k.oscillation(()) == pytest.approx(0.6, abs=1e-15)


def test_distribution_at_unresolved_raises():
    with pytest.raises(UnsupportedOperation):
        desk_vlmc().distribution_at(("1",))


def test_desk_min_mass():
    k = desk_vlmc()
    assert k.min_mass(0) == pytest.approx(0.4, abs=1e-15)
    assert k.min_mass(1) == pytest.approx(0.7, abs=1e-15)
    assert k.min_mass(2) == 1.0
    assert k.min_mass(7) == 1.0
    assert k.order == 2
    with pytest.raises(ValueError):
        k.min_mass(-1)


@pytest.mark.parametrize("alphabet", [BINARY, TERNARY])
def test_min_mass_reads_the_trie_as_the_enumeration_does(alphabet):
    # the internal nodes at depth k, and 1 for a leaf at depth <= k, are
    # the values the |G|^k enumeration takes the minimum of
    rng = np.random.Generator(np.random.PCG64(19))
    kernels = [random_vlmc(rng, alphabet, int(rng.integers(1, 10))) for _ in range(20)]
    shipped = Path(__file__).resolve().parent.parent / "kernels"
    kernels += [k for k in map(load_kernel, map(str, sorted(shipped.glob("*.json"))))
                if k.order is not None]
    for k in kernels:
        for depth in range(k.order + 2):
            assert k.min_mass(depth) == Kernel.min_mass(k, depth)


def test_order1_coupled_mass():
    k = order1_chain()
    assert k.lower_bounds(()).mass == pytest.approx(0.9, abs=1e-15)


def test_order_is_the_trie_depth():
    kernels = Path(__file__).resolve().parent.parent / "kernels"
    ks = [load_kernel(str(p)) for p in sorted(kernels.glob("*.json"))]
    rng = np.random.Generator(np.random.PCG64(17))
    ks += [random_vlmc(rng, a, int(rng.integers(0, 12))) for a in (BINARY, TERNARY)
           for _ in range(10)]
    for k in ks:
        if isinstance(k, RenewalSqrtKernel):
            assert k.order is None
        else:
            assert k.order == k.trie.depth()


def test_memoryless_kernel():
    k = memoryless_kernel(BINARY, (0.25, 0.75))
    assert k.order == 0
    assert k.lower_bounds(()).resolved
    assert k.min_mass(0) == 1.0


def test_full_markov_requires_all_contexts():
    with pytest.raises(IncompleteDictionary):
        full_markov_kernel(BINARY, 2, {("0", "0"): (0.5, 0.5)})
    with pytest.raises(ValueError, match="order"):
        full_markov_kernel(BINARY, 0, {(): (0.5, 0.5)})
    # every length-1 context, and one of length 2
    table = {("0",): (0.5, 0.5), ("1",): (0.5, 0.5), ("0", "1"): (0.5, 0.5)}
    with pytest.raises(KernelSpecError, match="does not have length 1"):
        full_markov_kernel(BINARY, 1, table)


def test_renewal_lower_bounds():
    k = RenewalSqrtKernel()
    assert k.order is None
    # empty context carries no mass at all
    assert k.lower_bounds(()).mass == 0.0
    # a context ending in 0 pins the next symbol to 1
    assert k.lower_bounds(("0",)).lower == (0.0, 1.0)
    assert k.lower_bounds(("1", "0")).lower == (0.0, 1.0)
    # all-ones contexts bound only the 0-probability
    for m in (1, 2, 3, 10):
        row = k.lower_bounds(("1",) * m)
        expected = 1.0 - 1.0 / math.sqrt(m + 1)
        assert row.lower == (expected, 0.0)
        assert row.mass == expected
    # a 0 followed by r ones resolves exactly
    row = k.lower_bounds(("0", "1", "1"))
    p0 = 1.0 - 1.0 / math.sqrt(3)
    assert row.resolved and row.lower == (p0, 1.0 - p0)
    # only the symbols after the newest 0 are read
    with pytest.raises(UnknownSymbol):
        k.lower_bounds(("x", "1"))
    assert k.lower_bounds(("x", "0", "1")).lower == k.lower_bounds(("0", "1")).lower


def test_renewal_min_mass():
    k = RenewalSqrtKernel()
    assert k.min_mass(0) == 0.0
    assert k.min_mass(3) == pytest.approx(0.5, abs=1e-15)


def test_renewal_slice_depth():
    k = RenewalSqrtKernel()
    assert k.slice_depth(0.0) == 1
    assert k.slice_depth(0.5) == 4  # 1 - 1/sqrt(5) > 0.5 >= 1 - 1/sqrt(4)
    with pytest.raises(ValueError):
        k.slice_depth(1.0)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 1.0, exclude_max=True))
def test_renewal_slice_depth_is_minimal(u):
    k = RenewalSqrtKernel()
    m = k.slice_depth(u)
    assert u < k.p_zero(m)
    if m > 1:
        assert not u < k.p_zero(m - 1)


def _gallop_slice_depth(u):
    # the smallest m >= 1 with u < p_zero(m), by galloping then bisecting
    # on the exact float predicate
    p_zero = RenewalSqrtKernel.p_zero
    hi = 1
    while not u < p_zero(hi):
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if u < p_zero(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _closed_form_misses(draws, expected):
    # the draws on which 1/(1-u)^2 alone misses the depth, so the
    # correction from m0 runs
    return [u for u, m in zip(draws, expected) if int(1.0 / ((1.0 - u) * (1.0 - u))) != m]


def test_renewal_slice_depth_table_matches_the_gallop():
    # the shallow depths, every m up to 2^15 + 1 (twice the range of the
    # p_zero table the kernel once kept), and 10^6, 10^9: the depth from the
    # closed form must agree with the gallop from 1 at, below and above
    # p_zero(m), and on random draws over [0, 1)
    k = RenewalSqrtKernel()
    rng = np.random.Generator(np.random.PCG64(11))
    draws = [0.0, 1.0 - 2**-53] + list(rng.random(2000))
    for e in range(1, 54):
        draws += [1.0 - 2.0**-e, math.nextafter(1.0 - 2.0**-e, 0.0)]
    for m in [*range(1, 2**15 + 2), 10**6, 10**6 + 1, 10**9, 10**9 + 1]:
        p = k.p_zero(m)
        draws += [math.nextafter(p, 0.0), p, math.nextafter(p, 1.0)]
    draws = [u for u in draws if 0.0 <= u < 1.0]
    expected = [_gallop_slice_depth(u) for u in draws]
    assert [k.slice_depth(u) for u in draws] == expected
    assert len(_closed_form_misses(draws, expected)) > 100


def test_renewal_slice_depth_past_the_cap_matches_the_gallop():
    # the deep draws, past p_zero(2^14) (where the kernel's p_zero table
    # once stopped): the depth must agree with the gallop from 1 on random
    # draws there and at, below and above p_zero(m) for m from 2^14 up to
    # where p_zero(m) is the largest draw, 1 - 2**-53
    k = RenewalSqrtKernel()
    first = k.p_zero(2**14)
    rng = np.random.Generator(np.random.PCG64(11))
    draws = [first, 1.0 - 2**-53] + [first + (1.0 - first) * x for x in rng.random(2000)]
    for e in range(8, 54):
        draws += [1.0 - 2.0**-e, math.nextafter(1.0 - 2.0**-e, 0.0)]
    for j in range(14, 110):
        for m in (2**j - 1, 2**j, 2**j + 1, 3 * 2**j):
            p = k.p_zero(m)
            draws += [math.nextafter(p, 0.0), p, math.nextafter(p, 1.0)]
    draws = [u for u in draws if first <= u < 1.0]
    assert len(draws) > 3000
    expected = [_gallop_slice_depth(u) for u in draws]
    assert [k.slice_depth(u) for u in draws] == expected
    assert len(_closed_form_misses(draws, expected)) > 100


@pytest.mark.parametrize("alphabet", [BINARY, TERNARY])
def test_oscillation_mass_sandwich_random(alphabet):
    # 1 - (|G|-1) * eta <= A <= 1 - eta at every trie node
    rng = np.random.Generator(np.random.PCG64(7))
    n = alphabet.size
    for _ in range(25):
        k = random_vlmc(rng, alphabet, int(rng.integers(1, 8)))
        contexts = [()]
        for leaf in k.trie.leaf_contexts():
            contexts.extend(leaf[i:] for i in range(len(leaf)))
        for s in contexts:
            eta = k.oscillation(s)
            mass = k.lower_bounds(s).mass
            assert mass <= 1.0 - eta + 1e-12
            assert mass >= 1.0 - (n - 1) * eta - 1e-12
            if n == 2:
                assert mass == pytest.approx(1.0 - eta, abs=1e-12)


def test_expected_depth_bound():
    memoryless = memoryless_kernel(BINARY, (0.25, 0.75))
    rep = expected_depth_bound(memoryless, 1)
    assert rep.bound == 0.0
    desk = expected_depth_bound(desk_vlmc(), 3)
    assert 0.0 < desk.bound < 3.0
    renewal = expected_depth_bound(RenewalSqrtKernel(), 1)
    assert renewal.sum_finite


# -- spec files -----------------------------------------------------------


def spec_doc(contexts, type_="context_tree", alphabet=("0", "1")):
    return json.dumps({"alphabet": list(alphabet), "type": type_, "contexts": contexts})


def ctx_entry(context, p0, p1):
    return {"context": context, "probs": {"0": p0, "1": p1}}


def test_parse_memoryless_spec():
    k = parse_kernel_spec(spec_doc([ctx_entry("", 0.25, 0.75)], "memoryless"))
    assert k.family == "memoryless"
    assert k.distribution_at(()) == (0.25, 0.75)


def test_parse_desk_spec():
    k = parse_kernel_spec(
        spec_doc([ctx_entry("0", 0.7, 0.3), ctx_entry("01", 0.4, 0.6), ctx_entry("11", 0.1, 0.9)])
    )
    assert k.order == 2
    assert k.lower_bounds(("0", "1")).lower == (0.4, 0.6)


def test_parse_incomplete_dictionary():
    with pytest.raises(IncompleteDictionary) as exc:
        parse_kernel_spec(spec_doc([ctx_entry("0", 0.7, 0.3), ctx_entry("01", 0.4, 0.6)]))
    assert "1" in str(exc.value)


def test_parse_overlapping_contexts():
    with pytest.raises(OverlappingContexts):
        parse_kernel_spec(
            spec_doc(
                [
                    ctx_entry("0", 0.7, 0.3),
                    ctx_entry("1", 0.5, 0.5),
                    ctx_entry("01", 0.4, 0.6),
                    ctx_entry("11", 0.1, 0.9),
                ]
            )
        )
    with pytest.raises(OverlappingContexts):
        parse_kernel_spec(spec_doc([ctx_entry("0", 0.7, 0.3), ctx_entry("0", 0.7, 0.3)]))


def _named_spec(alphabet, contexts):
    # every context gets the uniform law over the alphabet
    probs = {g: 1 / len(alphabet) for g in alphabet}
    return json.dumps({"alphabet": alphabet, "type": "context_tree",
                       "contexts": [{"context": c, "probs": probs} for c in contexts]})


def test_spec_error_does_not_depend_on_symbol_names():
    # the error class follows the trie's fault, not words its message quotes
    with pytest.raises(OverlappingContexts):
        parse_kernel_spec(_named_spec(["uncovered", "x"], ["uncovered", "x", "x,uncovered"]))
    with pytest.raises(IncompleteDictionary):
        parse_kernel_spec(_named_spec(["incomplete", "uncovered"],
                                      ["uncovered", "uncovered,incomplete"]))


def test_parse_bad_probability():
    with pytest.raises(BadProbability):
        parse_kernel_spec(spec_doc([ctx_entry("", 0.5, 0.6)], "memoryless"))
    with pytest.raises(BadProbability):
        parse_kernel_spec(spec_doc([ctx_entry("", -0.1, 1.1)], "memoryless"))
    with pytest.raises(BadProbability):
        parse_kernel_spec(
            json.dumps(
                {
                    "alphabet": ["0", "1"],
                    "type": "memoryless",
                    "contexts": [{"context": "", "probs": {"0": 1.0}}],
                }
            )
        )
    # NaN compares false with every bound; a value float() cannot read must
    # name its context, not escape as a TypeError or ValueError
    for p0 in (math.nan, math.inf, -math.inf, None, "abc", [0.5], {"p": 0.5}):
        with pytest.raises(BadProbability, match="context"):
            parse_kernel_spec(spec_doc([ctx_entry("", p0, 0.5)], "memoryless"))
    # probabilities are JSON numbers: not booleans, not numeric strings,
    # and not an int too large for a float
    for p0, p1 in ((True, False), (False, True), ("0.5", "0.5"), (1, "0"), (10**400, 0)):
        with pytest.raises(BadProbability, match="context"):
            parse_kernel_spec(spec_doc([ctx_entry("", p0, p1)], "memoryless"))


def test_parse_unknown_symbol():
    with pytest.raises(UnknownSymbol):
        parse_kernel_spec(spec_doc([ctx_entry("2", 0.5, 0.5)]))
    with pytest.raises(UnknownSymbol):
        parse_kernel_spec(
            json.dumps(
                {
                    "alphabet": ["0", "1"],
                    "type": "memoryless",
                    "contexts": [{"context": "", "probs": {"0": 0.5, "x": 0.5}}],
                }
            )
        )


def test_parse_family_constraints():
    with pytest.raises(KernelSpecError):
        parse_kernel_spec(spec_doc([ctx_entry("0", 1, 0), ctx_entry("1", 0, 1)], "memoryless"))
    # ragged context lengths are not a full Markov chain
    with pytest.raises(KernelSpecError):
        parse_kernel_spec(
            spec_doc(
                [ctx_entry("0", 0.7, 0.3), ctx_entry("01", 0.4, 0.6), ctx_entry("11", 0.1, 0.9)],
                "full_markov",
            )
        )
    # a full Markov chain has order >= 1: the empty context alone is the
    # memoryless family, which loads it
    with pytest.raises(KernelSpecError, match="memoryless"):
        parse_kernel_spec(spec_doc([ctx_entry("", 0.5, 0.5)], "full_markov"))
    assert parse_kernel_spec(spec_doc([ctx_entry("", 0.5, 0.5)], "memoryless")).order == 0
    # a renewal alphabet must be the list ["0", "1"], not any other value
    for alphabet in (["a", "b"], 7, "01", None, {"0": 1}):
        with pytest.raises(KernelSpecError):
            parse_kernel_spec(json.dumps({"alphabet": alphabet, "type": "renewal_sqrt"}))
    # renewal_sqrt takes no contexts: [] or none at all
    for contexts in ([ctx_entry("0", 0.5, 0.5)], [{}], {}, None, 0):
        with pytest.raises(KernelSpecError):
            parse_kernel_spec(spec_doc(contexts, "renewal_sqrt"))
    assert isinstance(parse_kernel_spec(spec_doc([], "renewal_sqrt")), RenewalSqrtKernel)
    # a context is a string, not a number that reads like one
    for context in (0, 1, None, ["0"]):
        with pytest.raises(KernelSpecError):
            parse_kernel_spec(spec_doc([ctx_entry(context, 0.5, 0.5)], "memoryless"))
    with pytest.raises(KernelSpecError):
        parse_kernel_spec("not json at all {")
    with pytest.raises(KernelSpecError):
        parse_kernel_spec(json.dumps({"type": "nope", "alphabet": ["0"], "contexts": []}))


def test_spec_roundtrip():
    k = desk_vlmc()
    k2 = parse_kernel_spec(kernel_to_spec(k))
    assert dict(k2.trie.leaves()) == dict(k.trie.leaves())
    r = parse_kernel_spec(kernel_to_spec(RenewalSqrtKernel()))
    assert isinstance(r, RenewalSqrtKernel)
    # every shipped spec, and a chain from each constructor, keeps its type
    for path in sorted(KERNELS.glob("*.json")):
        spec = json.loads(path.read_text())
        assert json.loads(kernel_to_spec(load_kernel(str(path))))["type"] == spec["type"], path
    built = [(order1_chain(), "full_markov"),
             (memoryless_kernel(BINARY, (0.25, 0.75)), "memoryless")]
    for kernel, family in built:
        assert kernel.family == family
        again = parse_kernel_spec(kernel_to_spec(kernel))
        assert again.family == family
        assert dict(again.trie.leaves()) == dict(kernel.trie.leaves())


def test_random_vlmc_ignores_the_hash_seed():
    # the random kernels the tests cover are a function of the generator
    # alone: two processes with different string hashing build the same one
    tests = Path(__file__).resolve().parent
    code = (
        "import hashlib, numpy as np\n"
        "from ciaftp.kernels import kernel_to_spec\n"
        "from helpers import TERNARY, random_vlmc\n"
        "k = random_vlmc(np.random.Generator(np.random.PCG64(991)), TERNARY, 6)\n"
        "print(hashlib.sha256(kernel_to_spec(k).encode()).hexdigest())\n"
    )
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    digests = [
        subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                       env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed}).stdout
        for seed in ("1", "2")
    ]
    assert digests[0] == digests[1] and len(digests[0].strip()) == 64, digests
