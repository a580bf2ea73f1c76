"""End-to-end acceptance checks with their stated tolerances.

Each test prints one PASS line with the measured quantity so the suite
output doubles as a report.
"""

import collections
import csv
import hashlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from ciaftp import cli, oracle
from ciaftp.engine import RngStream, StepAudit, run, run_many
from ciaftp.kernels import RenewalSqrtKernel, load_kernel
from ciaftp.tries import ContextTrie, dominates, is_suffix, prefix_closure
from ciaftp.update_rule import verify_measure

from helpers import (
    BINARY,
    TERNARY,
    desk_vlmc,
    memoryless_25_75,
    order1_chain,
    random_context,
    random_csd,
    random_vlmc,
)

REPO = Path(__file__).resolve().parent.parent
KERNELS = REPO / "kernels"


def kpath(name: str) -> str:
    return str(KERNELS / f"{name}.json")


def test_01_update_rule_exactness():
    """Interval masses reproduce the kernel law at resolving contexts."""
    rng = np.random.Generator(np.random.PCG64(101))
    kernels = {
        "memoryless": memoryless_25_75(),
        "order1": order1_chain(),
        "desk": desk_vlmc(),
        "order2": load_kernel(kpath("order2")),
        "renewal": RenewalSqrtKernel(),
    }
    checked = 0
    worst_mass = 0.0
    worst_cover = 0.0
    for name, k in kernels.items():
        for _ in range(1000):
            if name == "renewal":
                # resolving contexts for the renewal kernel contain a 0
                length = int(rng.integers(1, 12))
                w = list(random_context(rng, BINARY, length))
                w[rng.integers(length)] = "0"
                w = tuple(w)
            else:
                w = random_context(rng, BINARY, k.order + int(rng.integers(0, 3)))
            rep = verify_measure(k, w)
            assert rep.ok, (name, w, rep.failures)
            worst_mass = max(worst_mass, rep.max_mass_error)
            worst_cover = max(worst_cover, rep.coverage_error)
            checked += 1
    assert worst_mass <= 1e-9
    assert worst_cover <= 1e-12
    print(
        f"PASS: criterion 1 - {checked} resolving contexts, "
        f"max mass error {worst_mass:.2e}, max partition error {worst_cover:.2e}"
    )


def test_02_oscillation_mass_sandwich():
    """1-(|G|-1)*eta <= A <= 1-eta at every node of 100+ random kernels."""
    rng = np.random.Generator(np.random.PCG64(202))
    n_kernels = 0
    for alphabet in (BINARY, TERNARY):
        n = alphabet.size
        for _ in range(55):
            k = random_vlmc(rng, alphabet, int(rng.integers(1, 9)))
            contexts = {()}
            for leaf in k.trie.leaf_contexts():
                contexts.update(leaf[i:] for i in range(len(leaf)))
            for s in contexts:
                eta = k.oscillation(s)
                mass = k.lower_bounds(s).mass
                assert mass <= 1.0 - eta + 1e-12, (s, mass, eta)
                assert mass >= 1.0 - (n - 1) * eta - 1e-12, (s, mass, eta)
                if n == 2:
                    assert abs(mass - (1.0 - eta)) <= 1e-12
            n_kernels += 1
    print(f"PASS: criterion 2 - sandwich holds on {n_kernels} random kernels")


def test_03_order1_exactness():
    """Two-state chain: TV to (2/3, 1/3) over 2x10^5 exact samples."""
    k = order1_chain()
    n = 200_000
    rows = run_many(k, 1, 30_000, 0, n, timing=False)
    assert all(r.error is None for r in rows)
    assert all(r.max_slice_depth <= 1 for r in rows)
    count1 = sum(1 for r in rows if r.sample == ("1",))
    tv = abs(count1 / n - 1 / 3)
    assert tv <= 0.01, tv
    print(f"PASS: criterion 3 - TV {tv:.5f} <= 0.01, all slices depth <= 1")


def test_04_vlmc_exactness_and_invariants():
    """Desk kernel, window 3: oracle TV plus per-iteration invariants."""
    k = desk_vlmc()
    closure = prefix_closure(k.trie)
    bound = closure.leaf_count()
    assert bound == 3

    def audit(a: StepAudit) -> None:
        # the unpruned one-step trie was rebuilt through the validating
        # constructor (so its CSD structure already passed); labels must be
        # full windows, pruning must preserve them
        for _, lab in a.state.leaves():
            assert isinstance(lab, tuple) and len(lab) == 3
        if a.t <= -2:
            # once the window is consumed, the dictionary is dominated by
            # the prefix closure of the kernel dictionary
            assert dominates(closure, a.state)
            assert a.state.leaf_count() <= bound

    n = 100_000
    # a budget error would raise: every run succeeds
    samples = [run(k, 3, RngStream(40_000 + i), on_iteration=audit).sample for i in range(n)]
    chain = oracle.build_extended(k, order=3)
    law = oracle.window_law(chain, oracle.stationary(chain), 3)
    counts = collections.Counter(samples)
    empirical = {w: counts.get(w, 0) / n for w in law.probs}
    tv = oracle.tv_distance(empirical, law.probs)
    assert tv <= 0.02, tv
    print(f"PASS: criterion 4 - TV {tv:.5f} <= 0.02, invariants on every iteration")


def test_05_memoryless_degenerate():
    """tau equals the window length exactly when every draw regenerates."""
    k = memoryless_25_75()
    for length in (1, 2, 4):
        rows = run_many(k, length, 0, 0, 500, timing=False)
        assert all(r.tau == -length for r in rows)
    print("PASS: criterion 5 - tau(n) = n exactly for all memoryless runs")


def test_06_renewal_convergence():
    """Infinite-memory renewal kernel: 10^4 runs all terminate quickly."""
    k = RenewalSqrtKernel()
    t0 = time.perf_counter()
    rows = run_many(
        k, 1, 50_000, 0, 10_000, max_depth=10**12, max_nodes=10**15, timing=False
    )
    elapsed = time.perf_counter() - t0
    assert all(r.error is None for r in rows)
    mean_tau = sum(-r.tau for r in rows) / len(rows)
    assert mean_tau <= 55.0, mean_tau
    print(
        f"PASS: criterion 6 - 10^4 renewal runs terminated in {elapsed:.1f}s, "
        f"mean -tau {mean_tau:.2f} <= 55"
    )


def test_07_renewal_depth_tail():
    """P(slice depth >= k) = 1/sqrt(k) within 0.02 at k = 4, 16, 64."""
    k = RenewalSqrtKernel()
    rng = RngStream(70_000)
    n = 100_000
    depths = np.array([k.slice_depth(rng.uniform()) for _ in range(n)])
    errs = {}
    for kk in (4, 16, 64):
        emp = float((depths >= kk).mean())
        errs[kk] = abs(emp - 1.0 / math.sqrt(kk))
        assert errs[kk] <= 0.02, (kk, emp)
    print(
        "PASS: criterion 7 - depth tail errors "
        + ", ".join(f"k={kk}: {e:.4f}" for kk, e in errs.items())
        + " all <= 0.02"
    )


def test_08_prefix_closure_bound():
    """Closure definition, domination, and the size bound on 50+ CSDs."""
    fixture = ContextTrie.from_leaves(
        BINARY, [("0",), ("0", "0", "1"), ("1", "0", "1"), ("1", "1")]
    )
    assert set(prefix_closure(fixture).leaf_contexts()) == {
        ("0", "0"), ("1", "0"), ("0", "0", "1"), ("1", "0", "1"), ("1", "1"),
    }
    rng = np.random.Generator(np.random.PCG64(808))
    n_checked = 0
    for alphabet in (BINARY, TERNARY):
        for _ in range(30):
            leaves = random_csd(rng, alphabet, int(rng.integers(1, 10)))
            d = ContextTrie.from_leaves(alphabet, leaves)
            c = prefix_closure(d)
            closed = set(c.leaf_contexts())
            assert dominates(c, d)
            # prefix-closed: every prefix of a member is covered by some
            # member extending it into the past
            for s in closed:
                for j in range(1, len(s)):
                    assert any(is_suffix(s[:j], t) for t in closed), (s, j)
            assert len(closed) <= max(1, d.leaf_count() * d.depth())
            n_checked += 1
    print(f"PASS: criterion 8 - closure properties on {n_checked} dictionaries + fixture")


def test_09_benchmark_harness(tmp_path):
    """Both algorithms produce complete benchmark CSV; the baseline's
    samples pass the same statistical gate as the adaptive engine's."""
    # complete CSV blocks for the three chain orders and the desk kernel
    for name, runs in (("order4", 150), ("order6", 100), ("desk_vlmc", 150)):
        out = tmp_path / f"{name}.csv"
        rc = cli.main([
            "bench", "--kernel", kpath(name), "--length", "1",
            "--runs", str(runs), "--seed", "900", "--out", str(out), "--no-timing",
        ])
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(r for r in fh if not r.startswith("#")))
        assert len(rows) == 2 * runs
        assert {r["algorithm"] for r in rows} == {"ciaftp", "pw_extended"}
        assert all(r["error"] == "" and r["sample"] != "" for r in rows)

    # d = 2 at N = 10^5: the baseline's sample law against the exact oracle
    n = 100_000
    out = tmp_path / "order2.csv"
    rc = cli.main([
        "bench", "--kernel", kpath("order2"), "--length", "1",
        "--runs", str(n), "--seed", "910", "--out", str(out), "--no-timing",
    ])
    assert rc == 0
    k2 = load_kernel(kpath("order2"))
    chain = oracle.build_extended(k2)
    law = oracle.window_law(chain, oracle.stationary(chain), 1)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(r for r in fh if not r.startswith("#")))
    tvs = {}
    for algo in ("ciaftp", "pw_extended"):
        counts = collections.Counter(
            r["sample"] for r in rows if r["algorithm"] == algo
        )
        assert sum(counts.values()) == n
        empirical = {w: counts.get("".join(w), 0) / n for w in law.probs}
        tvs[algo] = oracle.tv_distance(empirical, law.probs)
        assert tvs[algo] <= 0.02, (algo, tvs[algo])
    print(
        f"PASS: criterion 9 - bench CSVs complete; TV at N=10^5: "
        f"ciaftp {tvs['ciaftp']:.5f}, pw_extended {tvs['pw_extended']:.5f} <= 0.02"
    )


def test_10_end_to_end_determinism(tmp_path, capsys):
    """Byte-identical output for every command under --no-timing, equal to
    the sha256 digests pinned from earlier releases."""
    commands = [
        (["sample", "--kernel", kpath("desk_vlmc"), "--length", "2",
          "--runs", "20", "--seed", "77", "--no-timing"],
         "fc5895c4fb0fa0e6513020d77c117f77974a4a343b69ebd1ea92004c930e8696"),
        (["sample", "--kernel", kpath("order1"), "--runs", "5", "--seed", "77",
          "--format", "json", "--no-timing"],
         "4e654a71cca9620640039197863322cce9aa0986bb5327e4e1b4ae53f12ec0f1"),
        (["sample", "--kernel", kpath("renewal_sqrt"), "--length", "1",
          "--runs", "20", "--seed", "77", "--no-timing",
          "--max-depth", str(10**12), "--max-nodes", str(10**15)],
         "9592b77fad045e9010c66a7ec421b2fd16a1d833714e313c3bfbb990f0892d57"),
        # validate's floats come from LAPACK, so it is checked on rerun only
        (["validate", "--kernel", kpath("order1"), "--length", "1",
          "--runs", "2000", "--seed", "77", "--no-timing"], None),
        (["bench", "--kernel", kpath("order2"), "--length", "1",
          "--runs", "20", "--seed", "77", "--no-timing"],
         "2de2f85e16d865c2b4ccd0ba9375c771873d7bbd4349fafb9aa438f6bc3c0eee"),
        (["inspect", "--kernel", kpath("desk_vlmc"), "--length", "3"],
         "f2381c7a888a15c2694f98d145ca38ec03389e428a6c4503ddb3193fb43476b8"),
        # the interval table runs along the smallest deepest slice leaf, 0111
        (["inspect", "--kernel", kpath("renewal_sqrt"), "--u", "0.5"],
         "bf4b94f3760e2d03e831032443e2839d03502817f423278d2cdc396658ddd62c"),
        # its last interval ends at exactly 1.0 (exact tiling)
        (["inspect", "--kernel", kpath("order2"), "--u", "0.9"],
         "74b65b91957dfd1f59b148350b626f7abdb1762ed487f5dbcbe8596383c369d3"),
    ]
    for args, digest in commands:
        outputs = []
        for _ in range(2):
            rc = cli.main(args)
            captured = capsys.readouterr()
            assert rc == 0, (args, rc)
            outputs.append(captured.out)
        assert outputs[0] == outputs[1], args
        if digest is not None:
            assert hashlib.sha256(outputs[0].encode()).hexdigest() == digest, args

    # --trace leaves the rows unchanged; the second case has a budget failure,
    # whose partial records are traced too
    traced = [
        (["sample", "--kernel", kpath("desk_vlmc"), "--length", "2",
          "--runs", "20", "--seed", "77", "--no-timing"], 0,
         "fc5895c4fb0fa0e6513020d77c117f77974a4a343b69ebd1ea92004c930e8696",
         "9b4d6eaf874710e82e66bb47575513d11b1883e9ce389c46b00de78f50d36fa2"),
        (["sample", "--kernel", kpath("renewal_sqrt"), "--length", "1",
          "--runs", "20", "--seed", "77", "--no-timing"], 1,
         "44e516a17fa83cbd4ad82179814d390d3be4eda926f1ae05096f8d676446a219",
         "74f62ad7145ada717904beb7f19626648e7a950aff0382e9657e054730e98daf"),
        # the renewal comb at longer windows, one MaxDepthExceeded each
        (["sample", "--kernel", kpath("renewal_sqrt"), "--length", "2",
          "--runs", "20", "--seed", "77", "--no-timing"], 1,
         "e3c99d49db5312c2515662340258c06539c991904a243f8f5511f25bb54a835e",
         "8412e375cd65150fe5126e6624f37e794498cffd3f1e163d50e0bcffc7142309"),
        (["sample", "--kernel", kpath("renewal_sqrt"), "--length", "3",
          "--runs", "20", "--seed", "77", "--no-timing"], 1,
         "a4f6a2439284c47d98c76e6a738dc7c6c99cc18b182ce97148a4b7f37044c67c",
         "1d63e6f7869bce18ef5ec3a128df14ac16537521fa30c3e563ed4f98c8732fd7"),
    ]
    trace = tmp_path / "trace.csv"
    for args, code, out_digest, trace_digest in traced:
        rc = cli.main(args + ["--trace", str(trace)])
        out = capsys.readouterr().out
        assert rc == code, args
        assert hashlib.sha256(out.encode()).hexdigest() == out_digest, args
        assert hashlib.sha256(trace.read_bytes()).hexdigest() == trace_digest, args
    print(
        f"PASS: criterion 10 - {len(commands)} commands byte-identical on rerun, "
        f"{len(traced)} traced samples match their pinned digests"
    )
