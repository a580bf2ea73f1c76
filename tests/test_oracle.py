import collections
import itertools

import numpy as np
import pytest

from ciaftp import engine
from ciaftp.errors import (
    EnumerationGuardExceeded,
    PeriodicChain,
    ReducibleChain,
    UnsupportedOperation,
)
from ciaftp.kernels import RenewalSqrtKernel, full_markov_kernel, memoryless_kernel
from ciaftp.oracle import (
    build_extended,
    stationary,
    tv_distance,
    validate,
    validation_tolerance,
    window_law,
)

from helpers import BINARY, desk_vlmc, memoryless_25_75, order1_chain, random_vlmc


def test_build_extended_memoryless():
    chain = build_extended(memoryless_25_75())
    assert chain.order == 1
    T = chain.dense()
    assert np.allclose(T, [[0.25, 0.75], [0.25, 0.75]])


def test_build_extended_order1():
    chain = build_extended(order1_chain())
    assert np.allclose(chain.dense(), [[0.7, 0.3], [0.6, 0.4]])


def test_build_extended_desk():
    chain = build_extended(desk_vlmc())
    assert chain.order == 2 and chain.n_states == 4
    T = chain.dense()
    k = desk_vlmc()
    for s in chain.states:
        dist = k.distribution_at(s)
        for g, p in zip(BINARY.symbols, dist):
            assert T[chain.index[s], chain.index[s[1:] + (g,)]] == p
    # shift structure: at most |G| nonzero entries per row
    assert (T > 0).sum(axis=1).max() <= 2


def test_build_extended_raised_order():
    chain = build_extended(desk_vlmc(), order=3)
    assert chain.order == 3 and chain.n_states == 8
    with pytest.raises(ValueError):
        build_extended(desk_vlmc(), order=1)
    with pytest.raises(UnsupportedOperation):
        build_extended(RenewalSqrtKernel())


def test_state_space_guard():
    k = memoryless_25_75()
    with pytest.raises(EnumerationGuardExceeded):
        build_extended(k, order=25)


def test_stationary_order1_closed_form():
    # p(1|0) = alpha, p(0|1) = beta  =>  pi = (beta, alpha) / (alpha + beta)
    chain = build_extended(order1_chain())
    pi = stationary(chain)
    assert np.allclose(pi, [2 / 3, 1 / 3], atol=1e-12)


def test_stationary_doubly_stochastic_uniform():
    k = full_markov_kernel(BINARY, 1, {("0",): (0.3, 0.7), ("1",): (0.7, 0.3)})
    pi = stationary(build_extended(k))
    assert np.allclose(pi, [0.5, 0.5], atol=1e-12)


def test_stationary_two_methods_agree():
    for kernel in (desk_vlmc(), order1_chain()):
        chain = build_extended(kernel)
        a = stationary(chain, method="solve")
        b = stationary(chain, method="power")
        assert np.abs(a - b).sum() <= 1e-10


def test_stationary_rejects_reducible():
    k = full_markov_kernel(BINARY, 1, {("0",): (1.0, 0.0), ("1",): (0.0, 1.0)})
    with pytest.raises(ReducibleChain):
        stationary(build_extended(k))


def test_stationary_rejects_periodic():
    k = full_markov_kernel(BINARY, 1, {("0",): (0.0, 1.0), ("1",): (1.0, 0.0)})
    with pytest.raises(PeriodicChain):
        stationary(build_extended(k))


def test_window_law_marginalization():
    chain = build_extended(desk_vlmc(), order=3)
    pi = stationary(chain)
    full = window_law(chain, pi, 3)
    assert full.probs == {s: p for s, p in zip(chain.states, pi)}
    two = window_law(chain, pi, 2)
    # marginalizing the full law by hand gives the same two-window law
    by_hand = {}
    for s, p in full.probs.items():
        by_hand[s[-2:]] = by_hand.get(s[-2:], 0.0) + p
    for w in two.probs:
        assert two.probs[w] == pytest.approx(by_hand[w], abs=1e-14)
    with pytest.raises(ValueError):
        window_law(chain, pi, 4)


def test_window_law_collapse_consistency():
    # the same kernel viewed at order 2 and order 3 yields identical window laws
    k = desk_vlmc()
    c2 = build_extended(k, order=2)
    c3 = build_extended(k, order=3)
    law2 = window_law(c2, stationary(c2), 2)
    law3 = window_law(c3, stationary(c3), 2)
    assert tv_distance(law2.probs, law3.probs) <= 1e-12


def test_window_law_memoryless_product():
    chain = build_extended(memoryless_25_75(), order=2)
    law = window_law(chain, stationary(chain), 2)
    for w in itertools.product("01", repeat=2):
        expected = (0.25 if w[0] == "0" else 0.75) * (0.25 if w[1] == "0" else 0.75)
        assert law.probs[w] == pytest.approx(expected, abs=1e-12)


def test_tv_distance():
    assert tv_distance({"a": 1.0, "b": 0.0}, {"a": 1.0, "b": 0.0}) == 0.0
    assert tv_distance({"a": 1.0, "b": 0.0}, {"a": 0.0, "b": 1.0}) == 1.0
    assert tv_distance({"a": 0.5, "b": 0.5}, {"a": 0.25, "b": 0.75}) == 0.25
    with pytest.raises(ValueError):
        tv_distance({"a": 1.0}, {"b": 1.0})


def test_validation_tolerance_floor():
    assert validation_tolerance(2, 10**8) == 0.005
    assert validation_tolerance(8, 10**5) == pytest.approx(3 * (8 / 10**5) ** 0.5)


def test_validate_memoryless_small():
    report = validate(memoryless_25_75(), 2, 4000, seed=101)
    assert report.n_failed == 0 and report.failures_by_code == {}
    assert report.passed
    assert report.tv <= report.tolerance
    assert sum(c["count"] for c in report.cells) == 4000


def test_validate_random_vlmc_small():
    rng = np.random.Generator(np.random.PCG64(13))
    k = random_vlmc(rng, BINARY, 3)
    report = validate(k, 2, 4000, seed=55)
    assert report.passed, (report.tv, report.tolerance)


def test_validate_fails_on_budget_errors():
    report = validate(order1_chain(), 1, 50, seed=1, max_iter=1)
    assert report.n_failed > 0
    assert not report.passed
    assert report.failures_by_code == {"IterationLimitExceeded": report.n_failed}
    assert report.to_json_dict()["failures_by_code"] == report.failures_by_code


def test_validate_pw_algorithm():
    # the baseline's window law against the oracle, as validate checks run's
    k, n = order1_chain(), 4000
    rows = engine.run_many(k, 1, 77, 0, n, algorithm="pw_extended", timing=False)
    assert all(r.error is None for r in rows)
    chain = build_extended(k)
    law = window_law(chain, stationary(chain), 1).probs
    counts = collections.Counter(r.sample for r in rows)
    tv = tv_distance({w: counts[w] / n for w in law}, law)
    assert tv <= validation_tolerance(len(law), n), tv


def test_validate_rejects_infinite_order():
    with pytest.raises(UnsupportedOperation):
        validate(RenewalSqrtKernel(), 1, 10, seed=0)
