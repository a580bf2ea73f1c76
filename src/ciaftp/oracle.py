"""Independent ground truth for finite-order kernels.

An order-d chain lifted to d-tuples is an ordinary first-order Markov
chain; its stationary vector is computable exactly, and marginalizing the
oldest coordinates gives the stationary law of any window up to length d.
This module never calls the sampling engine's update machinery to produce
its answers, so agreement between the two is evidence, not tautology.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import engine
from .errors import (
    EnumerationGuardExceeded,
    PeriodicChain,
    ReducibleChain,
    UnsupportedOperation,
)
from .kernels import Kernel
from .tries import Context

STATE_GUARD = 10**6
DENSE_LIMIT = 4096
POWER_TOL = 1e-12  # power iteration stops when a step moves pi by at most this (L1)


@dataclass
class ExtendedChain:
    """The order-d process as a first-order chain on d-tuples."""

    order: int
    states: List[Context]
    index: Dict[Context, int]
    # scipy CSR, (n, n), |G| nonzeros per row; rows sum to 1
    transition: "object"
    alphabet_symbols: Tuple[str, ...]

    @property
    def n_states(self) -> int:
        return len(self.states)

    def dense(self) -> np.ndarray:
        return self.transition.toarray()


def build_extended(kernel: Kernel, order: Optional[int] = None) -> ExtendedChain:
    """Lift the kernel to its extended state space.

    ``order`` may be raised above the kernel's own order (needed when the
    requested window is longer than the memory); it may not be lowered.
    """
    d = kernel.order
    if d is None:
        raise UnsupportedOperation("extended chain requires a finite-order kernel")
    d = max(d, 1)
    if order is not None:
        if order < d:
            raise ValueError(f"order {order} below the kernel order {d}")
        d = order
    symbols = kernel.alphabet.symbols
    n_states = len(symbols) ** d
    if n_states > STATE_GUARD:
        raise EnumerationGuardExceeded(
            f"extended state space {len(symbols)}^{d} = {n_states} exceeds {STATE_GUARD}"
        )
    from scipy.sparse import csr_matrix

    states = [s for s in itertools.product(symbols, repeat=d)]
    index = {s: i for i, s in enumerate(states)}
    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    for i, s in enumerate(states):
        dist = kernel.distribution_at(s)
        for g, p in zip(symbols, dist):
            if p > 0.0:
                rows.append(i)
                cols.append(index[s[1:] + (g,)])
                vals.append(p)
    T = csr_matrix((vals, (rows, cols)), shape=(n_states, n_states))
    row_err = np.abs(np.asarray(T.sum(axis=1)).ravel() - 1.0).max()
    if row_err > 1e-12:
        raise UnsupportedOperation(f"transition rows sum to 1 +/- {row_err:.3e}")
    return ExtendedChain(d, states, index, T, symbols)


def _check_mixing(T) -> None:
    from scipy.sparse.csgraph import connected_components, shortest_path

    n_comp, _ = connected_components(T, directed=True, connection="strong")
    if n_comp != 1:
        raise ReducibleChain(f"{n_comp} strongly connected components")
    # period = gcd over all edges u -> v of (level(u) + 1 - level(v)), the
    # levels being the BFS distances from state 0
    level = shortest_path(T, unweighted=True, indices=0).astype(np.int64)
    tails = np.repeat(np.arange(T.shape[0]), np.diff(T.indptr))
    g = int(np.gcd.reduce(level[tails] + 1 - level[T.indices]))
    if g != 1:
        raise PeriodicChain(f"chain has period {g}")


def stationary(chain: ExtendedChain, method: str = "auto") -> np.ndarray:
    """The unique stationary row vector of the extended chain.

    Dense linear solve up to 4096 states, power iteration beyond (or on
    request, for cross-checking the solver).
    """
    T = chain.transition
    n = T.shape[0]
    _check_mixing(T)
    if method == "auto":
        method = "solve" if n <= DENSE_LIMIT else "power"
    if method == "solve":
        # pi (T - I) = 0 with the normalization row appended
        dense = chain.dense()
        A = np.vstack([dense.T - np.eye(n), np.ones((1, n))])
        b = np.zeros(n + 1)
        b[-1] = 1.0
        pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    elif method == "power":
        pi = np.full(n, 1.0 / n)
        for _ in range(10**6):
            nxt = np.asarray(pi @ T).ravel()
            done = np.abs(nxt - pi).sum() <= POWER_TOL
            pi = nxt
            if done:
                break
        else:
            raise UnsupportedOperation("power iteration did not converge")
    else:
        raise ValueError(f"unknown method {method!r}")
    pi = np.where(pi < 0, 0.0, pi)
    pi = pi / pi.sum()
    err = np.abs(np.asarray(pi @ T).ravel() - pi).sum()
    if err > 1e-10:
        raise UnsupportedOperation(f"stationarity residual {err:.3e}")
    return pi


@dataclass
class WindowLaw:
    """Stationary probability of every m-tuple."""

    length: int
    probs: Dict[Context, float]


def window_law(chain: ExtendedChain, pi: np.ndarray, m: int) -> WindowLaw:
    """Marginalize the stationary law over the oldest d - m coordinates."""
    if not 1 <= m <= chain.order:
        raise ValueError(f"window length {m} outside 1..{chain.order}")
    probs: Dict[Context, float] = {
        w: 0.0 for w in itertools.product(chain.alphabet_symbols, repeat=m)
    }
    for s, p in zip(chain.states, pi):
        probs[s[-m:]] += p
    total = math.fsum(probs.values())
    if abs(total - 1.0) > 1e-10:
        raise UnsupportedOperation(f"window law sums to {total!r}")
    return WindowLaw(m, probs)


def tv_distance(p: Dict[Context, float], q: Dict[Context, float]) -> float:
    """Total variation distance between two laws on the same support."""
    if set(p) != set(q):
        raise ValueError("distributions have different supports")
    return 0.5 * math.fsum(abs(p[k] - q[k]) for k in p)


def validation_tolerance(n_cells: int, n_runs: int) -> float:
    """Three standard deviations of the multinomial TV fluctuation,
    floored at 0.005."""
    return max(0.005, 3.0 * math.sqrt(n_cells / n_runs))


@dataclass
class ValidationReport:
    """The outcome of :func:`validate`; its fields, by name, are the
    ``report`` object of ``ciaftp validate --format json``."""

    kernel: str
    length: int
    n_runs: int
    n_failed: int
    failures_by_code: Dict[str, int]
    tv: float
    tolerance: float
    passed: bool
    cells: List[dict] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return asdict(self)


def validate(
    kernel: Kernel,
    length: int,
    n_runs: int,
    seed: int,
    *,
    max_iter: int = engine.DEFAULT_MAX_ITER,
    max_depth: int = engine.DEFAULT_MAX_DEPTH,
    max_nodes: int = engine.DEFAULT_MAX_NODES,
    jobs: int = 1,
) -> ValidationReport:
    """Compare the empirical window law of N runs of :func:`engine.run`
    (over ``jobs`` processes) against the exact oracle law.  Any
    budget-failed run fails validation outright."""
    d = kernel.order
    if d is None:
        raise UnsupportedOperation("validation requires a finite-order kernel")
    chain = build_extended(kernel, order=max(max(d, 1), length))
    pi = stationary(chain)
    law = window_law(chain, pi, length)

    rows = engine.run_many(
        kernel, length, seed, 0, n_runs, max_iter=max_iter, max_depth=max_depth,
        max_nodes=max_nodes, timing=False, jobs=jobs,
    )
    counts: Dict[Context, int] = {w: 0 for w in law.probs}
    failures: Dict[str, int] = {}
    for row in rows:
        if row.error is not None:
            failures[row.error] = failures.get(row.error, 0) + 1
        else:
            counts[row.sample] += 1
    n_failed = sum(failures.values())
    n_ok = n_runs - n_failed
    empirical = {w: (counts[w] / n_ok if n_ok else 0.0) for w in counts}
    tv = tv_distance(empirical, law.probs)
    tol = validation_tolerance(len(law.probs), n_runs)
    passed = n_failed == 0 and tv <= tol
    fmt = kernel.alphabet.format_word
    cells = [
        {"window": fmt(w), "count": counts[w], "expected": law.probs[w] * n_runs}
        for w in sorted(counts)
    ]
    return ValidationReport(
        kernel=kernel.family,
        length=length,
        n_runs=n_runs,
        n_failed=n_failed,
        failures_by_code=dict(sorted(failures.items())),
        tv=tv,
        tolerance=tol,
        passed=passed,
        cells=cells,
    )
