"""Shared fixtures: the desk kernels and random-structure generators."""

from __future__ import annotations

import itertools
import json
import runpy
from pathlib import Path
from typing import Dict, List, Set, Tuple

import numpy as np

from ciaftp.kernels import (ContextTreeKernel, Kernel, full_markov_kernel, load_kernel,
                            memoryless_kernel, parse_kernel_spec)
from ciaftp.tries import Alphabet, Context, ContextTrie

KERNELS = Path(__file__).resolve().parent.parent / "kernels"

BINARY = Alphabet(("0", "1"))
TERNARY = Alphabet(("a", "b", "c"))


def desk_vlmc() -> ContextTreeKernel:
    """Three-context kernel used throughout: P(1|0)=0.3, P(1|01)=0.6,
    P(1|11)=0.9 (context strings oldest-to-newest)."""
    leaves = {
        ("0",): (0.7, 0.3),
        ("0", "1"): (0.4, 0.6),
        ("1", "1"): (0.1, 0.9),
    }
    return ContextTreeKernel(ContextTrie.from_leaves(BINARY, leaves))


def order1_chain() -> ContextTreeKernel:
    """Two-state chain with p(1|0) = 0.3 and p(0|1) = 0.6; its stationary
    law is (2/3, 1/3)."""
    return full_markov_kernel(BINARY, 1, {("0",): (0.7, 0.3), ("1",): (0.6, 0.4)})


def memoryless_25_75() -> ContextTreeKernel:
    return memoryless_kernel(BINARY, (0.25, 0.75))


def random_csd(rng: np.random.Generator, alphabet: Alphabet, splits: int) -> Set[Context]:
    """A random complete suffix dictionary grown by repeatedly replacing a
    leaf with its children."""
    leaves: Set[Context] = {()}
    for _ in range(splits):
        victim = tuple(sorted(leaves))[rng.integers(len(leaves))]
        leaves.discard(victim)
        for g in alphabet.symbols:
            leaves.add((g,) + victim)
    return leaves


def random_distribution(rng: np.random.Generator, n: int) -> tuple:
    x = rng.random(n) + 0.2  # bounded away from 0 => irreducible, aperiodic
    x = x / x.sum()
    x[-1] = 1.0 - x[:-1].sum()
    return tuple(float(v) for v in x)


def random_vlmc(rng: np.random.Generator, alphabet: Alphabet, splits: int) -> ContextTreeKernel:
    leaves: Dict[Context, tuple] = {
        ctx: random_distribution(rng, alphabet.size)
        for ctx in sorted(random_csd(rng, alphabet, splits))
    }
    if leaves.keys() == {()}:
        # keep the kernel genuinely contextual
        leaves = {
            (g,): random_distribution(rng, alphabet.size) for g in alphabet.symbols
        }
    return ContextTreeKernel(ContextTrie.from_leaves(alphabet, leaves))


def random_context(rng: np.random.Generator, alphabet: Alphabet, length: int) -> Context:
    return tuple(alphabet.symbols[i] for i in rng.integers(alphabet.size, size=length))


def all_contexts(alphabet: Alphabet, length: int):
    return itertools.product(alphabet.symbols, repeat=length)


def program_kernels() -> List[Tuple[str, Kernel]]:
    """``(name, kernel)`` for every finite shipped kernel, the ternary spec
    of ``scripts/run_outcomes.py``, then 16 random binary and 16 random
    ternary VLMCs."""
    kernels = [(path.stem, load_kernel(str(path))) for path in sorted(KERNELS.glob("*.json"))]
    kernels = [(name, k) for name, k in kernels if k.order is not None]
    spec = runpy.run_path(str(KERNELS.parent / "scripts" / "run_outcomes.py"))["SPECS"]
    kernels.append(("ternary_vlmc", parse_kernel_spec(json.dumps(spec["ternary_vlmc"]))))
    rng = np.random.Generator(np.random.PCG64(29))
    for alphabet in (BINARY, TERNARY):
        kernels += [(f"random{alphabet.size}-{i}",
                     random_vlmc(rng, alphabet, int(rng.integers(1, 8)))) for i in range(16)]
    return kernels
