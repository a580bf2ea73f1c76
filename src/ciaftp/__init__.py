"""Exact stationary sampling for variable-length and infinite-memory
Markov chains via backward coupling."""

from .engine import RngStream, pw_extended, run, run_many
from .kernels import (
    ContextTreeKernel,
    Kernel,
    RenewalSqrtKernel,
    full_markov_kernel,
    load_kernel,
    memoryless_kernel,
    parse_kernel_spec,
)
from .oracle import build_extended, stationary, tv_distance, validate, window_law
from .tries import Alphabet, ContextTrie, dominates, prefix_closure, prune_minimal
from .update_rule import build_slice, interval_table, phi, verify_measure

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "ContextTreeKernel",
    "ContextTrie",
    "Kernel",
    "RenewalSqrtKernel",
    "RngStream",
    "build_extended",
    "build_slice",
    "dominates",
    "full_markov_kernel",
    "interval_table",
    "load_kernel",
    "memoryless_kernel",
    "parse_kernel_spec",
    "phi",
    "prefix_closure",
    "prune_minimal",
    "pw_extended",
    "run",
    "run_many",
    "stationary",
    "tv_distance",
    "validate",
    "verify_measure",
    "window_law",
]
