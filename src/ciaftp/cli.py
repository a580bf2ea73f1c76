"""Command-line front end.

Four subcommands; each takes only the flags it uses:

* ``sample``   - N independent exact draws, CSV/JSON rows
* ``validate`` - statistical comparison against the exact oracle, JSON
* ``bench``    - adaptive engine vs. the extended-chain baseline, CSV
* ``inspect``  - static views: dictionary/closure/coefficient tables, or
  the slice and interval layout of one uniform draw

All output is deterministic for a fixed (config, seed) once ``--no-timing``
zeroes the wall-clock fields; every header records the kernel digest, the
RNG algorithm, and the seed actually used.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import secrets
import sys
from typing import List, Optional, Sequence

from . import engine, oracle
from .engine import RNG_ALGORITHM, RunRow
from .errors import CiaftpError, KernelSpecError
from .kernels import expected_depth_bound, kernel_spec_digest, load_kernel, resolves
from .tries import prefix_closure
from .update_rule import build_slice, interval_table

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ciaftp",
        description="Exact sampling from stationary laws of variable-length "
        "and infinite-memory Markov chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--kernel", required=True, help="kernel spec JSON path")
        p.add_argument("--length", type=int, default=1, metavar="L")
        p.add_argument("--max-depth", type=int, default=engine.DEFAULT_MAX_DEPTH)
        p.add_argument("--out", default=None, help="output path (default stdout)")

    def sampler_flags(p: argparse.ArgumentParser, runs_default: int) -> None:
        """The flags of the commands that run the sampler."""
        common(p)
        p.add_argument("--runs", type=int, default=runs_default, metavar="N")
        p.add_argument("--seed", type=int, default=None, metavar="S")
        p.add_argument("--max-iter", type=int, default=engine.DEFAULT_MAX_ITER)
        p.add_argument("--max-nodes", type=int, default=engine.DEFAULT_MAX_NODES)
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--no-timing", action="store_true", help="zero wall-clock fields")

    def row_flags(p: argparse.ArgumentParser, runs_default: int) -> None:
        """The flags of the commands that print one row per run."""
        sampler_flags(p, runs_default)
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p_sample = sub.add_parser("sample", help="draw exact stationary windows")
    row_flags(p_sample, runs_default=1)
    p_sample.add_argument("--trace", default=None, metavar="PATH",
                          help="write per-iteration records to PATH (in --format)")

    p_validate = sub.add_parser("validate", help="compare sample law to the exact oracle")
    sampler_flags(p_validate, runs_default=10**4)

    p_bench = sub.add_parser("bench", help="adaptive engine vs. extended-chain baseline")
    row_flags(p_bench, runs_default=100)

    p_inspect = sub.add_parser("inspect", help="static kernel / slice views")
    common(p_inspect)
    p_inspect.add_argument("--u", type=float, default=None,
                           help="inspect the slice of this uniform draw")
    p_inspect.add_argument("--context", default=None,
                           help="context word for the interval table (with --u)")
    return parser


def _resolve_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("CIAFTP_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise CiaftpError(f"CIAFTP_SEED={env!r} is not an integer") from None
        if seed < 0:
            raise CiaftpError(f"CIAFTP_SEED={env!r} is negative")
        return seed
    seed = secrets.randbits(32)
    print(f"ciaftp: seed not given; using OS-entropy seed {seed}", file=sys.stderr)
    return seed


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _header_lines(args: argparse.Namespace, seed: int) -> List[str]:
    return [
        f"# ciaftp {args.command}",
        f"# kernel_sha256={kernel_spec_digest(args.kernel)}",
        f"# rng={RNG_ALGORITHM}",
        f"# seed={seed}",
        f"# length={args.length} runs={args.runs}",
        f"# max_iter={args.max_iter} max_depth={args.max_depth} max_nodes={args.max_nodes}",
    ]


ROW_FIELDS = ("run_id", "sample", "tau", "iterations", "node_touches", "wall_ns", "error")
TRACE_FIELDS = ("run_id", "t", "leaf_count", "depth", "node_touches")


def _budgets(args: argparse.Namespace) -> dict:
    return {"max_iter": args.max_iter, "max_depth": args.max_depth, "max_nodes": args.max_nodes}


def _row_dicts(kernel, rows: List[RunRow]) -> List[dict]:
    fmt = kernel.alphabet.format_word
    return [
        {
            "run_id": r.run_id,
            "sample": fmt(r.sample) if r.sample is not None else "",
            "tau": "" if r.tau is None else r.tau,
            "iterations": r.iterations,
            "node_touches": r.node_touches,
            "wall_ns": r.wall_ns,
            "error": r.error or "",
        }
        for r in rows
    ]


def _csv_block(fieldnames: Sequence[str], dicts: List[dict], header: Sequence[str]) -> str:
    import csv

    buf = io.StringIO()
    for line in header:
        buf.write(line + "\n")
    writer = csv.DictWriter(buf, fieldnames=list(fieldnames), lineterminator="\n")
    writer.writeheader()
    writer.writerows(dicts)
    return buf.getvalue()


def _render(args: argparse.Namespace, seed: int, fields: Sequence[str], dicts: List[dict],
            key: str = "rows", header: bool = True) -> str:
    """A table in the ``--format`` asked for: CSV (after the ``#`` header
    lines unless ``header`` is off) or a JSON document with the metadata."""
    if args.format == "json":
        doc = {"meta": _meta_dict(args, seed), key: dicts}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return _csv_block(fields, dicts, _header_lines(args, seed) if header else ())


def cmd_sample(args: argparse.Namespace) -> int:
    kernel = load_kernel(args.kernel)
    seed = _resolve_seed(args)
    rows = engine.run_many(
        kernel, args.length, seed, 0, args.runs, timing=not args.no_timing,
        trace=args.trace is not None, jobs=args.jobs, **_budgets(args),
    )
    if args.trace is not None:
        records = [dict(run_id=r.run_id, **vars(rec)) for r in rows for rec in r.records or ()]
        _emit(_render(args, seed, TRACE_FIELDS, records, key="records", header=False), args.trace)
    _emit(_render(args, seed, ROW_FIELDS, _row_dicts(kernel, rows)), args.out)
    failed = [r for r in rows if r.error is not None]
    for r in failed:
        print(f"ciaftp: error: {r.error}: run {r.run_id} exhausted its budget", file=sys.stderr)
    return EXIT_FAIL if failed else EXIT_OK


def _meta_dict(args: argparse.Namespace, seed: int) -> dict:
    return {
        "command": args.command,
        "kernel_sha256": kernel_spec_digest(args.kernel),
        "rng": RNG_ALGORITHM,
        "seed": seed,
        "length": args.length,
        "runs": args.runs,
        "max_iter": args.max_iter,
        "max_depth": args.max_depth,
        "max_nodes": args.max_nodes,
    }


def cmd_validate(args: argparse.Namespace) -> int:
    kernel = load_kernel(args.kernel)
    seed = _resolve_seed(args)
    report = oracle.validate(kernel, args.length, args.runs, seed, jobs=args.jobs, **_budgets(args))
    payload = {"meta": _meta_dict(args, seed), "report": report.to_json_dict()}
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_bench(args: argparse.Namespace) -> int:
    kernel = load_kernel(args.kernel)
    seed = _resolve_seed(args)
    algorithms = ["ciaftp"]
    if kernel.order is not None:
        algorithms.append("pw_extended")
    dicts: List[dict] = []
    for algo in algorithms:
        rows = engine.run_many(kernel, args.length, seed, 0, args.runs, algorithm=algo,
                               timing=not args.no_timing, jobs=args.jobs, **_budgets(args))
        dicts += [{"algorithm": algo, "seed": seed + d.pop("run_id"), **d}
                  for d in _row_dicts(kernel, rows)]
    fields = ("algorithm", "seed") + ROW_FIELDS[1:]
    _emit(_render(args, seed, fields, dicts), args.out)
    failed = [d for d in dicts if d["error"]]
    return EXIT_FAIL if failed else EXIT_OK


def cmd_inspect(args: argparse.Namespace) -> int:
    kernel = load_kernel(args.kernel)
    buf = io.StringIO()
    if args.u is not None:
        _inspect_slice(kernel, args, buf)
    else:
        _inspect_kernel(kernel, args, buf)
    _emit(buf.getvalue(), args.out)
    return EXIT_OK


def _inspect_slice(kernel, args, buf: io.StringIO) -> None:
    u = args.u
    if not 0.0 <= u < 1.0:
        raise CiaftpError(f"--u must lie in [0, 1), got {u!r}")
    slice_ = build_slice(kernel, u, args.max_depth)
    buf.write(f"# slice for u={u!r}\n")
    buf.write(f"# depth={slice_.depth} leaves={slice_.trie.leaf_count()} "
              f"regeneration={slice_.is_regeneration}\n")
    buf.write(slice_.trie.to_text() + "\n")
    if args.context is not None:
        ctx = kernel.alphabet.parse_word(args.context)
    else:
        # the smallest deepest leaf: the last place the draw could still be
        # undecided, whatever order the trie lists its leaves in
        ctx = min(s for s in slice_.trie.leaf_contexts() if len(s) == slice_.depth)
    buf.write(f"\n# interval table along context {kernel.alphabet.format_word(ctx) or 'ε'}\n")
    buf.write("level,symbol,alpha,beta\n")
    for iv in interval_table(kernel, ctx, u_cap=u):
        buf.write(f"{iv.level},{iv.symbol},{iv.alpha!r},{iv.beta!r}\n")


def _inspect_kernel(kernel, args, buf: io.StringIO) -> None:
    buf.write(f"# kernel family={kernel.family} ")
    buf.write(f"order={'inf' if kernel.order is None else kernel.order}\n")
    if hasattr(kernel, "trie"):
        trie = kernel.trie
        buf.write("# dictionary\n")
        buf.write(trie.to_text() + "\n")
        closed = sorted(prefix_closure(trie).leaf_contexts())
        fmt = kernel.alphabet.format_word
        buf.write("# prefix closure: {" + ", ".join(fmt(c) or "ε" for c in closed) + "}\n")
        d = kernel.order
        n_leaves = trie.leaf_count()
        buf.write(
            f"# closure size {len(closed)} <= |D|*depth = {n_leaves}*{d}"
            f" = {n_leaves * d}\n" if d > 0 else "# closure size 1 (memoryless)\n"
        )
    # a finite kernel's masses resolve by its order
    depth_cap = args.max_depth if kernel.order is not None else min(args.max_depth, 64)
    buf.write("# worst-case coupled mass by depth\nk,A_k_min\n")
    for k in range(depth_cap + 1):
        mass = kernel.min_mass(k)
        buf.write(f"{k},{mass!r}\n")
        if resolves(mass):
            break
    bound = expected_depth_bound(kernel, args.length)
    buf.write(f"# expected depth bound (window {args.length}): ")
    buf.write(f"{bound.bound!r} finite={bound.sum_finite}\n")


POSITIVE_FLAGS = ("length", "runs", "jobs", "max_iter", "max_depth", "max_nodes")

_COMMANDS = {
    "sample": cmd_sample,
    "validate": cmd_validate,
    "bench": cmd_bench,
    "inspect": cmd_inspect,
}


def _usage_problem(args: argparse.Namespace) -> Optional[str]:
    """Why the flags cannot run, or None; inspect takes only some of them."""
    low = [f"--{name.replace('_', '-')}" for name in POSITIVE_FLAGS if getattr(args, name, 1) < 1]
    if low:
        return f"{', '.join(low)} must be >= 1"
    if getattr(args, "seed", None) is not None and args.seed < 0:
        return "--seed must be >= 0"
    if getattr(args, "context", None) is not None and args.u is None:
        return "--context needs --u"
    # no output may be written over the spec or over another output
    given = [(f"--{name}", _file_identity(path)) for name in ("kernel", "trace", "out")
             if (path := getattr(args, name, None))]
    for (flag, file), (other, other_file) in itertools.combinations(given, 2):
        if file == other_file:
            return f"{flag} and {other} name the same file"
    return None


def _file_identity(path: str):
    """What names one file whatever the spelling: the device and inode of
    an existing file (so hard links match too), else the real path."""
    try:
        st = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return st.st_dev, st.st_ino


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    problem = _usage_problem(args)
    if problem is not None:
        print(f"ciaftp: error: Usage: {problem}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except OSError as exc:
        # an unreadable kernel file or unwritable --out path, e.g. FileNotFound
        code = type(exc).__name__.removesuffix("Error")
        print(f"ciaftp: error: {code}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KernelSpecError as exc:
        print(f"ciaftp: error: {exc.code}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CiaftpError as exc:
        print(f"ciaftp: error: {exc.code}: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
