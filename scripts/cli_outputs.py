#!/usr/bin/env python3
"""Write every ``--no-timing`` output of the CLI on a fixed grid to a directory.

The grid is each shipped kernel (``kernels/*.json``) at window lengths 1 and
3, seed 11, and ten commands:

* ``sample --runs 20`` as CSV, as JSON, with ``--trace`` and with
  ``--max-nodes 40``;
* ``bench --runs 20`` (CSV) and ``validate --runs 1000``;
* ``inspect``, then ``inspect --u 0.73``, ``--u 0.995`` and
  ``--u 0.73 --context 1``.

Each command runs in this process through ``ciaftp.cli.main`` and leaves
``OUTDIR/<kernel>/L<length>/<command>.out``, ``.err`` and ``.exit`` (its
stdout, stderr and exit code); the traced sample also leaves its trace file
there.  Running it on two checkouts and comparing the trees with ``diff -r``
shows whether a change kept every CLI output.

Usage:
    python scripts/cli_outputs.py change_out
    python scripts/cli_outputs.py parent_out --src ../other/src
    diff -r parent_out change_out
"""

import argparse
import contextlib
import io
import os
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

LENGTHS = (1, 3)
SEED = "11"
SAMPLE = ["sample", "--runs", "20", "--seed", SEED, "--no-timing"]
COMMANDS = [
    ("sample_csv", SAMPLE),
    ("sample_json", SAMPLE + ["--format", "json"]),
    ("sample_trace", SAMPLE + ["--trace", "sample_trace.records"]),
    ("sample_max_nodes", SAMPLE + ["--max-nodes", "40"]),
    ("bench", ["bench", "--runs", "20", "--seed", SEED, "--no-timing"]),
    ("validate", ["validate", "--runs", "1000", "--seed", SEED, "--no-timing"]),
    ("inspect", ["inspect"]),
    ("inspect_u073", ["inspect", "--u", "0.73"]),
    ("inspect_u0995", ["inspect", "--u", "0.995"]),
    ("inspect_u073_context", ["inspect", "--u", "0.73", "--context", "1"]),
]


def run_cli(main, argv):
    """(stdout, stderr, exit code) of ``main(argv)``; an uncaught exception
    is written to stderr as its last traceback line, with exit code
    ``exception``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        except Exception:
            err.write(traceback.format_exc().strip().splitlines()[-1] + "\n")
            code = "exception"
    return out.getvalue(), err.getvalue(), code


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("outdir", type=Path)
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="directory the ciaftp package is imported from")
    ap.add_argument("--kernels", nargs="+", metavar="NAME",
                    help="shipped kernels to run (default: all of them)")
    args = ap.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    from ciaftp.cli import main as cli_main

    paths = sorted((ROOT / "kernels").glob("*.json"))
    if args.kernels:
        paths = [p for p in paths if p.stem in args.kernels]
        missing = set(args.kernels) - {p.stem for p in paths}
        if missing:
            ap.error(f"no shipped kernel named {', '.join(sorted(missing))}")
    home = Path.cwd()
    for path in paths:
        for length in LENGTHS:
            case = (home / args.outdir / path.stem / f"L{length}").resolve()
            case.mkdir(parents=True, exist_ok=True)
            # the trace file is written relative to the case directory
            os.chdir(case)
            try:
                for name, command in COMMANDS:
                    argv = command + ["--kernel", str(path), "--length", str(length)]
                    out, err, code = run_cli(cli_main, argv)
                    (case / f"{name}.out").write_text(out)
                    (case / f"{name}.err").write_text(err)
                    (case / f"{name}.exit").write_text(f"{code}\n")
            finally:
                os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
