#!/usr/bin/env python3
"""Empirical slice-depth tail of the square-root renewal kernel.

The kernel's slice depth satisfies P(depth >= k) = 1/sqrt(k) exactly; this
script draws uniforms, reads each slice depth with ``slice_depth`` (its
closed form, settled on the kernel's float inequality), and prints the
empirical tail against the law at a few depths.  Also reports the
termination profile (-tau distribution) of full sampling runs.

Usage:
    python scripts/renewal_depth_tail.py --draws 100000 --runs 2000 --seed 0
"""

import argparse
import statistics
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ciaftp.engine import RngStream, run  # noqa: E402
from ciaftp.kernels import RenewalSqrtKernel  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--draws", type=int, default=100_000)
    ap.add_argument("--runs", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    kernel = RenewalSqrtKernel()
    rng = RngStream(args.seed)
    depths = sorted(kernel.slice_depth(rng.uniform()) for _ in range(args.draws))
    print(f"slice depth over {args.draws} draws (max {depths[-1]}):")
    print("  k    empirical P(depth>=k)    1/sqrt(k)")
    idx = 0
    for k in (1, 2, 4, 16, 64, 256, 1024):
        while idx < len(depths) and depths[idx] < k:
            idx += 1
        emp = (len(depths) - idx) / len(depths)
        print(f"  {k:5d}  {emp:20.4f}    {k ** -0.5:9.4f}")

    taus = []
    for i in range(args.runs):
        res = run(kernel, 1, RngStream(args.seed + 1 + i),
                  max_depth=10**12, max_nodes=10**15)
        taus.append(-res.diagnostics.tau)
    hist = Counter(taus)
    print(f"\n-tau over {args.runs} runs: mean {statistics.mean(taus):.2f}, "
          f"max {max(taus)}")
    for t in sorted(hist)[:10]:
        print(f"  -tau={t:3d}: {hist[t]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
