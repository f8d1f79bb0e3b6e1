#!/usr/bin/env python3
"""Budget-matched residual comparison: filtered solve vs doubling test.

For each seed and each filter half-length K, both residuals are
evaluated on the same orbit at an equal sample budget N, giving the
data for a residual-vs-N convergence plot.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from birkhoff_rre.cli import run_converge
from birkhoff_rre.config import RunConfig
from birkhoff_rre.spectral import ClassifyParams


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=float, default=0.7)
    parser.add_argument("--gamma", type=float, default=2.0)
    parser.add_argument("--k-values", type=int, nargs="+",
                        default=[25, 50, 100, 200, 400, 700])
    parser.add_argument("--seeds", default="0.1 0.0; 0.05 0.3; 0.5 0.05",
                        help="semicolon-separated x y pairs")
    parser.add_argument("--table", default="convergence.csv")
    args = parser.parse_args()

    seeds = []
    for chunk in args.seeds.split(";"):
        x, y = chunk.split()
        seeds.append((float(x), float(y)))
    cfg = RunConfig(
        k=args.k,
        params=ClassifyParams(gamma=args.gamma),
        k_values=args.k_values,
        seeds=seeds,
        table=args.table,
    ).validate()
    return run_converge(cfg)


if __name__ == "__main__":
    sys.exit(main())
