#!/usr/bin/env python3
"""Classify a vertical seed line of the standard map and fit circles.

Writes the classification table (CSV) and one JSON file per integrable
seed. Defaults reproduce the desk-scale experiment: 100 seeds on
x = 0.05, y in [0, 0.6], k = 0.7.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from birkhoff_rre.cli import run_classify
from birkhoff_rre.config import RunConfig
from birkhoff_rre.spectral import ClassifyParams


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=float, default=0.7)
    parser.add_argument("--x", type=float, default=0.05)
    parser.add_argument("--y-min", type=float, default=0.0)
    parser.add_argument("--y-max", type=float, default=0.6)
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--gamma", type=float, default=3.0)
    parser.add_argument("--delta", type=float, default=1e-10)
    parser.add_argument("--k-max", type=int, default=600)
    parser.add_argument("--table", default="line_classification.csv")
    parser.add_argument("--circles", default="line_circles")
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()

    step = (args.y_max - args.y_min) / max(args.count - 1, 1)
    cfg = RunConfig(
        k=args.k,
        params=ClassifyParams(gamma=args.gamma, delta_adapt=args.delta, k_max=args.k_max),
        seeds=[(args.x, args.y_min + i * step) for i in range(args.count)],
        table=args.table,
        circles=args.circles,
        workers=args.workers,
    ).validate()
    return run_classify(cfg)


if __name__ == "__main__":
    sys.exit(main())
