#!/usr/bin/env python3
"""Trickle vs diffusion first-timestamp detection as a function of theta on a
d-regular tree, with the closed-form overlays (plot-ready long CSV).

Usage:
    python scripts/theta_sweep_tree.py [--d 4] [--trials 5000] [--out sweep.csv]
"""

import argparse
import sys

from rumorlab.cli import main as cli_main


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d", type=int, default=4)
    ap.add_argument("--theta-max", type=int, default=8)
    ap.add_argument("--trials", type=int, default=5000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", default="theta_sweep_tree.csv")
    args = ap.parse_args()
    values = ",".join(str(v) for v in range(1, args.theta_max + 1))
    return cli_main([
        "compare",
        "--graph", "tree",
        "--d", str(args.d),
        "--theta", "1",
        "--axis", "theta",
        "--values", values,
        "--trials", str(args.trials),
        "--seed", str(args.seed),
        "--out", args.out,
    ])


if __name__ == "__main__":
    sys.exit(main())
