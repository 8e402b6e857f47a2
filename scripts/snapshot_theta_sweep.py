#!/usr/bin/env python3
"""Theta sweep of both protocols on a real (ingested) P2P snapshot, or on a
generated sparse random regular graph standing in for one.

Usage:
    python scripts/snapshot_theta_sweep.py --edges snapshot.edges
    python scripts/snapshot_theta_sweep.py --n 2000 --d 8
"""

import argparse
import sys

from rumorlab.cli import main as cli_main


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--edges", help="edge-list file; omit to generate")
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--d", type=int, default=8)
    ap.add_argument("--theta-max", type=int, default=8)
    ap.add_argument("--trials", type=int, default=5000)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--out", default="snapshot_theta_sweep.csv")
    args = ap.parse_args()

    values = ",".join(str(v) for v in range(1, args.theta_max + 1))
    argv = [
        "compare",
        "--theta", "1",
        "--axis", "theta",
        "--values", values,
        "--trials", str(args.trials),
        "--seed", str(args.seed),
        "--out", args.out,
    ]
    if args.edges:
        argv += ["--graph", "file", "--graph-file", args.edges]
    else:
        argv += ["--graph", "random-regular", "--n", str(args.n), "--d", str(args.d)]
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
