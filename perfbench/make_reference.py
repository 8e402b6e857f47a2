#!/usr/bin/env python3
"""Record the reference p_hat of every benchmark spec that has no closed form.

Run from the repository root:

    python3 perfbench/make_reference.py

and commit the rewritten perfbench/reference.json.  Rumor centers on the
snapshot and the random-regular first-timestamp points have no closed form,
so the benchmark compares them against the p_hat recorded here from many more
trials than one benchmark run makes, on master seeds drawn from a stream
('reference') that no integer --seed reaches.  Re-record only when a change
is meant to move these detection rates, and say so in CHANGES.md.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402

# (workload, rounds, trials per spec per round): 20,000 snapshot trials and
# 40,000 trials per theta point, the latter spread over 40 random graphs.
PLAN = (("rc-fullspread", 10, 2000), ("ft-sweep-rr", 40, 1000))


def main():
    recorded = {}
    for name, rounds, trials in PLAN:
        workload = workloads.build(name, reference={})
        wanted = [label for label, check in workload.checks.items() if check is None]
        hits = dict.fromkeys(wanted, 0)
        seeds = workload.round_seeds("reference")
        for _ in range(rounds):
            for call, master_seed in zip(workload.calls, next(seeds)):
                if not set(call.labels) & set(wanted):
                    continue
                for label, report in zip(call.labels, call.run(master_seed, trials, 2)):
                    hits[label] += report.hits
        recorded[name] = {
            label: {"hits": hits[label], "trials": rounds * trials,
                    "p_hat": hits[label] / (rounds * trials)}
            for label in wanted
        }
        print(name, {label: round(v["p_hat"], 4) for label, v in recorded[name].items()},
              file=sys.stderr)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
