#!/usr/bin/env python3
"""rumorlab benchmark: trials/s on three seeded Monte Carlo workloads.

Run from the repository root:

    python3 perfbench/run.py --workload rc-fullspread --seed 1 --seconds 20 --trace 0

Each workload is a closed loop: one client runs its harness calls back to
back, in rounds, until --seconds of harness wall time have passed.

--trace 0 prints the end-to-end metrics: trials_per_s (trials completed /
wall seconds of the harness calls, over the whole run), setup_s
(median of fresh-interpreter set-ups: import rumorlab, build the specs, one
warm-up trial per spec) and peak_rss_mb (peak resident memory of this
process plus the largest worker child).  Both times are scaled to a
reference host speed by a fixed probe timed next to them (calibrate.py);
the unscaled figures are in the info line.

--trace 1 prints the per-layer metrics.  It runs a fixed number of rounds
three times: untraced at one worker, traced at one worker, untraced at two
workers.  Every spec's hits must agree across the three.  Spans are written
to perfbench/out/ when the run ends.

Every spec's pooled p_hat is checked against its closed form, or against the
p_hat in reference.json where no closed form exists.  A spec that raises or
fails its check counts all its trials as failed.  The last stdout line is the
JSON result; the line before it records the run's inputs and p_hat values.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import replace
from itertools import islice

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("rc-fullspread", "ml-trickle", "ft-sweep-rr")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60


class Ledger:
    """Hits and trials per spec label over the rounds of one phase."""

    def __init__(self, workload):
        self.workload = workload
        self.probe_s = None  # last host-speed probe, shared by adjacent calls
        self.hits = dict.fromkeys(workload.labels, 0)
        self.trials = dict.fromkeys(workload.labels, 0)
        self.attempted = dict.fromkeys(workload.labels, 0)
        self.errors = set()
        self.per_round = []  # {label: hits} of each round
        self.seconds = 0.0      # wall seconds of the harness calls
        self.ref_seconds = 0.0  # the same, at the reference host speed

    def run_round(self, seeds, trials, workers):
        """Run every call once; return (seconds at reference speed, trials completed).

        The host speed is probed before and after each call, outside the
        timed call, and the call's wall time is scaled by the mean of the two.
        """
        ref_elapsed = 0.0
        done = 0
        round_hits = {}
        for call, master_seed in zip(self.workload.calls, seeds):
            for label in call.labels:
                self.attempted[label] += trials
            before = self.probe_s if self.probe_s is not None else calibrate.sample()
            t0 = time.perf_counter()
            try:
                reports = call.run(master_seed, trials, workers)
            except Exception:
                reports = None
                traceback.print_exc()
                self.errors.update(call.labels)
            wall = time.perf_counter() - t0
            self.probe_s = calibrate.sample()
            self.seconds += wall
            ref_elapsed += wall * calibrate.speed((before + self.probe_s) / 2)
            if reports is None:
                continue
            for label, report in zip(call.labels, reports):
                self.hits[label] += report.hits
                self.trials[label] += report.trials
                round_hits[label] = report.hits
                done += report.trials
        self.per_round.append(round_hits)
        self.ref_seconds += ref_elapsed
        return ref_elapsed, done

    def verdicts(self):
        """label -> (passed, p_hat or None)."""
        out = {}
        for label in self.workload.labels:
            check = self.workload.checks[label]
            n = self.trials[label]
            p_hat = self.hits[label] / n if n else None
            passed = (label not in self.errors and check is not None and n > 0
                      and check.passes(self.hits[label], n))
            out[label] = (passed, p_hat)
        return out

    def tally(self):
        """(attempted, failed) trials; a failing spec fails all its trials."""
        attempted = sum(self.attempted.values())
        failed = sum(self.attempted[label]
                     for label, (passed, _) in self.verdicts().items() if not passed)
        return attempted, failed

    def total_trials(self):
        return sum(self.trials.values())

    def total_hits(self):
        return sum(self.hits.values())


def peak_rss_mb(inherited_child_kb):
    """This process's peak plus its largest child's, in MB.

    A launcher that ran commands in this process before exec'ing Python (a
    version-manager shim, say) leaves their peak in RUSAGE_CHILDREN, so the
    children count only when a child of this run raised that peak.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (child if child > inherited_child_kb else 0)) / 1024.0


def setup_seconds(workload_name, seed):
    """Median set-up time over fresh interpreters (see setup_probe.py), each
    scaled to the reference host speed by the probe that follows it."""
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload_name, str(seed)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        wall, probe = map(float, proc.stdout.split()[-2:])
        samples.append((wall, probe))
    return statistics.median(wall * calibrate.speed(probe) for wall, probe in samples), samples


def measured_run(workload, seed, seconds, inherited_child_kb):
    ledger = Ledger(workload)
    rates = []
    for seeds in workload.round_seeds(seed):
        elapsed, done = ledger.run_round(seeds, workload.round_trials, workload.workers)
        rates.append(done / elapsed)
        if ledger.seconds >= seconds:
            break
    rss = peak_rss_mb(inherited_child_kb)
    setup, samples = setup_seconds(workload.name, seed)
    metrics = {
        "trials_per_s": ledger.total_trials() / ledger.ref_seconds,
        "setup_s": setup,
        "peak_rss_mb": rss,
    }
    extra = {"rounds": len(rates), "round_rates": rates,
             "wall_trials_per_s": ledger.total_trials() / ledger.seconds,
             "mean_host_speed": _ratio(ledger.ref_seconds, ledger.seconds),
             "setup_wall_and_probe_s": samples}
    return ledger, metrics, extra, True


def traced_run(workload, seed, seconds):
    from tracer import Tracer

    rounds = max(1, int(seconds // workload.trace_round_s))
    seeds = list(islice(workload.round_seeds(seed), rounds))

    def phase(workers, tracer=None):
        ledger = Ledger(workload)
        with tracer if tracer is not None else nullcontext():
            for round_seeds in seeds:
                ledger.run_round(round_seeds, workload.round_trials, workers)
        return ledger

    plain = phase(1)
    tracer = Tracer()
    traced = phase(1, tracer)
    pooled = phase(2)

    reproduced = True
    for other, what in ((traced, "traced"), (pooled, "2-worker")):
        if other.per_round != plain.per_round:
            reproduced = False
            print(f"perfbench: {what} run changed hits: {other.per_round} "
                  f"!= untraced {plain.per_round}", file=sys.stderr)

    totals = tracer.totals()
    calls, total, own, _ = totals
    silent = [name for name in workload.expected_spans if calls[name] == 0]
    if silent:
        raise RuntimeError(f"traced functions recorded zero calls: {silent}; "
                           "a layer function was renamed or bypassed")

    metrics = layer_metrics(tracer, totals, plain, traced, pooled)
    print_span_table(calls, total, own, calls["harness.run_trial"])
    os.makedirs(OUT, exist_ok=True)
    trace_path = os.path.join(OUT, f"trace-{workload.name}-seed{seed}.txt")
    tracer.write(trace_path, {"workload": workload.name, "seed": seed,
                              "rounds": rounds, "metrics": metrics})
    extra = {"rounds": rounds, "trace_file": os.path.relpath(trace_path, ROOT),
             "trials_traced": calls["harness.run_trial"],
             "hits_per_round": plain.per_round}
    return plain, metrics, extra, reproduced


def _quantile(sorted_values, q):
    """Nearest-rank quantile; 0 for an empty sample."""
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, math.ceil(q * len(sorted_values)) - 1)]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, totals, plain, traced, pooled):
    """Per-layer numbers of the traced phase; 0 where a layer does not run."""
    from tracer import PATH_SPANS

    calls, total, own, dur = totals
    ms = 1e-6
    trials = calls["harness.run_trial"]
    counts = tracer.counts
    names = tracer.names

    def layer_sum(table, prefix):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    trial_nid = names.index("harness.run_trial")
    trial_ms = sorted(dur[i] * ms for i in range(len(dur)) if tracer.name[i] == trial_nid)
    trc_ms = sorted(dur[i] * ms for i, _, _ in tracer.trc_calls)
    trc_candidates = sum(c for _, c, _ in tracer.trc_calls)
    trc_feasible = sum(f for _, _, f in tracer.trc_calls)
    path_ns = sum(total[name] for name in PATH_SPANS)
    path_calls = sum(calls[name] for name in PATH_SPANS)
    # Graph construction: the explicit random-regular build, or the per-trial
    # lazy tree on the tree workloads.
    build_ns = total["graphs.build_random_regular"] + total["graphs.lazy_regular_tree"]
    builds = calls["graphs.build_random_regular"] + calls["graphs.lazy_regular_tree"]
    return {
        "harness.trial_ms.p50": _quantile(trial_ms, 0.50),
        "harness.trial_ms.p99": _quantile(trial_ms, 0.99),
        "harness.self_ms_per_trial": _ratio(
            (own["harness.run_trial"] + total["harness.trial_stream"]) * ms, trials),
        "harness.span_cover_frac": _ratio(
            total["harness.run_trial"] - own["harness.run_trial"], total["harness.run_trial"]),
        "harness.speedup_2w": _ratio(pooled.total_trials() / pooled.ref_seconds,
                                     plain.total_trials() / plain.ref_seconds),
        "harness.hits": traced.total_hits(),
        "harness.trace_overhead_frac": traced.ref_seconds / plain.ref_seconds - 1.0,
        "graphs.build_ms": _ratio(build_ns * ms, builds),
        "graphs.builds": builds,
        "graphs.tree_nodes_per_trial": _ratio(counts["tree_nodes"], trials),
        "graphs.path_ms_per_trial": _ratio(path_ns * ms, trials),
        "graphs.path_calls_per_trial": _ratio(path_calls, trials),
        "spreading.ms_per_trial": _ratio(layer_sum(total, "spreading.") * ms, trials),
        "spreading.infected_per_trial": _ratio(counts["infected"] + counts["expanded"], trials),
        "spreading.reports_per_trial": _ratio(counts["reports"], trials),
        "spreading.skipped_per_trial": _ratio(counts["skipped"], trials),
        "adversary.ms_per_trial": _ratio(layer_sum(total, "adversary.") * ms, trials),
        "adversary.observed_per_trial": _ratio(counts["observed"], trials),
        "estimators.ms_per_trial": _ratio(layer_sum(own, "estimators.") * ms, trials),
        "estimators.tie_set_mean": _ratio(counts["tie_sum"], counts["tie_calls"]),
        "estimators.center_found_frac": _ratio(counts["rc_found"], counts["rc_calls"]),
        "trc.ms_per_call.p50": _quantile(trc_ms, 0.50),
        "trc.ms_per_call.p99": _quantile(trc_ms, 0.99),
        "trc.candidates_per_call": _ratio(trc_candidates, len(tracer.trc_calls)),
        "trc.feasible_frac": _ratio(trc_feasible, trc_candidates),
    }


def print_span_table(calls, total, own, trials):
    print(f"{'span':40s} {'calls':>9s} {'total_ms':>10s} {'self_ms':>10s} {'ms/trial':>9s}",
          file=sys.stderr)
    for name in sorted(calls, key=lambda k: -total[k]):
        print(f"{name:40s} {calls[name]:9d} {total[name] / 1e6:10.1f} "
              f"{own[name] / 1e6:10.1f} {total[name] / 1e6 / max(trials, 1):9.4f}",
              file=sys.stderr)


def run_info(args, extra, verdicts):
    import rumorlab

    digest = hashlib.sha256()
    pkg = os.path.dirname(rumorlab.__file__)
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "specs": {label: {"p_hat": p_hat, "passed": passed}
                  for label, (passed, p_hat) in verdicts.items()},
        **extra,
    }


def declared_units(section):
    """Metric name -> unit, from BENCHMARK.json's end_to_end or per_layer list."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None, round_trials=None):
    """Entry point; round_trials shrinks every round (selftest.py only)."""
    args = parse_args(argv)
    inherited_child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if not os.path.isfile(os.path.join(SRC, "rumorlab", "__init__.py")):
        print(f"perfbench: no rumorlab sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import rumorlab
    import workloads

    if os.path.dirname(os.path.abspath(rumorlab.__file__)) != os.path.join(SRC, "rumorlab"):
        print(f"perfbench: imported rumorlab from {rumorlab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workload = workloads.build(args.workload)
    if round_trials is not None:
        workload = replace(workload, round_trials=round_trials)
    workloads.warm_up(workload, args.seed)
    if args.trace:
        ledger, metrics, extra, reproduced = traced_run(workload, args.seed, args.seconds)
    else:
        ledger, metrics, extra, reproduced = measured_run(workload, args.seed, args.seconds,
                                                          inherited_child_kb)

    verdicts = ledger.verdicts()
    for label, (passed, p_hat) in verdicts.items():
        if not passed:
            print(f"perfbench: spec {label} failed its check (p_hat={p_hat}, "
                  f"check={workload.checks[label]}, raised={label in ledger.errors})",
                  file=sys.stderr)
    attempted, failed = ledger.tally()
    units = declared_units("per_layer" if args.trace else "end_to_end")
    print(json.dumps({"info": run_info(args, extra, verdicts)}))
    print(json.dumps({
        "correct": failed == 0 and reproduced,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
