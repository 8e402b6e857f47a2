"""The benchmark's three seeded workloads and their correctness gate.

A workload is a list of harness calls.  Each call is one ExperimentSpec run
through ``run_experiment``, or a base spec swept over theta with ``sweep``
(the shape of ``rumorlab compare``).  The benchmark repeats the calls in
rounds; every round gets fresh master seeds drawn from the workload seed, so
the program only ever sees generated specs and the same seed gives the same
specs.

Why these three (see README.md for the layer map):

* rc-fullspread: full diffusion to K=500 on the lazy 5-regular tree; the only
  user of the spy and snapshot observers and the Steiner/subtree estimators.
* ml-trickle: trickle to a time horizon; the only user of rumorlab.trc and of
  keep_all observations and hop-distance queries.
* ft-sweep-rr: first-timestamp theta sweep on a random 8-regular graph with
  two workers; the only user of explicit graphs with cycles, the
  configuration-model build, the first-report stopping path and the process
  pool.  It touches no lazy tree and no tree estimator.
"""

import json
import math
import os
import random
from dataclasses import dataclass, replace

from rumorlab.analytics import (
    reporting_centrality_constant,
    spy_ft_bound,
    trickle_ml_lower,
    trickle_ml_upper,
)
from rumorlab.harness import AdversarySpec, ExperimentSpec, GraphSpec, run_experiment, sweep
from rumorlab.spreading import SpreadParams

# Tolerance of every p_hat check, in binomial standard deviations.
SIGMAS = 4.0

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


@dataclass(frozen=True)
class Check:
    """Closed-form gate on one spec's pooled p_hat.

    kind 'floor': p_hat >= lo - 4 sigma.  'sandwich': lo - 4 sigma <= p_hat
    <= hi + 4 sigma.  'reference': |p_hat - lo| within 4 sigma of the two
    binomial samples, where lo is a p_hat recorded from ref_trials trials.
    """

    kind: str
    lo: float
    hi: float | None = None
    ref_trials: int | None = None

    def passes(self, hits, trials):
        p = hits / trials

        def sigma(q, extra=0.0):
            return math.sqrt(q * (1 - q) * (1 / trials + extra))

        if self.kind == "floor":
            return p >= self.lo - SIGMAS * sigma(self.lo)
        if self.kind == "sandwich":
            return (self.lo - SIGMAS * sigma(self.lo) <= p
                    <= self.hi + SIGMAS * sigma(self.hi))
        return abs(p - self.lo) <= SIGMAS * sigma(self.lo, 1 / self.ref_trials)


@dataclass(frozen=True)
class Call:
    """One harness call: run_experiment(spec), or sweep(spec, 'theta', thetas)."""

    spec: ExperimentSpec
    labels: tuple
    thetas: tuple | None = None

    def run(self, master_seed, trials, workers):
        spec = replace(self.spec, master_seed=master_seed, trials=trials, workers=workers)
        if self.thetas is None:
            return [run_experiment(spec)]
        return sweep(spec, "theta", self.thetas)


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple
    checks: dict          # label -> Check
    round_trials: int     # trials per spec per round
    workers: int          # workers of the untraced measured run
    trace_round_s: float  # --seconds budget per round of the traced run
    expected_spans: tuple  # traced functions that must record calls

    @property
    def labels(self):
        return [label for call in self.calls for label in call.labels]

    def round_seeds(self, seed, stream="rounds"):
        """Endless iterator of per-round master-seed tuples, one per call."""
        rng = random.Random(f"rumorlab-perfbench/{self.name}/{seed}/{stream}")
        while True:
            yield tuple(rng.getrandbits(62) for _ in self.calls)


COMMON_SPANS = ("harness.run_trial", "harness.trial_stream")


def _load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _rc_fullspread(ref):
    d, p_spy = 5, 0.7
    tree = GraphSpec("tree", d=d)
    params = SpreadParams("diffusion", theta=1.0, max_infections=500)
    specs = [
        ("eavesdropper-rc", AdversarySpec("eavesdropper"), "reporting-centrality"),
        ("spy-rc", AdversarySpec("spy", p=p_spy), "reporting-centrality"),
        ("spy-ft", AdversarySpec("spy", p=p_spy), "first-timestamp"),
        ("snapshot-rumor-centers", AdversarySpec("snapshot"), "rumor-centers"),
    ]
    calls = tuple(
        Call(ExperimentSpec(tree, params, adv, est, trials=1, master_seed=0), (label,))
        for label, adv, est in specs
    )
    c5 = reporting_centrality_constant(d).value
    checks = {
        "eavesdropper-rc": Check("floor", c5),
        "spy-rc": Check("floor", c5 - 0.1),
        "spy-ft": Check("floor", spy_ft_bound(p_spy).value),
        "snapshot-rumor-centers": _reference_check(ref, "rc-fullspread", "snapshot-rumor-centers"),
    }
    expected = ("graphs.lazy_regular_tree", "spreading.simulate_diffusion",
                "adversary.observe_eavesdropper", "adversary.observe_spy",
                "adversary.observe_snapshot", "estimators.reporting_centrality",
                "estimators.spy_first_timestamp", "estimators.rumor_centers",
                "graphs.tree_path@estimators")
    return Workload("rc-fullspread", calls, checks, round_trials=20, workers=1,
                    trace_round_s=2.0, expected_spans=COMMON_SPANS + expected)


def _ml_trickle(ref):
    specs = [
        ("trc-d4-t5", 4, 5, "timestamp-rumor-centrality"),
        ("trc-d6-t7", 6, 7, "timestamp-rumor-centrality"),
        ("ball-d4-t5", 4, 5, "ball-centrality"),
    ]
    calls = []
    checks = {}
    for label, d, t, est in specs:
        spec = ExperimentSpec(
            GraphSpec("tree", d=d),
            SpreadParams("trickle", theta=1, max_time=t),
            AdversarySpec("eavesdropper", estimation_time=t),
            est, trials=1, master_seed=0,
        )
        calls.append(Call(spec, (label,)))
        checks[label] = Check("sandwich", trickle_ml_lower(d, 1, t).value,
                              trickle_ml_upper(d, 1).value)
    expected = ("graphs.lazy_regular_tree", "spreading.simulate_trickle",
                "adversary.observe_eavesdropper", "estimators.ball_centrality",
                "trc.timestamp_rumor_centrality", "graphs.hop_distance@estimators",
                "graphs.tree_path@trc", "graphs.hop_distance@trc")
    return Workload("ml-trickle", tuple(calls), checks, round_trials=100, workers=1,
                    trace_round_s=2.0, expected_spans=COMMON_SPANS + expected)


FT_THETAS = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)


def _ft_sweep_rr(ref):
    calls = []
    checks = {}
    for protocol in ("trickle", "diffusion"):
        spec = ExperimentSpec(
            GraphSpec("random-regular", d=8, n=2000),
            SpreadParams(protocol, theta=1.0),
            AdversarySpec("eavesdropper"),
            "first-timestamp", trials=1, master_seed=0,
        )
        labels = tuple(f"{protocol}-theta{int(th)}" for th in FT_THETAS)
        calls.append(Call(spec, labels, thetas=FT_THETAS))
        for label in labels:
            checks[label] = _reference_check(ref, "ft-sweep-rr", label)
    expected = ("graphs.build_random_regular", "spreading.first_report_trial")
    return Workload("ft-sweep-rr", tuple(calls), checks, round_trials=2000, workers=2,
                    trace_round_s=6.0, expected_spans=COMMON_SPANS + expected)


def _reference_check(ref, workload, label):
    entry = ref.get(workload, {}).get(label)
    if entry is None:
        return None  # not recorded yet; the run reports the spec as failed
    return Check("reference", entry["p_hat"], ref_trials=entry["trials"])


BUILDERS = {
    "rc-fullspread": _rc_fullspread,
    "ml-trickle": _ml_trickle,
    "ft-sweep-rr": _ft_sweep_rr,
}


def build(name, reference=None):
    """The named workload; reference defaults to the recorded reference.json."""
    if name not in BUILDERS:
        raise ValueError(f"unknown workload {name!r}; known: {sorted(BUILDERS)}")
    return BUILDERS[name](reference if reference is not None else _load_reference())


def warm_up(workload, seed):
    """One trial per spec, at the workload's worker count: the graph build,
    worker start and first-call costs a user pays before trials flow."""
    seeds = next(workload.round_seeds(seed, stream="warm-up"))
    for call, master_seed in zip(workload.calls, seeds):
        call.run(master_seed, 1, workload.workers)
