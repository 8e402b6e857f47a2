"""In-memory spans around the calls into rumorlab's layers.

The tracer replaces layer functions under the names their callers resolve
them by (``rumorlab.harness`` for the trial pipeline, ``rumorlab.estimators``
and ``rumorlab.trc`` for path queries), so the real ``run_experiment`` path
runs unchanged and draws the same random numbers.  Nothing under ``src/`` is
edited.  Each span records its name, start, end, parent span and the trial it
belongs to; counters are read from return values at the same boundaries.
Spans stay in compact arrays until ``write`` puts them on disk.
"""

import json
from array import array
from collections import Counter
from time import perf_counter_ns

import rumorlab.estimators
import rumorlab.harness
import rumorlab.trc

# (module, attribute, span name).  The span name's prefix is its layer.
TARGETS = (
    (rumorlab.harness, "run_trial", "harness.run_trial"),
    (rumorlab.harness, "trial_stream", "harness.trial_stream"),
    (rumorlab.harness, "lazy_regular_tree", "graphs.lazy_regular_tree"),
    (rumorlab.harness, "build_random_regular", "graphs.build_random_regular"),
    (rumorlab.harness, "simulate_trickle", "spreading.simulate_trickle"),
    (rumorlab.harness, "simulate_diffusion", "spreading.simulate_diffusion"),
    (rumorlab.harness, "first_report_trial", "spreading.first_report_trial"),
    (rumorlab.harness, "observe_eavesdropper", "adversary.observe_eavesdropper"),
    (rumorlab.harness, "observe_spy", "adversary.observe_spy"),
    (rumorlab.harness, "observe_snapshot", "adversary.observe_snapshot"),
    (rumorlab.harness, "first_timestamp", "estimators.first_timestamp"),
    (rumorlab.harness, "spy_first_timestamp", "estimators.spy_first_timestamp"),
    (rumorlab.harness, "ball_centrality", "estimators.ball_centrality"),
    (rumorlab.harness, "reporting_centrality", "estimators.reporting_centrality"),
    (rumorlab.harness, "rumor_centers", "estimators.rumor_centers"),
    (rumorlab.harness, "timestamp_rumor_centrality", "trc.timestamp_rumor_centrality"),
    (rumorlab.estimators, "tree_path", "graphs.tree_path@estimators"),
    (rumorlab.estimators, "hop_distance", "graphs.hop_distance@estimators"),
    (rumorlab.trc, "tree_path", "graphs.tree_path@trc"),
    (rumorlab.trc, "hop_distance", "graphs.hop_distance@trc"),
)

PATH_SPANS = tuple(name for _, _, name in TARGETS if name.startswith(("graphs.tree_path",
                                                                      "graphs.hop_distance")))


class Tracer:
    """Span recorder; ``with tracer:`` installs the wrappers, exit restores."""

    def __init__(self):
        self.names = [name for _, _, name in TARGETS]
        self.name = array("i")
        self.parent = array("i")
        self.trial = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts = Counter()
        self.trc_calls = []  # (span index, candidates scored, feasible)
        self._stack = []
        self._trials = 0
        self._tree = None
        self._saved = []

    def __enter__(self):
        hooks = {
            "harness.run_trial": self._after_trial,
            "graphs.lazy_regular_tree": self._after_tree,
            "graphs.build_random_regular": self._after_build,
            "spreading.simulate_trickle": self._after_simulate,
            "spreading.simulate_diffusion": self._after_simulate,
            "spreading.first_report_trial": self._after_first_report,
            "adversary.observe_eavesdropper": self._after_observe,
            "adversary.observe_spy": self._after_observe,
            "adversary.observe_snapshot": self._after_observe,
            "estimators.first_timestamp": self._after_estimate,
            "estimators.spy_first_timestamp": self._after_estimate,
            "estimators.ball_centrality": self._after_estimate,
            "estimators.reporting_centrality": self._after_rc,
            "estimators.rumor_centers": self._after_rumor_centers,
            "trc.timestamp_rumor_centrality": self._after_trc,
        }
        for nid, (module, attr, name) in enumerate(TARGETS):
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, nid, hooks.get(name)))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False

    def _wrap(self, fn, nid, hook):
        stack = self._stack
        name, parent, trial, start, end = (self.name, self.parent, self.trial,
                                           self.start, self.end)
        is_trial = self.names[nid] == "harness.run_trial"

        def traced(*args, **kwargs):
            if is_trial:
                self._trials += 1
                self._tree = None
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            trial.append(self._trials - 1)
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                hook(out, idx)
            return out

        return traced

    # -- counters, read from return values ---------------------------------

    def _after_trial(self, out, idx):
        if self._tree is not None:
            self.counts["tree_nodes"] += self._tree.node_count

    def _after_tree(self, tree, idx):
        self._tree = tree

    def _after_build(self, g, idx):
        # First-report trials return no trace; count the nodes they expand
        # (one neighbors() call per infected node reached before the first
        # report) through an instance-level wrapper on the shared graph.
        neighbors = g.neighbors
        counts = self.counts

        def counted(v):
            counts["expanded"] += 1
            return neighbors(v)

        g.neighbors = counted

    def _after_simulate(self, trace, idx):
        self.counts["infected"] += len(trace.X)
        self.counts["reports"] += sum(len(times) for times in trace.reports.values())
        self.counts["skipped"] += trace.skipped

    def _after_first_report(self, res, idx):
        self.counts["reports"] += len(res.reporters)

    def _after_observe(self, obs, idx):
        seen = obs.first_reports or obs.spy_times or obs.snapshot or ()
        self.counts["observed"] += len(seen)

    def _after_estimate(self, result, idx):
        self.counts["tie_calls"] += 1
        self.counts["tie_sum"] += len(result.candidates)

    def _after_rc(self, result, idx):
        self._after_estimate(result, idx)
        self.counts["rc_calls"] += 1
        self.counts["rc_found"] += result.chosen is not None

    def _after_rumor_centers(self, centers, idx):
        self.counts["tie_calls"] += 1
        self.counts["tie_sum"] += len(centers)

    def _after_trc(self, result, idx):
        scores = result.score.values()
        self.trc_calls.append((idx, len(scores), sum(1 for s in scores if s > 0)))

    # -- aggregation --------------------------------------------------------

    def totals(self):
        """Per span name: calls, total ns and self ns; plus each span's ns."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
        calls = Counter()
        total = Counter()
        own = Counter()
        for i in range(n):
            key = self.names[self.name[i]]
            calls[key] += 1
            total[key] += dur[i]
            own[key] += dur[i] - covered[i]
        return calls, total, own, dur

    def write(self, path, header):
        """One JSON header line, then one span per line:
        name_id parent_index trial start_ns end_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(header, span_names=self.names)) + "\n")
            for i in range(len(self.name)):
                fh.write(f"{self.name[i]} {self.parent[i]} {self.trial[i]} "
                         f"{self.start[i]} {self.end[i]}\n")
