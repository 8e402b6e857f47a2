"""Forward simulation of trickle and diffusion broadcasts.

Trickle is a synchronous discrete-time gossip: on infection a node takes
its uninfected connections (uninfected honest neighbors plus its theta
adversary taps) as its slots and, from the step after it was infected,
transmits to one per step, picked uniformly from the slots left, so it
serves them in a uniform random order.  Diffusion is the
continuous-time SI process: every edge relays after an independent Exp(1)
delay, and each node's first adversary report fires after Exp(theta) (the
minimum of theta unit-rate taps; one draw is distributionally identical and
cheaper), so theta is the report rate relative to the relay rate.  A spread
relaying at rate r is the one at theta/r, run to horizon r*t, with every time
divided by r.  simulate_diffusion needs no event heap: it draws the report
with the infection and, the delays being memoryless, fires the pending relays
one at a time, in one loop for every graph and source.  Only the new
relays of an infection depend on where the spread runs: from the root of a
LazyRegularTree, the source of every generated graph, each relay runs from
a parent to a child nobody has infected yet, so they are the node's child
id range and no fired relay is tested for infection; elsewhere they are
neighbors(v) less the infected.  Trickle gives a new node its slots the same
way: its child id range and taps from the tree's root, its uninfected
neighbors and taps elsewhere.  A node infected in the step that ends the
run, at the horizon or at the max_infections-th infection, never serves a
slot, so it builds no pool.

Each simulator draws only what a trial reads: a trickle node picks a slot
only when it serves one (a node never served draws nothing, and a last slot
needs no pick), and a diffusion run for an observer that reads no reports
(spy, snapshot) draws no report times.  The draws are those of the stdlib's
random.Random wrappers, call for call, made straight from the generator: an
Exp(rate) delay is -log(1 - random()) / rate as expovariate computes it, and
a uniform pick below n is the getrandbits(n.bit_length()) rejection loop
behind randrange.  A trace and the stream left behind are bit for bit those
of the wrapper calls, without their per-draw interpreter overhead.

Both simulators take a first_report stop rule: the run ends at the earliest
adversary report, since nothing later can change who reported first.
first_report_trial, the t = infinity first-timestamp experiment, runs the
simulator's own loop under that rule, with the same draws, so it honours
max_time and max_infections like a full run; it keeps only what it returns,
the reporters and their time, and no parents, relay senders or trace.

The ground truth lives in a SpreadTrace: per-node infection times X, per-node
adversary report times, infection parents, and the realized horizon.  A
diffusion run stores its report times as one list in infection order and the
per-node dict is built only if read; from the tree's root the parents are
not stored at all, but read from the tree.  Adversary models are applied
afterwards (see rumorlab.adversary) so a single trace can feed several
observers.

Reproducibility: a simulation draws only from the rng stream it is given.
The harness derives one stream per block of 64 trials from (master_seed,
block index) with trial_stream() and runs the block's trials on it in
order, so results do not depend on scheduling or worker count.
"""

import math
import random
from collections.abc import Mapping
from dataclasses import dataclass
from math import log
from typing import NamedTuple

from ._checks import integer

_MASK64 = (1 << 64) - 1

# Adversary-tap slot marker among a trickle node's slots.
TAP = "tap"


def trial_stream(master_seed, index):
    """Independent stream: an index (the harness's block index) mixed into
    the master seed."""
    return random.Random(((master_seed & _MASK64) << 64) | (index & _MASK64))


@dataclass
class SpreadParams:
    """Knobs for one spreading run.

    theta is an integer tap count for trickle (>= 1) and a finite report
    rate for diffusion (> 0), relative to its relay rate of 1.  The horizon is
    a finite max_time, max_infections, or neither (run to exhaustion on
    finite graphs).
    """

    protocol: str
    theta: float = 1
    max_time: float | None = None
    max_infections: int | None = None

    def __post_init__(self):
        if self.protocol not in ("trickle", "diffusion"):
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.protocol == "trickle":
            self.theta = integer("theta", self.theta, 1)
        elif not 0 < self.theta < math.inf:
            raise ValueError(f"diffusion needs 0 < theta < inf, got {self.theta}")
        if self.max_time is not None and not 0 <= self.max_time < math.inf:
            raise ValueError(f"max_time must be finite and >= 0, got {self.max_time}")
        if self.max_infections is not None:
            self.max_infections = integer("max_infections", self.max_infections, 1)


@dataclass(eq=False)
class SpreadTrace:
    """The ground truth of one run.  A diffusion run passes no reports dict
    but its report_times, one per infected node in infection order; reports
    is built from them on first read.  Traces compare by value."""

    protocol: str
    source: int
    X: dict  # node -> infection time, in infection order
    _reports: dict | None  # node -> report times up to stop_time
    parent: dict  # node -> relaying node; a TreeParents view from a tree's root
    stop_time: float
    skipped: int = 0  # trickle slots spent on already-infected targets
    report_times: list | None = None

    @property
    def reports(self):
        if self._reports is None:
            stop = self.stop_time
            self._reports = {w: [r] for w, r in zip(self.X, self.report_times)
                             if r <= stop}
        return self._reports

    def __eq__(self, other):
        if not isinstance(other, SpreadTrace):
            return NotImplemented
        fields = ("protocol", "source", "X", "reports", "parent", "stop_time", "skipped")
        return all(getattr(self, f) == getattr(other, f) for f in fields)


class TreeParents(Mapping):
    """node -> parent over the infected nodes X of a LazyRegularTree, each
    parent computed by the tree's parent_of when it is read.  A reader that
    knows v is in X may call parent_of(v) itself and skip the membership
    test."""

    def __init__(self, X, parent_of):
        self._X = X
        self.parent_of = parent_of

    def __getitem__(self, v):
        if v not in self._X:
            raise KeyError(v)
        return self.parent_of(v)

    def __iter__(self):
        return iter(self._X)

    def __len__(self):
        return len(self._X)


class FirstReport(NamedTuple):
    """All nodes achieving the minimal adversary report time (trickle can
    tie; diffusion ties have probability zero), or an explicit no-report."""

    reporters: frozenset
    time: float | None


def simulate_trickle(g, params, rng, source=0, *, first_report=False):
    """Discrete-time trickle from ``source`` (node 0 on generated graphs).

    Each infected node holds a pool of its infection-time uninfected
    connections and, each step, serves one slot picked uniformly from those
    left.  On non-tree graphs a slot aimed at a meanwhile-infected neighbor
    is consumed without effect (tallied in ``skipped``).  Taps append to the
    node's report list; the first entry is the eavesdropper timestamp tau_v.
    With ``first_report`` the run stops at the end of the first step in which
    a tap fires, before the nodes infected in that step build their pools.
    Steps are synchronous, so the step of the max_infections-th infection
    runs to its end and the run stops there: nodes that step infects after
    the K-th are kept, so X can hold more than K nodes, every one past the
    K-th infected at stop_time.

    From the root of a LazyRegularTree a new node's uninfected connections
    are its child id range (none for a cut tree's leaf), the same slots in
    the same order as neighbors(w) less its infected parent.
    """
    if params.protocol != "trickle":
        raise ValueError(f"simulate_trickle got protocol {params.protocol!r}")
    X, reports, parent, skipped, stop_time = _trickle(g, params, rng, source,
                                                      first_report, True)
    return SpreadTrace("trickle", source, X, reports, parent, stop_time,
                       skipped=skipped)


def _trickle(g, params, rng, source, first_report, parents):
    """simulate_trickle's loop: (X, reports, parent, skipped, stop_time),
    with parent None unless ``parents``."""
    taps = [TAP] * params.theta
    max_time = params.max_time if params.max_time is not None else math.inf
    max_inf = params.max_infections
    neighbors, getrandbits = g.neighbors, rng.getrandbits
    tree = g.is_lazy and source == 0
    if tree:
        # Node w >= 1 has children r+(w-1)c+1 .. r+wc, none from first_leaf on.
        r, c, first_leaf = g.root_degree, g.d - 1, g.first_leaf

    X = {source: 0}
    parent = {source: None} if parents else None
    reports = {}
    skipped = 0
    # (node, slots left) in infection order; a node leaves with its last slot.
    active = [(source, [*neighbors(source), *taps])]
    step = 0
    stop = max_inf is not None and len(X) >= max_inf
    while active and not stop and step + 1 <= max_time:
        step += 1
        newly = []
        still_active = []
        for v, pool in active:
            b = len(pool)
            if b > 1:
                # randrange(b), then swap the pick with the last slot and pop it.
                k = b.bit_length()
                i = getrandbits(k)
                while i >= b:
                    i = getrandbits(k)
                target = pool[i]
                pool[i] = pool[-1]
                pool.pop()
                still_active.append((v, pool))
            else:
                target = pool[0]
            if target is TAP:
                reports.setdefault(v, []).append(step)
            elif target not in X:
                X[target] = step
                if parents:
                    parent[target] = v
                newly.append(target)
                if max_inf is not None and len(X) >= max_inf:
                    stop = True
            else:
                skipped += 1
        if (first_report and reports) or stop or step + 1 > max_time:
            break  # no node serves again, so none needs a pool
        for w in newly:
            if not tree:
                pool = [u for u in neighbors(w) if u not in X]
                pool += taps
            elif w < first_leaf:
                lo = r + (w - 1) * c
                pool = [*range(lo + 1, lo + c + 1), *taps]
            else:
                pool = taps.copy()
            still_active.append((w, pool))
        active = still_active

    if (first_report and reports) or (max_inf is not None and len(X) >= max_inf):
        stop_time = step
    elif params.max_time is not None:
        stop_time = params.max_time
    else:
        stop_time = step
    return X, reports, parent, skipped, stop_time


def simulate_diffusion(g, params, rng, source=0, *, first_report=False, reports=True):
    """Continuous-time diffusion from ``source``, one relay at a time.

    On infection at X_v, node v draws its report time X_v + Exp(theta) and
    adds one pending relay per neighbor still uninfected at that moment.
    With b relays pending, the next one fires after Exp(b) and, the
    delays being memoryless, is a uniform pick among them; a relay landing on
    a node infected meanwhile has no effect.  This is exact in distribution
    on every graph, cycles included.  Reports after the stop time are
    dropped.  The run stops at the max_infections-th infection (that node
    draws no report), at max_time, or when no relay is left; in the last
    case without max_time the stop time is the latest infection or report.
    With ``first_report`` it also stops at the earliest report drawn so far
    once no relay can fire before it, so only that report is kept.  With
    ``reports=False`` no node draws a report, for observers that read none:
    the trace has no reports, a run that runs out of relays stops at its last
    infection, and the first-report rule cannot be used.

    From the root of a LazyRegularTree (node 0, the source of every
    generated graph) a relay always runs from a parent to a child nobody has
    infected, so there v's new relays are its child id range (empty from the
    cut tree's first_leaf on: the same targets in the same order as
    neighbors(v) less its infected parent), no sender is kept, no target is
    tested, and the trace's parent is a TreeParents view that asks the tree.
    """
    if params.protocol != "diffusion":
        raise ValueError(f"simulate_diffusion got protocol {params.protocol!r}")
    if first_report and not reports:
        raise ValueError("the first-report stop rule needs report draws")
    X, report_times, parent, stop_time = _diffusion(g, params, rng, source, first_report,
                                                    reports, True)
    return SpreadTrace("diffusion", source, X, None, parent, stop_time,
                       report_times=report_times)


def _diffusion(g, params, rng, source, first_report, reports, parents):
    """simulate_diffusion's loop: (X, report_times, parent, stop_time), with
    parent None and no relay's sender kept unless ``parents``."""
    theta = params.theta
    max_time = params.max_time if params.max_time is not None else math.inf
    max_inf = params.max_infections if params.max_infections is not None else math.inf
    uniform, getrandbits = rng.random, rng.getrandbits

    X = {}
    report_times = []  # in infection order, as X
    first = math.inf  # earliest report drawn so far, kept for first_report
    stop_time = None  # stays None when no relay is left
    tree = g.is_lazy and source == 0
    if tree:
        # Children: 1..r of the root, r+(v-1)c+1 .. r+vc of v >= 1, none from first_leaf on.
        r, c, first_leaf = g.root_degree, g.d - 1, g.first_leaf
        parent = TreeParents(X, g.parent_of) if parents else None
    else:
        neighbors = g.neighbors
        parent = {} if parents else None
        relays = []  # the senders of the pending relays, pair by pair with targets
    targets = []  # the targets of the pending relays, not yet fired
    n = b = 0  # len(X) and len(targets)
    t, v, relay = 0.0, source, None
    while stop_time is None:  # once per infection
        X[v] = t
        if tree:
            if not v:
                targets += range(1, r + 1) if first_leaf else ()
                b = len(targets)
            elif v < first_leaf:
                lo = r + (v - 1) * c
                targets += range(lo + 1, lo + c + 1)
                b += c
        else:
            for u in neighbors(v):
                if u not in X:
                    targets.append(u)
            if parents:
                parent[v] = relay
                relays += [v] * (len(targets) - b)
            b = len(targets)
        n += 1
        if n >= max_inf:
            stop_time = t
            break
        if reports:
            # Exp(theta) drawn as expovariate draws it (see the module doc).
            report = t + -log(1.0 - uniform()) / theta
            report_times.append(report)
            if first_report and report < first:
                first = report
        while b:  # fire relays until one infects
            t += -log(1.0 - uniform()) / b
            if first <= t and first <= max_time:
                stop_time = first
                break
            if t > max_time:
                stop_time = max_time
                break
            # randrange(b), then swap the pick with the last relay and pop it.
            k = b.bit_length()
            i = getrandbits(k)
            while i >= b:
                i = getrandbits(k)
            v = targets[i]
            targets[i] = targets[-1]
            targets.pop()
            b -= 1
            if tree:
                break  # a child nobody has infected
            if parents:
                relay = relays[i]
                relays[i] = relays[-1]
                relays.pop()
            if v not in X:
                break
        else:
            break  # no relay left
    if stop_time is None:  # used up
        if first_report and first <= max_time:
            stop_time = first
        elif params.max_time is not None:
            stop_time = max_time
        else:
            # The latest infection or report, not the clock, which may have
            # moved on through relays that had no effect.
            stop_time = max(max(X.values()), max(report_times, default=0.0))
    return X, report_times, parent, stop_time


def first_report_trial(g, params, rng, source=0):
    """The set of nodes tying for the earliest adversary report.

    Runs the protocol's simulator with its first-report stop rule: nothing
    after the earliest report can change the minimum, so this is exact for
    the t = infinity first-timestamp experiment while touching a tiny prefix
    of the spread.  The run also stops at max_time and at the
    max_infections-th infection; with no report by then the result is an
    explicit FirstReport(frozenset(), None).

    It runs the simulator's own loop, draw for draw, but keeps no parents
    and builds no SpreadTrace: the reporters are the trickle nodes with a
    report, or the diffusion nodes whose report time is at most the stop
    time (the rule SpreadTrace.reports applies, ties included).
    """
    if params.protocol == "trickle":
        _, reports, _, _, stop_time = _trickle(g, params, rng, source, True, False)
        reporters = frozenset(reports)
    else:
        X, report_times, _, stop_time = _diffusion(g, params, rng, source, True, True, False)
        reporters = frozenset([w for w, r in zip(X, report_times) if r <= stop_time])
    return FirstReport(reporters, stop_time if reporters else None)


def trace_to_csv(trace):
    """One record per infected node: node, X, first_report_time, parent.

    Diffusion times carry 9 significant digits; trickle times print as
    integers.  Nodes appear in infection order.
    """
    diffusion = trace.protocol == "diffusion"

    def fmt(t):
        if t is None:
            return ""
        return f"{t:.9g}" if diffusion else str(int(t))

    lines = ["node,X,first_report_time,parent"]
    for v in trace.X:
        first = min(trace.reports[v]) if v in trace.reports else None
        par = trace.parent[v]
        lines.append(
            f"{v},{fmt(trace.X[v])},{fmt(first)},{'' if par is None else par}"
        )
    return "\n".join(lines) + "\n"
