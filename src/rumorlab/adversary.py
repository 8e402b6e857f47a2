"""Project a ground-truth SpreadTrace onto what each adversary actually sees.

Three observers:

* eavesdropper: theta taps per server; sees each node's first report time
  tau_v (and, with keep_all, every tap time, which timestamp rumor centrality
  needs).  A deterministic pure filter of the trace.
* spy: every infected non-source node is independently corrupted with
  probability p; a spy leaks its exact infection time and the neighbor that
  relayed to it.  Spies are re-sampled per trial from the supplied stream.
  A trial that needs only the earliest spy draws that spy's position in
  infection order before the spread (first_spy_position) and observes the
  spread it stops there (observe_first_spy).
* snapshot: the infected set {v : X_v <= T}, nothing else.

Each observer drops everything after the estimation time, so an estimator
that reads only the Observation can never peek past it.
"""

import math
from math import log, log1p
from dataclasses import dataclass


@dataclass(frozen=True)
class Observation:
    variant: str
    first_reports: dict | None = None      # eavesdropper: node -> tau_v
    all_reports: dict | None = None        # eavesdropper keep_all: node -> tuple of tap times
    spy_times: dict | None = None          # spy: node -> exact X_s
    spy_infectors: dict | None = None      # spy: node -> relaying neighbor
    snapshot: frozenset | None = None      # snapshot: infected set at T


def observe_eavesdropper(trace, t=math.inf, keep_all=False):
    """Report times filtered to <= t; keep_all retains all theta tap times.

    A diffusion trace's first reports come straight from its report_times,
    in infection order as its reports dict lists them."""
    if t < 0:
        raise ValueError("estimation time must be >= 0")
    if trace.report_times is not None and not keep_all:
        bound = min(t, trace.stop_time)
        first = {v: r for v, r in zip(trace.X, trace.report_times) if r <= bound}
        return Observation("eavesdropper", first_reports=first)
    first = {}
    full = {}
    for v, times in trace.reports.items():
        seen = [x for x in times if x <= t]
        if not seen:
            continue
        first[v] = min(seen)
        if keep_all:
            full[v] = tuple(sorted(seen))
    return Observation(
        "eavesdropper", first_reports=first, all_reports=full if keep_all else None
    )


def observe_spy(trace, p, t=math.inf, rng=None):
    """Independent corruption of infected non-source nodes with probability p."""
    if not 0 <= p <= 1:
        raise ValueError(f"spy probability must be in [0, 1], got {p}")
    if rng is None and p not in (0, 1):
        raise ValueError("spy sampling needs an rng stream")
    times = {}
    infectors = {}
    source, parent = trace.source, trace.parent
    # Every v read here is infected, so a tree's view is asked directly.
    infector = getattr(parent, "parent_of", parent.__getitem__)
    for v, x in trace.X.items():
        if v == source or x > t:
            continue
        if p == 1 or (p > 0 and rng.random() < p):
            times[v] = x
            infectors[v] = infector(v)
    return Observation("spy", spy_times=times, spy_infectors=infectors)


def first_spy_position(p, rng):
    """The index j >= 1 in infection order (the source is index 0) of the
    first spy, or None for no spy: 1 + floor(E / lam) with E ~ Exp(1), drawn
    as the simulators draw it, and lam = -log(1 - p), so P(j > k) = (1 - p)**k
    exactly, in one draw whatever p.  p = 1 (j = 1) and p = 0 (None) draw
    nothing, as in observe_spy; so does a p so small that E / lam overflows.
    """
    if p == 1:
        return 1
    if p == 0:
        return None
    q = -log(1.0 - rng.random()) / -log1p(-p)
    return 1 + int(q) if q < math.inf else None


def observe_first_spy(trace, j, p, rng=None):
    """The spy observation of a spread stopped at its first spy X[j] (j from
    first_spy_position): that spy, and each node infected after it, which a
    synchronous (trickle) run infects in the same step, with one spy draw per
    such node as in observe_spy.  Without X[j] (j is None, or the spread
    ended first) there is no spy and nothing is drawn."""
    if j is None or j >= len(trace.X):
        return Observation("spy", spy_times={}, spy_infectors={})
    nodes = list(trace.X)
    parent = trace.parent
    infector = getattr(parent, "parent_of", parent.__getitem__)
    spies = [nodes[j]]
    spies += [v for v in nodes[j + 1:] if p == 1 or rng.random() < p]
    return Observation("spy", spy_times={v: trace.X[v] for v in spies},
                       spy_infectors={v: infector(v) for v in spies})


def observe_snapshot(trace, T):
    """Infected node set at time T, no timestamps."""
    if T < 0:
        raise ValueError("snapshot time must be >= 0")
    return Observation(
        "snapshot", snapshot=frozenset(v for v, x in trace.X.items() if x <= T)
    )
