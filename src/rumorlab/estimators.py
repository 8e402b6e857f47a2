"""Source estimators: map (Observation, Graph) to an EstimateResult.

All uniform tie-breaks draw from the trial's rng stream after the simulation
draws, so a (graph, params, seed) triple pins the whole trial.  Estimators
read only the Observation (never the trace), and never past observed_until.
"""

import math
from collections import deque
from dataclasses import dataclass

from .graphs import hop_distance, tree_path


class NoReportsError(ValueError):
    """The observation carries nothing to estimate from."""


class InfeasibleObservationError(ValueError):
    """No candidate source can explain the observation (corrupted input)."""


@dataclass(frozen=True)
class EstimateResult:
    chosen: int | None
    candidates: frozenset
    method: str
    score: dict | None = None

    @property
    def missed(self):
        return self.chosen is None


def _pick_uniform(candidates, rng):
    ordered = sorted(candidates)
    if len(ordered) == 1 or rng is None:
        return ordered[0]
    return ordered[rng.randrange(len(ordered))]


def first_timestamp(obs, rng=None):
    """argmin tau_v over the eavesdropper's observed first reports."""
    if obs.variant != "eavesdropper":
        raise ValueError(f"first_timestamp needs an eavesdropper observation, got {obs.variant}")
    if not obs.first_reports:
        raise NoReportsError("no reports yet")
    best = min(obs.first_reports.values())
    ties = frozenset(v for v, tau in obs.first_reports.items() if tau == best)
    return EstimateResult(_pick_uniform(ties, rng), ties, "first_timestamp")


def spy_first_timestamp(obs, rng=None):
    """Earliest spy names its infector (the spy itself cannot be the source)."""
    if obs.variant != "spy":
        raise ValueError(f"spy_first_timestamp needs a spy observation, got {obs.variant}")
    if not obs.spy_times:
        raise NoReportsError("no spy observations yet")
    best = min(obs.spy_times.values())
    ties = frozenset(s for s, x in obs.spy_times.items() if x == best)
    spy = _pick_uniform(ties, rng)
    chosen = obs.spy_infectors[spy]
    return EstimateResult(chosen, frozenset([chosen]), "spy_first_timestamp")


def ball_centrality(obs, g, rng=None):
    """Intersect the hop balls of radius tau_w - 1 around every reporter.

    Trickle-only (integer timestamps, tree graph).  For a valid trace the
    source is always in the intersection; an empty intersection therefore
    signals corrupted input and raises.
    """
    if obs.variant != "eavesdropper":
        raise ValueError("ball_centrality needs an eavesdropper observation")
    if not obs.first_reports:
        raise NoReportsError("no reports yet")
    items = sorted(obs.first_reports.items(), key=lambda kv: kv[1])
    for v, tau in items:
        if tau != int(tau):
            raise ValueError(f"ball_centrality needs integer timestamps, got tau_{v}={tau}")
    # Enumerate the smallest ball, then filter by the remaining constraints.
    center, tau0 = items[0]
    candidates = _ball(g, center, int(tau0) - 1)
    for w, tau in items[1:]:
        radius = int(tau) - 1
        candidates = {u for u in candidates if hop_distance(g, u, w) <= radius}
        if not candidates:
            raise InfeasibleObservationError("empty ball intersection")
    ties = frozenset(candidates)
    return EstimateResult(_pick_uniform(ties, rng), ties, "ball_centrality")


def _ball(g, center, radius):
    out = {center}
    frontier = deque([(center, 0)])
    while frontier:
        v, dist = frontier.popleft()
        if dist == radius:
            continue
        for u in g.neighbors(v):
            if u not in out:
                out.add(u)
                frontier.append((u, dist + 1))
    return out


# ---------------------------------------------------------------------------
# Centrality estimators on trees
# ---------------------------------------------------------------------------

def _steiner_tree(g, terminals):
    """Union of pairwise tree paths between terminals: adjacency dict.

    Each terminal's path to the smallest one stops at the first node already
    in the union, a subtree that holds the rest of that path.
    """
    terminals = sorted(terminals)
    anchor = terminals[0]
    adj = {anchor: set()}
    for v in terminals[1:]:
        path = tree_path(g, v, anchor)
        for a, b in zip(path, path[1:]):
            known = b in adj
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
            if known:
                break
    return adj


def _subtree_counts(adj, weight):
    """Rooted DFS + reroot: for every node, the weight in each neighbor-side
    subtree.  Returns (total, {v: {neighbor: weight_beyond_that_neighbor}}).
    """
    root = next(iter(adj))
    order = []
    parent = {root: None}
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        for u in adj[v]:
            if u != parent[v]:
                parent[u] = v
                stack.append(u)
    down = {v: weight.get(v, 0) for v in adj}
    for v in reversed(order):
        if parent[v] is not None:
            down[parent[v]] += down[v]
    total = down[root]
    sides = {}
    for v in adj:
        per = {}
        for u in adj[v]:
            per[u] = down[u] if parent.get(u) == v else total - down[v]
        sides[v] = per
    return total, sides


def reporting_centrality(obs, g, reported_set_extractor=None, rng=None):
    """Nodes whose every adjacent subtree holds strictly fewer than half of
    the reporting nodes.  At most one such node exists; zero is an explicit
    miss (chosen=None), counted against the estimator.
    """
    if reported_set_extractor is None:
        reported_set_extractor = default_reporters
    reporters = set(reported_set_extractor(obs))
    if not reporters:
        raise NoReportsError("no reporting nodes")
    adj = _steiner_tree(g, reporters)
    weight = {v: 1 for v in reporters}
    total, sides = _subtree_counts(adj, weight)
    half = total / 2
    centers = frozenset(
        v for v, per in sides.items() if all(c < half for c in per.values())
    )
    if not centers:
        return EstimateResult(None, frozenset(), "reporting_centrality")
    return EstimateResult(_pick_uniform(centers, rng), centers, "reporting_centrality")


def default_reporters(obs):
    if obs.variant == "eavesdropper":
        return obs.first_reports.keys()
    if obs.variant == "spy":
        return obs.spy_times.keys()
    raise ValueError(f"no reporting set for observation variant {obs.variant!r}")


def rumor_centers(g, infected_nodes):
    """All v whose every adjacent subtree holds at most N/2 infected nodes.

    The snapshot-adversary baseline; a nonempty tree has one or two centers.
    """
    infected = set(infected_nodes)
    if not infected:
        raise ValueError("empty infected set")
    if len(infected) == 1:
        return set(infected)
    adj = {v: set() for v in infected}
    for v in infected:
        for u in g.neighbors(v):
            if u in infected:
                adj[v].add(u)
    seen = set()
    stack = [next(iter(infected))]
    edges = 0
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        edges += len(adj[v])
        stack.extend(adj[v] - seen)
    if seen != infected or edges // 2 != len(infected) - 1:
        raise ValueError("infected set is not a tree")
    total, sides = _subtree_counts(adj, {v: 1 for v in infected})
    half = total / 2
    return {v for v, per in sides.items() if all(c <= half for c in per.values())}
