"""Source estimators: map (Observation, Graph) to an EstimateResult.

All uniform tie-breaks draw from the trial's rng stream after the simulation
draws, so a (graph, params, seed) triple pins the whole trial.  Estimators
read only the Observation, never the trace; the observers have already dropped
everything after the estimation time, which TRC also takes as an argument.
"""

import math
from collections import deque
from dataclasses import dataclass

from .graphs import check_lazy_tree, hop_distance, tree_path


class NoReportsError(ValueError):
    """The observation carries nothing to estimate from."""


class InfeasibleObservationError(ValueError):
    """No candidate source can explain the observation (corrupted input)."""


@dataclass(frozen=True)
class EstimateResult:
    chosen: int | None
    candidates: frozenset
    score: dict | None = None


def _pick_uniform(candidates, rng):
    if len(candidates) == 1 or rng is None:
        return min(candidates)
    ordered = sorted(candidates)
    return ordered[rng.randrange(len(ordered))]


def first_timestamp(obs, rng=None):
    """argmin tau_v over the eavesdropper's observed first reports."""
    if obs.variant != "eavesdropper":
        raise ValueError(f"first_timestamp needs an eavesdropper observation, got {obs.variant}")
    if not obs.first_reports:
        raise NoReportsError("no reports yet")
    best = min(obs.first_reports.values())
    ties = frozenset(v for v, tau in obs.first_reports.items() if tau == best)
    return EstimateResult(_pick_uniform(ties, rng), ties)


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
    return EstimateResult(chosen, frozenset([chosen]))


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
        if not float(tau).is_integer():
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
    return EstimateResult(_pick_uniform(ties, rng), ties)


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

def _steiner_parents(g, terminals):
    """Steiner tree of the terminals in the LazyRegularTree g as
    {node: parent}, rooted at the smallest terminal and listing every parent
    before its children.

    Terminals join in ascending order, and each adds only its new nodes.  A
    terminal whose parent id is already in the tree attaches to it directly,
    which is the path tree_path(..., stop=) would return; any other
    terminal's path toward the root stops at the first node already in the
    tree.  A tree's ids run from 0 without a gap, so testing the smallest
    and the largest terminal rejects every id it does not have.
    """
    terminals = sorted(terminals)
    for v in (terminals[0], terminals[-1]):
        if not g.has_node(v):
            raise ValueError(f"unknown node {v}")
    anchor = terminals[0]
    parent = {anchor: None}
    r, c = g.root_degree, g.d - 1
    for v in terminals[1:]:
        p = 0 if v <= r else (v - r - 1) // c + 1  # g.parent_of(v), as v > 0
        if p in parent:
            parent[v] = p
            continue
        path = tree_path(g, v, anchor, stop=parent)
        for i in range(len(path) - 2, -1, -1):
            parent[path[i]] = path[i + 1]
    return parent


def _center_walk(parent, weighted):
    """One reverse pass counts the weighted nodes below every node and keeps
    its heaviest child; then walk from the root to the heaviest child while
    it holds at least half of the total.  Every child side of the last node x
    holds less than half.  Returns (x, weight on x's parent side, half)."""
    count = dict.fromkeys(parent, 0)
    count.update(dict.fromkeys(weighted, 1))
    heavy = {}
    for v, p in reversed(parent.items()):
        if p is None:
            continue
        count[p] += count[v]
        h = heavy.get(p)
        if h is None or count[v] > count[h]:
            heavy[p] = v
    x = next(iter(parent))
    total = count[x]
    half = total / 2
    while x in heavy and count[heavy[x]] >= half:
        x = heavy[x]
    return x, total - count[x], half


def reporting_centrality(obs, g, rng=None):
    """The node whose every adjacent subtree holds strictly fewer than half
    of the reporting nodes (eavesdropper reporters or spies).  At most one
    such node exists, on the reporters' Steiner tree; zero is an explicit
    miss (chosen=None), counted against the estimator.  A single center needs
    no tie-break, so ``rng`` is not drawn.  ``g`` must be a LazyRegularTree.
    """
    check_lazy_tree(g)
    if obs.variant == "eavesdropper":
        reporters = set(obs.first_reports)
    elif obs.variant == "spy":
        reporters = set(obs.spy_times)
    else:
        raise ValueError(f"no reporting set for observation variant {obs.variant!r}")
    if not reporters:
        raise NoReportsError("no reporting nodes")
    center, up, half = _center_walk(_steiner_parents(g, reporters), reporters)
    if up >= half:
        return EstimateResult(None, frozenset())
    return EstimateResult(center, frozenset([center]))


def rumor_centers(g, infected_nodes):
    """All v whose every adjacent subtree holds at most N/2 infected nodes:
    the rumor centers of Shah and Zaman.

    The snapshot-adversary baseline; a nonempty tree has one or two centers.
    ``g`` must be a LazyRegularTree, infinite or cut, and the infected set a
    connected part of it, so that its Steiner tree adds no other node; else
    ValueError is raised.
    """
    check_lazy_tree(g)
    infected = set(infected_nodes)
    if not infected:
        raise ValueError("empty infected set")
    parent = _steiner_parents(g, infected)
    if len(parent) != len(infected):
        raise ValueError("infected set is not a tree")
    center, up, half = _center_walk(parent, infected)
    return {center, parent[center]} if up == half else {center}
