"""Exact enumeration oracle for trickle spreading on small graphs.

Walks every trickle execution ("history") through estimation time t: at each
step every active node serves one uniformly chosen remaining target, so a
history's probability is the product of 1/(remaining targets) over all
choices made, kept exact as a Fraction.  Histories are grouped by the
adversary observation they induce (all tap times <= t per node), giving
exact conditional observation probabilities per candidate source.

This is the ground truth that timestamp rumor centrality and the
equal-likelihood property are validated against; it stays independent of the
message-passing implementation by construction (no shared code beyond the
graph interface).
"""

import math
from fractions import Fraction
from itertools import product

from ._checks import integer
from .spreading import TAP


# Histories enumerate_histories walks before it gives up.
_HISTORY_CAP = 10 ** 7


class EnumerationCapExceeded(RuntimeError):
    pass


def obs_key(reports):
    """Canonical hashable form of an observation: {(node, tap times)}."""
    return frozenset((v, tuple(sorted(times))) for v, times in reports.items() if times)


def observation_key_of(obs):
    """obs_key for an eavesdropper Observation (keep_all when theta > 1)."""
    if obs.variant != "eavesdropper":
        raise ValueError("brute force compares eavesdropper observations")
    if obs.all_reports is not None:
        return frozenset((v, tuple(ts)) for v, ts in obs.all_reports.items() if ts)
    return frozenset((v, (tau,)) for v, tau in obs.first_reports.items())


def enumerate_histories(g, source, theta, t):
    """All histories from ``source`` through step t: {obs_key: [Fraction]}.

    The list holds one entry per history (not collapsed), so callers can
    check the equal-likelihood property exactly.
    """
    theta, t = integer("theta", theta, 1), integer("t", t, 0)

    X = {source: 0}
    order = [source]
    reports = {}
    queues = {source: [u for u in g.neighbors(source) if u != source] + [TAP] * theta}
    out = {}
    seen = 0

    def emit(denom):
        nonlocal seen
        seen += 1
        if seen > _HISTORY_CAP:
            raise EnumerationCapExceeded(f"more than {_HISTORY_CAP} histories")
        out.setdefault(obs_key(reports), []).append(Fraction(1, denom))

    def run(step, denom):
        active = [v for v in order if queues.get(v)]
        if step > t or not active:
            emit(denom)
            return
        sizes = [len(queues[v]) for v in active]
        denom_here = denom * math.prod(sizes)
        for combo in product(*(range(n) for n in sizes)):
            removed = []
            infected_now = []
            reported_now = []
            for v, idx in zip(active, combo):
                tgt = queues[v].pop(idx)
                removed.append((v, idx, tgt))
                if tgt is TAP:
                    reports.setdefault(v, []).append(step)
                    reported_now.append(v)
                elif tgt not in X:
                    X[tgt] = step
                    order.append(tgt)
                    infected_now.append(tgt)
                # else: slot consumed on an already-infected neighbor
            for w in infected_now:
                queues[w] = [u for u in g.neighbors(w) if u not in X] + [TAP] * theta
            run(step + 1, denom_here)
            for w in infected_now:
                del queues[w]
                del X[w]
            if infected_now:
                del order[-len(infected_now):]
            for v, idx, tgt in reversed(removed):
                queues[v].insert(idx, tgt)
            for v in reported_now:
                reports[v].pop()
                if not reports[v]:
                    del reports[v]

    run(1, 1)
    return out


def observation_atlas(g, sources, theta, t):
    """{obs_key: {source: [Fraction per history]}} across candidate sources."""
    atlas = {}
    for s in sources:
        for key, probs in enumerate_histories(g, s, theta, t).items():
            atlas.setdefault(key, {})[s] = probs
    return atlas


def brute_force_posterior(g, params, obs, t, candidates=None):
    """Exact P(obs | source = v) for every candidate v.

    Trickle only.  Candidates default to every node of a finite graph; the
    infinite tree needs an explicit candidate list.  An observation
    impossible under every candidate yields an all-zero map.
    """
    if params.protocol != "trickle":
        raise ValueError("brute force enumerates trickle only")
    if candidates is None:
        candidates = list(g.nodes())
    key = observation_key_of(obs)
    posterior = {}
    for v in candidates:
        hist = enumerate_histories(g, v, params.theta, t)
        posterior[v] = sum(hist.get(key, []), Fraction(0))
    return posterior
