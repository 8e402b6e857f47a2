"""Independent numerical oracles used by the test suite.

These deliberately avoid the package's own evaluation routes: special
functions are recomputed by adaptive quadrature (scipy.integrate.quad),
including a genuine principal-value integral for the exponential integral,
diffusion is re-simulated with one timed event per relay and report,
first-report trials are re-run by loops of their own that stop at the first
report (the package folds that stop rule into its simulators), spy
first-timestamp trials are re-run as whole spreads with a spy draw per node
(the package stops them at a first spy drawn before the spread), diffusion
first-report detection from the tree's root is summed exactly over the
infection count, spy first-timestamp detection from there over the first
spy's position (and, at small K, over every infection order), every trickle history on a small graph is enumerated with
its exact rational probability (the ground truth of the trickle estimators),
trickle first-report detection on small explicit graphs is summed exactly
over every history, snapshot rumor-center detection from the tree's root
over every infection order, and tree
centers are found by testing every side of every node of a Steiner tree
built from paths that step to the neighbor one hop nearer their end, on
explicit trees too (the package walks one rooted count on its arithmetic
tree).  The
balanced tree is built node by node as an explicit graph (the package
computes its cut tree's neighbors from node ids).  The stdlib-wrapper
versions of the diffusion and trickle simulators and the path-by-path
Steiner build are the references the package's inline draws
and parent-id attachments must match bit for bit; so is the configuration
model kept as an edge set, shuffled by random.Random.shuffle and validated
by the public ExplicitGraph constructor (the package pairs stubs straight
into sorted neighbor lists it does not re-check).  The eavesdropper's
first reports are re-read from a trace's reports dict (the package reads a
diffusion trace's report list).  The trickle loop that shuffles each pool
at infection is kept as a reference in distribution.  Timestamp rumor
centrality's ordering count is re-counted one infection time at a time, each
window by a forward dynamic program (the package sweeps all windows that end
together at once).  The two-color urn behind the reporting-centrality
constant is simulated here too; only the tests run it.  scipy is imported
inside the quadrature functions, so the rest loads on an interpreter
without it.
"""

import math
import random
from fractions import Fraction
from heapq import heappop, heappush
from itertools import product
from typing import NamedTuple

from rumorlab._checks import integer
from rumorlab.adversary import observe_spy
from rumorlab.estimators import spy_first_timestamp
from rumorlab.graphs import _RR_RESTARTS, ExplicitGraph, hop_distance, tree_path
from rumorlab.spreading import TAP, FirstReport, SpreadTrace, trial_stream


def ei_quadrature(x):
    """Ei(x) = -PV integral_{-x}^{inf} e^-t / t dt, by adaptive quadrature."""
    from scipy.integrate import quad

    if x == 0:
        raise ValueError("singular")
    if x < 0:
        val, _ = quad(lambda t: math.exp(-t) / t, -x, math.inf, limit=400,
                      epsabs=0.0, epsrel=1e-12)
        return -val
    # Principal value across the pole at 0, plus the smooth tail.
    pv, _ = quad(lambda t: -math.exp(-t), -x, x, weight="cauchy", wvar=0.0,
                 epsabs=1e-13, epsrel=1e-13, limit=400)
    tail, _ = quad(lambda t: math.exp(-t) / t, x, math.inf, limit=400)
    return pv - tail


def _beta_half_piece(a, b):
    # integral_0^{1/2} t^(a-1) (1-t)^(b-1) dt with the endpoint singularity
    # absorbed by u = t^a.
    from scipy.integrate import quad

    upper = 0.5 ** a
    val, _ = quad(lambda u: (1.0 - u ** (1.0 / a)) ** (b - 1.0), 0.0, upper,
                  epsabs=1e-14, epsrel=1e-13, limit=400)
    return val / a


def reg_inc_beta_half_quadrature(a, b):
    """P(Beta(a,b) < 1/2) with numerator and denominator both by quadrature."""
    num = _beta_half_piece(a, b)
    den = _beta_half_piece(a, b) + _beta_half_piece(b, a)
    return num / den


def trickle_ft_integral(d, theta):
    """(theta/d) * integral_0^d rho^(2^x) dx, rho = (d-1)/(d-1+theta)."""
    from scipy.integrate import quad

    rho = (d - 1) / (d - 1 + theta)
    val, _ = quad(lambda x: rho ** (2.0 ** x), 0.0, d, limit=400)
    return theta / d * val


def build_regular_tree(d, depth, root_degree=None):
    """Balanced d-regular tree: root 0, every node at hop < depth has degree d
    (the root root_degree, default d).

    Node ids are assigned in BFS order, so hop distance from the root is
    nondecreasing in id.  Node count is 1 + r * sum((d-1)**k, k < depth),
    with r the root degree.
    """
    if d < 2:
        raise ValueError(f"degree must be >= 2, got {d}")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    adjacency = [[]]
    frontier = [0]
    for level in range(depth):
        next_frontier = []
        for v in frontier:
            want = (root_degree or d) if level == 0 else d - 1
            for _ in range(want):
                child = len(adjacency)
                adjacency.append([v])
                adjacency[v].append(child)
                next_frontier.append(child)
        frontier = next_frontier
    return ExplicitGraph(adjacency)


def heap_simulate_diffusion(g, params, rng, source=0):
    """Reference diffusion: every relay and report is its own timed event.

    On infection at X_v, node v schedules one report event at X_v + Exp(theta)
    and one infection event per currently-uninfected neighbor at
    X_v + Exp(1), all in one heap.  Infection events landing on
    already-infected nodes are discarded.  Slow but direct; the package's
    simulate_diffusion must agree with it in distribution.
    """
    theta = params.theta
    max_time = params.max_time if params.max_time is not None else math.inf
    max_inf = params.max_infections

    X = {}
    parent = {}
    reports = {}
    order = []
    heap = []
    seq = 0
    heappush(heap, (0.0, seq, "infect", source, None))
    stop_time = 0.0
    while heap:
        t, _, kind, node, par = heappop(heap)
        if t > max_time:
            stop_time = max_time
            break
        if kind == "infect":
            if node in X:
                continue
            X[node] = t
            parent[node] = par
            order.append(node)
            stop_time = t
            if max_inf is not None and len(X) >= max_inf:
                break
            seq += 1
            heappush(heap, (t + rng.expovariate(theta), seq, "report", node, None))
            for u in g.neighbors(node):
                if u not in X:
                    seq += 1
                    heappush(heap, (t + rng.expovariate(1.0), seq, "infect", u, node))
        else:
            reports.setdefault(node, []).append(t)
            stop_time = t
    if params.max_time is not None and not (max_inf is not None and len(X) >= max_inf):
        # Horizon is wall-clock unless the infection budget fired first.
        stop_time = params.max_time
    return SpreadTrace("diffusion", source, X, reports, parent, stop_time)


def loop_first_report_trickle(g, params, rng, source=0):
    """Reference trickle first-report trial: its own step loop, returning at
    the end of the first step with a tap, before that step's new nodes build
    their pools.  Each serving node picks its slot with rng.randrange over
    the slots left, swaps it with the last and pops it; a last slot is served
    without a draw.  It ignores max_infections.  The package's
    first_report_trial must give the same reporters and time and leave the
    stream in the same state."""
    theta = params.theta
    max_time = params.max_time if params.max_time is not None else math.inf

    X = {source: 0}
    pools = {source: [*g.neighbors(source), *[TAP] * theta]}  # infection order
    step = 0
    while pools and step + 1 <= max_time:
        step += 1
        reporters = []
        newly = []
        for v in list(pools):
            pool = pools[v]
            if len(pool) > 1:
                i = rng.randrange(len(pool))
                pool[i], pool[-1] = pool[-1], pool[i]
            target = pool.pop()
            if not pool:
                del pools[v]
            if target is TAP:
                reporters.append(v)
            elif target not in X:
                X[target] = step
                newly.append(target)
        if reporters:
            return FirstReport(frozenset(reporters), step)
        for w in newly:
            pools[w] = [u for u in g.neighbors(w) if u not in X] + [TAP] * theta
    return FirstReport(frozenset(), None)


def shuffle_first_report_trickle(g, params, rng, source=0):
    """The trickle first-report trial as it was drawn before slots were
    picked one at a time: each node shuffles its whole pool when infected
    and serves it in order.  Both draw a uniform serving order per node, so
    the package must agree with it in distribution."""
    theta = params.theta
    max_time = params.max_time if params.max_time is not None else math.inf

    def slots(v):
        pool = [u for u in g.neighbors(v) if u not in X]
        pool.extend([TAP] * theta)
        rng.shuffle(pool)
        return pool

    X = {source: 0}
    queues = {source: (slots(source), 0)}
    active = [source]
    step = 0
    while active and step + 1 <= max_time:
        step += 1
        reporters = []
        newly = []
        still_active = []
        for v in active:
            pool, pos = queues[v]
            target = pool[pos]
            pos += 1
            if pos < len(pool):
                queues[v] = (pool, pos)
                still_active.append(v)
            if target is TAP:
                reporters.append(v)
            elif target not in X:
                X[target] = step
                newly.append(target)
        if reporters:
            return FirstReport(frozenset(reporters), step)
        for w in newly:
            queues[w] = (slots(w), 0)
        active = still_active + newly
    return FirstReport(frozenset(), None)


def heap_first_report_diffusion(g, params, rng, source=0):
    """Reference diffusion first-report trial: one heap event per relay and
    report, returning at the first report event.  It ignores max_infections.
    The package's first_report_trial must agree with it in distribution."""
    theta = params.theta
    max_time = params.max_time if params.max_time is not None else math.inf
    X = {}
    heap = [(0.0, 0, "infect", source)]
    seq = 0
    while heap:
        t, _, kind, node = heappop(heap)
        if t > max_time:
            break
        if kind == "report":
            return FirstReport(frozenset([node]), t)
        if node in X:
            continue
        X[node] = t
        seq += 1
        heappush(heap, (t + rng.expovariate(theta), seq, "report", node))
        for u in g.neighbors(node):
            if u not in X:
                seq += 1
                heappush(heap, (t + rng.expovariate(1.0), seq, "infect", u))
    return FirstReport(frozenset(), None)


def tree_root_diffusion_ft(d, theta, root_degree=None, max_infections=None):
    """Exact P(hit) of the diffusion first-timestamp experiment at t =
    infinity from the root of the infinite d-regular tree whose root has
    root_degree r (default d).

    By memorylessness the trial is a Markov chain.  With n nodes infected,
    b_n = r + (n-1)(d-2) relays are pending at rate 1 each and n reports at
    rate theta each, so the source's report comes next with probability
    theta/(b_n + n theta) and an infection with b_n/(b_n + n theta):
    P(hit) = sum over n of [prod over k < n of b_k/(b_k + k theta)] *
    theta/(b_n + n theta).  The run ends at the max_infections-th infection
    K, so the sum then stops at n = K - 1.  At r = d - 2 this is
    analytics.diffusion_ft.
    """
    r = d if root_degree is None else root_degree
    last = math.inf if max_infections is None else max_infections - 1
    total, reach, n = 0.0, 1.0, 1  # reach: P(n infected, no report yet)
    while n <= last and reach > 1e-18:  # the rest of the sum is below reach
        b = r + (n - 1) * (d - 2)
        total += reach * theta / (b + n * theta)
        reach *= b / (b + n * theta)
        n += 1
    return total


class SpyFT(NamedTuple):
    p_hit: Fraction
    mean_stop: Fraction
    var_stop: Fraction


def spy_ft_exact(d, K, p, root_degree=None):
    """Exact spy first-timestamp experiment at t = infinity from the root of
    the infinite d-regular tree whose root has root_degree r (default d),
    with horizon K infections: P(hit) and the mean and variance of the stop
    time, in Fractions (give p as a Fraction or an exact float).

    Spies are independent of the spread, so the first spy is the j-th
    non-source infection with probability p (1-p)**(j-1), and it names its
    infector, the source iff it is a root child.  After n infections, m of
    them root children, b_n = r + (n-1)(d-2) relays are pending, each as
    likely to fire next, r - m of them to uninfected root children; so the
    chance that infection n is a root child follows from the distribution of
    m, carried one infection at a time.  The trial stops at the first spy's
    infection, T_{j+1}, or at T_K when no spy is among the first K - 1; T_n
    sums independent Exp(b_i) gaps for i < n, whatever the order.
    """
    r = d if root_degree is None else root_degree
    p = Fraction(p)
    m_dist = [Fraction(1)] + [Fraction(0)] * r  # P(m root children infected)
    mean = var = Fraction(0)  # of T_n, the time of the n-th infection
    p_hit = mean_stop = second = Fraction(0)
    none = Fraction(1)  # P(no spy among the infections so far)
    for n in range(1, K):
        b = r + (n - 1) * (d - 2)
        child = sum(q * (r - m) for m, q in enumerate(m_dist)) / b
        m_dist = [q * (b - r + m) / b + (m_dist[m - 1] * (r - m + 1) / b if m else 0)
                  for m, q in enumerate(m_dist)]
        mean, var = mean + Fraction(1, b), var + Fraction(1, b * b)
        # Infection n, at T_{n+1}, is the first spy.
        w = none * p
        p_hit += w * child
        mean_stop += w * mean
        second += w * (var + mean * mean)
        none -= w
    mean_stop += none * mean
    second += none * (var + mean * mean)
    return SpyFT(p_hit, mean_stop, second - mean_stop * mean_stop)


def enumerate_spy_ft(d, K, p, root_degree=None):
    """P(hit) of the spy first-timestamp experiment from the root of the
    d-regular tree (root degree root_degree, default d) with horizon K,
    summed over every order of the first K infections on the explicit tree:
    each order has probability prod 1/(pending relays), and the first spy is
    the j-th non-source infection with probability p (1-p)**(j-1)."""
    g = build_regular_tree(d, K, root_degree)
    root_children = set(g.neighbors(0))

    def walk(pending, infected, j):
        if j == K:
            return Fraction(0)
        total = Fraction(0)
        for i, v in enumerate(pending):
            hit = p * (1 - p) ** (j - 1) if v in root_children else 0
            rest = pending[:i] + pending[i + 1:] + [u for u in g.neighbors(v)
                                                    if u not in infected]
            total += (hit + walk(rest, infected | {v}, j + 1)) / len(pending)
        return total

    return walk(list(root_children), {0}, 1)


def snapshot_rumor_centers_exact(d, K):
    """P(hit) of the snapshot rumor-center experiment from the root of the
    d-regular tree with horizon K, as a Fraction.  The spread stops at its
    K-th infection and the snapshot holds all K infected nodes; a uniform
    pick among their rumor centers (rumor_centers below) names the root with
    probability 1/|centers| when it is one.  Summed over every order of the
    first K infections on the explicit tree, each with probability
    prod 1/(pending relays), as enumerate_spy_ft sums them."""
    g = build_regular_tree(d, K - 1)
    credit = {}  # infected set -> the root's share of its centers

    def walk(pending, infected):
        if len(infected) == K:
            if infected not in credit:
                centers = rumor_centers(g, infected)
                credit[infected] = Fraction(int(0 in centers), len(centers))
            return credit[infected]
        total = Fraction(0)
        for i, v in enumerate(pending):
            rest = pending[:i] + pending[i + 1:] + [u for u in g.neighbors(v)
                                                    if u not in infected]
            total += walk(rest, infected | {v})
        return total / len(pending)

    return walk(list(g.neighbors(0)), frozenset([0]))


# Exact enumeration oracle for trickle spreading on small graphs.
#
# Walks every trickle execution ("history") through estimation time t: at each
# step every active node serves one uniformly chosen remaining target, so a
# history's probability is the product of 1/(remaining targets) over all
# choices made, kept exact as a Fraction.  Histories are grouped by the
# adversary observation they induce (all tap times <= t per node), giving
# exact conditional observation probabilities per candidate source.
#
# This is the ground truth that timestamp rumor centrality and the
# equal-likelihood property are validated against; it stays independent of the
# message-passing implementation by construction (no shared code beyond the
# graph interface).

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


def trickle_ft_exact(g, theta, sources):
    """Exact P(hit) of the trickle first-timestamp experiment at t = infinity
    on the explicit graph g, the source drawn uniformly from ``sources``.

    Walks every trickle history step by step, as enumerate_histories does:
    each infected node serves one uniformly chosen slot left of its pool (the neighbors uninfected when it was infected,
    then theta taps).  A history stops at the first step in which a tap
    fires, with the tie-break crediting 1/|reporters| when the source is
    among them.  Within a step the nodes tap independently, node v with
    probability q_v = theta / (slots left), so those ends are summed in
    closed form: the source taps and k others do with probability q_s
    P(N = k), credited 1/(1 + k).  Only the histories in which no tap fires
    are walked on.  Every node keeps its theta taps until the history stops,
    so every infected node serves at every step.
    """
    sources = list(sources)
    return sum(_trickle_ft_from(g, theta, s) for s in sources) / len(sources)


def _trickle_ft_from(g, theta, source):
    infected = [source]
    left = {source: list(g.neighbors(source))}  # honest slots left

    def walk():
        sizes = [len(left[v]) + theta for v in infected]  # the source first
        others = [1]  # P(N = k): k of the other nodes tap this step
        for size in sizes[1:]:
            q = Fraction(theta, size)
            others = [a * (1 - q) + b * q for a, b in zip(others + [0], [0] + others)]
        total = Fraction(theta, sizes[0]) * sum(p / (1 + k) for k, p in enumerate(others))
        # Every node serves an honest slot: 1/size for each choice.
        weight = Fraction(1, math.prod(sizes))
        for targets in product(*(left[v] for v in infected)):
            fresh = []
            for v, u in zip(infected, targets):
                left[v].remove(u)
                if u not in left and u not in fresh:
                    fresh.append(u)
            for w in fresh:
                left[w] = []
            infected.extend(fresh)
            for w in fresh:
                left[w] = [u for u in g.neighbors(w) if u not in left]
            total += weight * walk()
            del infected[len(infected) - len(fresh):]
            for w in fresh:
                del left[w]
            for v, u in zip(infected, targets):
                left[v].append(u)
        return total

    return walk()


def stepwise_path(g, u, v, stop=()):
    """u..v path found by moving, each step, to the neighbor one hop nearer
    v; it ends early at its first node in ``stop``."""
    path = [u]
    dist = hop_distance(g, u, v)
    while path[-1] != v and path[-1] not in stop:
        dist -= 1
        path.append(next(w for w in g.neighbors(path[-1]) if hop_distance(g, w, v) == dist))
    return path


def steiner_tree(g, terminals):
    """Union of pairwise tree paths between terminals: adjacency dict.

    Each terminal's path to the smallest one stops at the first node already
    in the union, a subtree that holds the rest of that path.  The paths are
    stepwise_path's, so g may be any tree, explicit or lazy.
    """
    terminals = sorted(terminals)
    anchor = terminals[0]
    adj = {anchor: set()}
    for v in terminals[1:]:
        path = stepwise_path(g, v, anchor, stop=adj)
        for a, b in zip(path, path[1:]):
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
    return adj


def subtree_counts(adj, weight):
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


def reporting_centers(adj, weight):
    """Nodes whose every side holds strictly fewer than half of the weight."""
    total, sides = subtree_counts(adj, weight)
    half = total / 2
    return {v for v, per in sides.items() if all(c < half for c in per.values())}


def rumor_centers(g, infected):
    """Nodes of the infected tree whose every side holds at most half of it."""
    adj = {v: {u for u in g.neighbors(v) if u in infected} for v in infected}
    total, sides = subtree_counts(adj, dict.fromkeys(adj, 1))
    half = total / 2
    return {v for v, per in sides.items() if all(c <= half for c in per.values())}


def stdlib_simulate_diffusion(g, params, rng, source=0, *, first_report=False, reports=True):
    """Reference for the package's simulate_diffusion: the same loop drawing
    through rng.expovariate and rng.randrange, with its pending relays as a
    list of (relay, target) pairs; with reports=False it draws no report
    times.  Traces and the stream left behind must be bit for bit the
    package's."""
    if first_report and not reports:
        raise ValueError("the first-report stop rule needs report draws")
    theta = params.theta
    max_time = params.max_time if params.max_time is not None else math.inf
    max_inf = params.max_infections if params.max_infections is not None else math.inf
    expovariate, randrange, neighbors = rng.expovariate, rng.randrange, g.neighbors

    X = {}
    parent = {}
    order = []
    report_times = []
    pending = []
    first = math.inf
    t, relay, v = 0.0, None, source
    while True:
        if v not in X:
            X[v] = t
            parent[v] = relay
            order.append(v)
            if len(order) >= max_inf:
                stop_time = t
                break
            if reports:
                report = t + expovariate(theta)
                report_times.append(report)
                if first_report and report < first:
                    first = report
            pending += [(v, u) for u in neighbors(v) if u not in X]
        if not pending:
            if first_report and first <= max_time:
                stop_time = first
                break
            stop_time = max_time if params.max_time is not None else max(
                [X[order[-1]], *report_times])
            break
        t += expovariate(len(pending))
        if first <= t and first <= max_time:
            stop_time = first
            break
        if t > max_time:
            stop_time = max_time
            break
        i = randrange(len(pending))
        pending[i], pending[-1] = pending[-1], pending[i]
        relay, v = pending.pop()
    kept = {w: [r] for w, r in zip(order, report_times) if r <= stop_time}
    return SpreadTrace("diffusion", source, X, kept, parent, stop_time)


def full_spread_spy_ft_trial(spec, g, rng):
    """Reference for the harness's spy first-timestamp trial at t = infinity,
    which stops at its first spy: the whole spread to the spec's own horizon
    (by the stdlib-wrapper simulators, with no report draws), a spy draw for
    every infected non-source node (observe_spy), then spy_first_timestamp.
    A file graph's source is drawn first.  Returns (hit, stop_time)."""
    source = rng.randrange(g.node_count) if spec.graph.kind == "file" else 0
    if spec.params.protocol == "trickle":
        trace = stdlib_simulate_trickle(g, spec.params, rng, source)
    else:
        trace = stdlib_simulate_diffusion(g, spec.params, rng, source, reports=False)
    obs = observe_spy(trace, spec.adversary.p, trace.stop_time, rng)
    if not obs.spy_times:
        return False, trace.stop_time
    return spy_first_timestamp(obs, rng).chosen == source, trace.stop_time


def full_spread_spy_ft_run(spec, g):
    """(hits, stop times) of the spec's trials by full_spread_spy_ft_trial,
    on the harness's streams: block b of 64 trials on trial_stream(seed, b)."""
    hits, stops = 0, []
    for i in range(spec.trials):
        if i % 64 == 0:
            rng = trial_stream(spec.master_seed, i // 64)
        hit, stop = full_spread_spy_ft_trial(spec, g, rng)
        hits += hit
        stops.append(stop)
    return hits, stops


def loop_first_reports(trace, t):
    """Reference for the eavesdropper's first reports: each node's earliest
    report time up to t, read from trace.reports in its order."""
    first = {}
    for v, times in trace.reports.items():
        seen = [x for x in times if x <= t]
        if seen:
            first[v] = min(seen)
    return first


def stdlib_simulate_trickle(g, params, rng, source=0, *, first_report=False):
    """Reference for the package's simulate_trickle: each step every node
    with slots left, in infection order, picks one with rng.randrange (none
    for its last slot), swaps it with the last and pops it.  Traces and the
    stream left behind must be bit for bit the package's."""
    theta = params.theta
    max_time = params.max_time if params.max_time is not None else math.inf
    max_inf = params.max_infections if params.max_infections is not None else math.inf

    X = {source: 0}
    parent = {source: None}
    reports = {}
    skipped = 0
    pools = {source: [*g.neighbors(source), *[TAP] * theta]}  # infection order
    step = 0
    while pools and len(X) < max_inf and step + 1 <= max_time:
        step += 1
        newly = []
        for v in list(pools):
            pool = pools[v]
            if len(pool) > 1:
                i = rng.randrange(len(pool))
                pool[i], pool[-1] = pool[-1], pool[i]
            target = pool.pop()
            if not pool:
                del pools[v]
            if target is TAP:
                reports.setdefault(v, []).append(step)
            elif target in X:
                skipped += 1
            else:
                X[target] = step
                parent[target] = v
                newly.append(target)
        if first_report and reports:
            break
        for w in newly:
            pools[w] = [u for u in g.neighbors(w) if u not in X] + [TAP] * theta
    if (first_report and reports) or len(X) >= max_inf or params.max_time is None:
        stop_time = step
    else:
        stop_time = params.max_time
    return SpreadTrace("trickle", source, X, reports, parent, stop_time, skipped=skipped)


def path_steiner_parents(g, terminals):
    """Reference for the package's Steiner build: every terminal after the
    smallest reaches the tree through tree_path(..., stop=), none by its
    parent id.  The package's dict must equal it, order included."""
    terminals = sorted(terminals)
    anchor = terminals[0]
    parent = {anchor: None}
    for v in terminals[1:]:
        path = tree_path(g, v, anchor, stop=parent)
        for i in range(len(path) - 2, -1, -1):
            parent[path[i]] = path[i + 1]
    return parent


def reference_random_regular(n, d, seed, restarts=_RR_RESTARTS):
    """Reference for build_random_regular: the configuration model kept as a
    set of edge tuples, shuffled by random.Random.shuffle and handed to the
    validating ExplicitGraph constructor.  The package pairs stubs straight
    into sorted neighbor lists; with the same number of restarts its graph
    must equal this one, list for list, and it must fail where this one
    fails."""
    if n <= 0 or d < 0 or (n * d) % 2 or d >= n:
        raise ValueError(f"no simple {d}-regular graph on {n} nodes")
    rng = random.Random(seed)

    def suitable(edges, leftover):
        nodes = sorted(leftover)
        return not leftover or any((s1, s2) not in edges
                                   for i, s1 in enumerate(nodes) for s2 in nodes[i + 1:])

    def try_creation():
        edges = set()
        stubs = list(range(n)) * d
        while stubs:
            leftover = {}
            rng.shuffle(stubs)
            it = iter(stubs)
            for s1, s2 in zip(it, it):
                if s1 > s2:
                    s1, s2 = s2, s1
                if s1 != s2 and (s1, s2) not in edges:
                    edges.add((s1, s2))
                else:
                    leftover[s1] = leftover.get(s1, 0) + 1
                    leftover[s2] = leftover.get(s2, 0) + 1
            if not suitable(edges, leftover):
                return None
            stubs = [v for v, c in leftover.items() for _ in range(c)]
        return edges

    for _ in range(restarts):
        edges = try_creation()
        if edges is not None:
            adjacency = [[] for _ in range(n)]
            for u, v in edges:
                adjacency[u].append(v)
                adjacency[v].append(u)
            return ExplicitGraph(adjacency)
    raise RuntimeError(f"configuration model failed for n={n}, d={d}")


def reference_ordering_count(g, root, reports, t, theta=1):
    """Reference for trc's ordering count: one forward dynamic program
    (reference_assign) per skeleton node and infection time, and every
    unobserved subtree counted per infection time.  The package counts all
    windows that end at one time in one backward sweep.

    A node infected at x (the source at 0, any other node at 1..t) with k
    slots realizes x+1 .. min(x+k, t); every observed tap must sit in that
    window, the unobserved taps on its unrealized slots, and every other
    realized slot goes to a distinct child.
    """
    skeleton = steiner_tree(g, [*reports, root])
    infinite = g.node_count == math.inf
    memo = {}

    def fresh(node, par, x):
        if x >= t:
            return 1 if x == t else 0
        key = x if infinite else (node, par, x)
        if key not in memo:
            kids = g.d - 1 if infinite else g.degree(node) - 1
            ys = range(x + 1, t + 1)
            memo[key] = 0
            if t - x <= kids:  # else some tap fires by t
                memo[key] = reference_assign(fresh_classes(node, par, (), kids, ys), len(ys), 0)
        return memo[key]

    def fresh_classes(w, par, skel_kids, n_fresh, ys):
        if infinite:
            return [(n_fresh, [fresh(None, None, y) for y in ys])] if n_fresh else []
        groups = {}
        for c in g.neighbors(w):
            if c != par and c not in skel_kids:
                counts = tuple(fresh(c, w, y) for y in ys)
                groups[counts] = groups.get(counts, 0) + 1
        return [(m, counts) for counts, m in groups.items()]

    def table(w, par):
        kids = [c for c in skeleton[w] if c != par]
        kid_tables = [table(c, w) for c in kids]
        taps = reports.get(w, ())
        child_count = g.degree(w) - (par is not None)
        k = child_count + theta
        out = {}
        for x in [0] if par is None else range(1, t + 1):
            e = min(x + k, t)
            if not all(x < r <= e for r in taps) or theta - len(taps) > k - (e - x):
                continue
            child_times = [y for y in range(x + 1, e + 1) if y not in taps]
            classes = [(1, [kt.get(y, 0) for y in child_times]) for kt in kid_tables]
            classes += fresh_classes(w, par, kids, child_count - len(kids), child_times)
            count = reference_assign(classes, len(child_times), len(kids))
            if count:
                out[x] = count
        return out

    return table(root, None).get(0, 0)


def reference_assign(classes, n_slots, required):
    """Sum over injective assignments of every one of n_slots slots to a
    distinct child, each of the first ``required`` classes given a slot.

    A class is (m, counts): m children whose subtree count is counts[i] when
    given slot i.  The first ``required`` classes are the single skeleton
    children.  A state packs, per class, the number of its children holding a
    slot into one bit field of an integer; the slots are walked in order.
    """
    due = [0] * n_slots  # skeleton children past their last usable slot
    fields = []
    offset = 0
    for j, (m, counts) in enumerate(classes):
        if j < required:
            last = max((i for i, c in enumerate(counts) if c), default=-1)
            if last < 0:
                return 0
            due[last] |= 1 << offset
        width = m.bit_length()
        fields.append((m, 1 << offset, offset, (1 << width) - 1, counts))
        offset += width
    dp = {0: 1}
    for i in range(n_slots):
        ndp = {}
        for m, one, off, mask, counts in fields:
            wgt = counts[i]
            if wgt:
                for state, val in dp.items():
                    used = state >> off & mask
                    if used < m:
                        nxt = state + one
                        ndp[nxt] = ndp.get(nxt, 0) + val * wgt * (m - used)
        if due[i]:
            ndp = {s: v for s, v in ndp.items() if s & due[i] == due[i]}
        if not ndp:
            return 0
        dp = ndp
    return sum(dp.values())


def urn_simulate(d, theta, steps, rng):
    """Two-color urn for a single source-adjacent subtree: the process
    behind the reporting-centrality constant.

    Solid balls are active spreading edges, striped balls pending adversary
    taps.  Drawing solid adds d-2 solid and theta striped; drawing striped
    removes theta striped.  Start state is one solid ball.  Returns the
    trajectory [(solid, striped)] of length steps+1 including the start;
    striped/solid converges a.s. to theta/(d+theta-2).
    """
    d, theta = integer("d", d, 3), integer("theta", theta, 1)
    solid, striped = 1, 0
    add_solid = d - 2
    traj = [(solid, striped)]
    append = traj.append
    rand = rng.random
    for _ in range(steps):
        if rand() * (solid + striped) < solid:
            solid += add_solid
            striped += theta
        else:
            # Striped counts move in multiples of theta, so a draw implies >= theta.
            if striped < theta:
                raise RuntimeError(
                    f"urn invariant broken: striped={striped} < theta={theta}"
                )
            striped -= theta
        append((solid, striped))
    return traj
