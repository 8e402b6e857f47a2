"""Timestamp rumor centrality: exact feasible-ordering counts for trickle.

For each candidate source the estimator counts the trickle executions through
estimation time t that reproduce every observed tap time.  On regular trees
all feasible executions of a fixed observation are equally likely, so the
count is proportional to the likelihood and its argmax is the ML estimate.

Counting is two-phase message passing on the tree rooted at the candidate:
downward, each node's feasible infection times are those reachable from the
parent's slot windows minus conflicts with its own observed taps; upward,
each node combines its children's counts over one slot window.

A node infected at time x with c children (on the rooted tree) and theta taps
owns slots x+1 .. x+c+theta, serves one per step, and stops at t.  A feasible
configuration is an injective assignment of the realized slot times
{x+1 .. min(x+c+theta, t)} to distinct targets in which every observed tap of
the node sits at its reported time, unobserved taps land past t, and each
slot given to a child y recursively admits count(child, y) configurations.
Subtrees containing no observed node collapse to a count depending only on
the infection time, which keeps the pass linear in the observed skeleton
rather than in the radius-t ball.

One dynamic program counts every slot window.  It walks the slot times in
order; its state records which skeleton children already hold a slot and how
many children of each fresh class do, where a class groups the children
outside the skeleton whose counts agree at every slot time (one class on the
infinite tree).  Giving a slot to a class with m members, u of them used,
multiplies by m - u.  A node with s skeleton children thus costs
O((d + theta) * 2^s * (s + 1)) per infection time on the infinite tree,
polynomial in d for a bounded skeleton.

A non-root node's table depends only on the directed edge (parent, node): its
skeleton children are its neighbours other than the parent whose side holds a
reporter, and neither they nor its taps depend on which candidate is the
root.  One estimator call keeps every table, keyed by (node, parent), and the
unobserved-subtree counts in one store shared by all of its candidates; the
store is dropped when the call returns.  Every candidate is a reporter, so
every candidate's skeleton is the same tree, the reporters' Steiner tree: the
store builds it once per call, one tree_path per reporter past the first, and
re-roots it for each candidate with one BFS.

Candidates are the observed nodes whose first report is at most d+theta (the
source's tap must land within its own d+theta slots), prefiltered by the
ball-intersection feasibility test, which never discards a positive-count
candidate.  Degrees above 6 are refused unless explicitly allowed.
"""

from ._checks import integer
from .estimators import EstimateResult, InfeasibleObservationError, _pick_uniform
from .graphs import INFINITY, hop_distance, tree_path


def check_setting(d, theta, t=None, root_degree=None, allow_high_degree=False):
    """Raise ValueError unless timestamp rumor centrality counts exactly with
    degree d, theta taps and estimation time t: integer theta >= 1, a root of
    degree d (root_degree None means unmodified), d <= 6 unless
    allow_high_degree, and integer t >= d + theta (not checked for t None).
    """
    theta = integer("theta", theta, 1)
    if root_degree is not None and root_degree != d:
        # A modified-degree root could land inside an "unobserved subtree",
        # where the closed-form count assumes full regularity.
        raise ValueError("ordering counts need an unmodified regular tree")
    if not allow_high_degree and d > 6:
        raise ValueError(
            f"degree {d} exceeds the default guardrail of 6; "
            "pass allow_high_degree=True to override"
        )
    if t is not None and (not float(t).is_integer() or t < d + theta):
        raise ValueError(f"need integer t >= d + theta = {d + theta}, got {t}")


def timestamp_rumor_centrality(obs, g, t, rng=None, theta=1,
                               allow_high_degree=False):
    """ML source estimate for a trickle eavesdropper observation.

    Needs keep_all report times and t >= d + theta.  Returns the argmax set
    of ordering counts with a uniform pick, and the per-candidate counts as
    the score map.
    """
    if obs.variant != "eavesdropper":
        raise ValueError("timestamp rumor centrality needs an eavesdropper observation")
    if obs.all_reports is None:
        raise ValueError("timestamp rumor centrality needs keep_all report times")
    d = _infer_degree(g, obs)
    check_setting(d, theta, t, g.root_degree if g.is_lazy else None, allow_high_degree)
    theta, t = int(theta), int(t)
    reports = {}
    for v, times in obs.all_reports.items():
        clean = tuple(sorted(times))
        if not all(float(x).is_integer() for x in clean):
            raise ValueError(f"non-integer trickle report times at node {v}")
        clean = tuple(int(x) for x in clean)
        if clean and clean[-1] > t:
            raise ValueError(f"report past estimation time at node {v}")
        if len(clean) > theta:
            raise ValueError(f"node {v} shows {len(clean)} taps but theta={theta}")
        if clean:
            reports[v] = clean
    if not reports:
        raise InfeasibleObservationError("no reports to estimate from")

    candidates = [v for v, tau in obs.first_reports.items() if tau <= d + theta]
    store = _Store(g, reports, t, theta, reports)
    scores = {}
    for v in candidates:
        scores[v] = store.count(v) if _ball_feasible(g, v, obs.first_reports) else 0
    best = max(scores.values(), default=0)
    if best <= 0:
        raise InfeasibleObservationError(
            "no candidate source admits a feasible ordering"
        )
    ties = frozenset(v for v, s in scores.items() if s == best)
    return EstimateResult(_pick_uniform(ties, rng), ties, score=scores)


def _infer_degree(g, obs):
    if g.degree_hint is not None:
        return g.degree_hint
    return max(g.degree(v) for v in obs.first_reports)


def _ball_feasible(g, v, first_reports):
    # Sound prefilter: any feasible source sits within tau_w - 1 hops of
    # every reporter w (X_w >= hop, first tap >= X_w + 1).
    return all(hop_distance(g, v, w) <= tau - 1 for w, tau in first_reports.items())


def ordering_count(g, root, reports, t, theta=1):
    """Exact number of feasible trickle executions through time t with source
    ``root`` matching ``reports`` (node -> sorted tuple of tap times <= t).
    """
    check_setting(g.degree_hint, theta, root_degree=g.root_degree if g.is_lazy else None,
                  allow_high_degree=True)
    return _Store(g, reports, t, theta, [*reports, root]).count(root)


class _Store:
    """The tables of one counting call, shared by all of its candidate roots:
    skeleton tables keyed by (node, parent), and unobserved-subtree counts
    keyed by infection time (by (node, parent, time) on finite trees).

    A finite tree groups its fresh children by their counts: near a cut, the
    side of a node that faces its parent is not a function of its remaining
    depth, so the counts are made per directed edge."""

    def __init__(self, g, reports, t, theta, terminals):
        self.g = g
        self.reports = reports
        self.t = t
        self.theta = theta
        self.tables = {}
        self._fresh_counts = {}
        # The terminals' Steiner tree as adjacency lists: each terminal's path
        # toward the first one stops where it meets the tree built so far.
        anchor, *rest = terminals
        self.skeleton = {anchor: []}
        for w in rest:
            path = tree_path(g, w, anchor, stop=self.skeleton)
            for a, b in zip(path, path[1:]):
                self.skeleton.setdefault(a, []).append(b)
                self.skeleton.setdefault(b, []).append(a)

    def count(self, root):
        """Ordering count with source ``root``, a node of the skeleton."""
        parent = {root: None}
        order = [root]
        for v in order:  # BFS: every parent before its children
            for c in self.skeleton[v]:
                if c not in parent:
                    parent[c] = v
                    order.append(c)
        for w in reversed(order):
            if (w, parent[w]) not in self.tables:
                kids = [c for c in self.skeleton[w] if c != parent[w]]
                self.tables[w, parent[w]] = self._table(w, parent[w], kids)
        return self.tables[root, None].get(0, 0)

    def _table(self, w, par, skel_kids):
        """count[x] over feasible infection times x for skeleton node w."""
        t, theta = self.t, self.theta
        R = self.reports.get(w, ())
        child_count = self.g.degree(w) - (par is not None)
        k = child_count + theta
        hidden = theta - len(R)

        if par is None:
            # The source's own taps must fit its slot window from x = 0.
            xs = [0] if not R or (R[0] >= 1 and R[-1] <= k) else []
        elif R:
            # Taps live in the slot window: R[-1] <= x + k and R[0] >= x + 1.
            xs = range(max(1, R[-1] - k), R[0])
        else:
            # Unobserved: all theta taps must hide past t, so t - x <= k - theta.
            xs = range(max(1, t - child_count), t + 1)

        kid_tables = [self.tables[c, w] for c in skel_kids]
        if not all(kid_tables):
            return {}  # some skeleton child admits no infection time
        R_set = set(R)
        table = {}
        for x in xs:
            e = min(x + k, t)
            if hidden > k - (e - x):
                continue  # not enough unrealized slots to hide the unseen taps
            child_times = [y for y in range(x + 1, e + 1) if y not in R_set]
            if len(child_times) < len(skel_kids):
                continue
            classes = [(1, [kt.get(y, 0) for y in child_times]) for kt in kid_tables]
            classes += self._fresh_classes(w, par, skel_kids,
                                           child_count - len(skel_kids), child_times)
            count = _assign(classes, len(child_times), len(skel_kids))
            if count:
                table[x] = count
        return table

    def fresh(self, node, par, x):
        """Execution count of the unobserved subtree below node (parent par)
        infected at time x: all theta taps must land past t, so the realized
        times x+1..t map injectively onto its children.  On the infinite tree
        the count depends on x alone, and node and par are None."""
        t = self.t
        if x >= t:
            return 1 if x == t else 0
        key = x if node is None else (node, par, x)
        got = self._fresh_counts.get(key)
        if got is None:
            kids = self.g.d - 1 if node is None else self.g.degree(node) - 1
            ys = range(x + 1, t + 1)
            got = 0
            if t - x <= kids:  # else some tap fires by t
                got = _assign(self._fresh_classes(node, par, (), kids, ys), len(ys), 0)
            self._fresh_counts[key] = got
        return got

    def _fresh_classes(self, w, par, skel_kids, n_fresh, ys):
        """Children of w outside the skeleton, grouped into classes whose
        subtree counts agree at every time in ys, as (members, counts)."""
        if self.g.node_count == INFINITY:
            # The n_fresh fresh subtrees of the infinite tree are identical.
            return [(n_fresh, [self.fresh(None, None, y) for y in ys])] if n_fresh else []
        groups = {}
        for c in self.g.neighbors(w):
            if c != par and c not in skel_kids:
                counts = tuple(self.fresh(c, w, y) for y in ys)
                groups[counts] = groups.get(counts, 0) + 1
        return [(m, counts) for counts, m in groups.items()]


def _assign(classes, n_slots, required):
    """Sum over injective assignments of every one of n_slots slots to a
    distinct child, each of the first ``required`` classes given a slot.

    A class is (m, counts): m children whose subtree count is counts[i] when
    given slot i.  The first ``required`` classes are the single skeleton
    children.  A state packs, per class, the number of its children holding a
    slot into one bit field of an integer.
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
