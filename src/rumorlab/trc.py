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

Each node's counts form a row over the infection times 0..t.  The windows
that end at the same time e are suffixes of the longest one, so one dynamic
program per end counts them all: it walks the slot times from e down and
reads x's count off once slot x+1 is done.  On the infinite tree at
t = d + theta every window ends at t; a window ending before t belongs to
one x alone.  The state records which skeleton children already hold a slot
and how many children of each fresh class do, where a class groups the
children outside the skeleton whose rows agree at every slot time (one class
on the infinite tree).  Giving a slot to a class with m members, u of them
used, multiplies by m - u, so with one class and no skeleton child the count
is a falling factorial times the slots' counts.  A node with s skeleton
children costs O((d + theta) * 2^s * (s + 1)) per window end on the infinite
tree, polynomial in d for a bounded skeleton.  An unobserved subtree's row
is that of a node whose children are all unobserved, counted the same way.

A non-root node's table depends only on the directed edge (parent, node): its
skeleton children are its neighbours other than the parent whose side holds a
reporter, and neither they nor its taps depend on which candidate is the
root.  One estimator call keeps every table, keyed by (node, parent), and the
unobserved-subtree rows in one store shared by all of its candidates; the
store is dropped when the call returns.  Every candidate is a reporter, so
every candidate's skeleton is the same tree, the reporters' Steiner tree: the
store builds it once per call, one tree_path per reporter past the first, and
re-roots it for each candidate with one BFS.

Candidates are the observed nodes whose first report is at most d+theta (the
source's tap must land within its own d+theta slots), prefiltered by the
ball-intersection feasibility test, which never discards a positive-count
candidate.  Degrees above 6 are refused unless explicitly allowed.  The tree
is a LazyRegularTree, infinite or cut; any other graph is refused.
"""

from ._checks import integer
from .estimators import EstimateResult, InfeasibleObservationError, _pick_uniform
from .graphs import INFINITY, check_lazy_tree, hop_distance, tree_path


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

    Needs a LazyRegularTree g, keep_all report times and t >= d + theta.
    Returns the argmax set of ordering counts with a uniform pick, and the
    per-candidate counts as the score map.
    """
    check_lazy_tree(g)
    if obs.variant != "eavesdropper":
        raise ValueError("timestamp rumor centrality needs an eavesdropper observation")
    if obs.all_reports is None:
        raise ValueError("timestamp rumor centrality needs keep_all report times")
    d = g.d
    check_setting(d, theta, t, g.root_degree, allow_high_degree)
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


def _ball_feasible(g, v, first_reports):
    # Sound prefilter: any feasible source sits within tau_w - 1 hops of
    # every reporter w (X_w >= hop, first tap >= X_w + 1).
    return all(hop_distance(g, v, w) <= tau - 1 for w, tau in first_reports.items())


def ordering_count(g, root, reports, t, theta=1):
    """Exact number of feasible trickle executions through time t with source
    ``root`` matching ``reports`` (node -> sorted tuple of tap times <= t) on
    the LazyRegularTree g.
    """
    check_lazy_tree(g)
    check_setting(g.d, theta, root_degree=g.root_degree, allow_high_degree=True)
    return _Store(g, reports, t, theta, [*reports, root]).count(root)


class _Store:
    """The count rows of one counting call, shared by all of its candidate
    roots: skeleton tables keyed by (node, parent), and the unobserved-subtree
    rows (one on the infinite tree, one per (node, parent) on finite trees).
    A row is a list over the infection times 0..t.

    A finite tree groups its fresh children by their rows: near a cut, the
    side of a node that faces its parent is not a function of its remaining
    depth, so the rows are made per directed edge."""

    def __init__(self, g, reports, t, theta, terminals):
        self.g = g
        self.reports = reports
        self.t = t
        self.theta = theta
        self.tables = {}
        if g.node_count == INFINITY:
            # Every unobserved subtree of the infinite tree has one row: that
            # of an unobserved node whose d-1 children are unobserved too.
            # Its sweep reads the weight of slot y from the row it writes,
            # where count(y) was read off one step before.
            self._fresh_row = [0] * (t + 1)
            _sweep([(g.d - 1, self._fresh_row)], 0, (), t,
                   range(max(1, t - g.d + 1), t + 1), self._fresh_row)
        else:
            self._fresh_rows = {}
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
        return self.tables[root, None][0]

    def _table(self, w, par, skel_kids):
        """Count row over infection times for skeleton node w."""
        t, theta = self.t, self.theta
        R = self.reports.get(w, ())
        child_count = self.g.degree(w) - (par is not None)
        k = child_count + theta
        hidden = theta - len(R)

        if par is None:
            # The source's own taps must fit its slot window from x = 0.
            xs = range(0, 1 if not R or (R[0] >= 1 and R[-1] <= k) else 0)
        elif R:
            # Taps live in the slot window: R[-1] <= x + k and R[0] >= x + 1.
            xs = range(max(1, R[-1] - k), R[0])
        else:
            # Unobserved: all theta taps must hide past t, so t - x <= k - theta.
            xs = range(max(1, t - child_count), t + 1)

        # Slot window x+1 .. min(x+k, t).  One ending at t leaves k - (t-x)
        # slots unrealized, room for the hidden taps once x >= t - k + hidden;
        # one ending at x+k < t realizes every slot, so nothing may hide.
        to_t = range(max(xs.start, t - k + hidden), xs.stop)
        short = range(xs.start, min(xs.stop, t - k) if not hidden else xs.start)
        table = [0] * (t + 1)
        rows = [self.tables[c, w] for c in skel_kids]
        if not (to_t or short) or not all(map(any, rows)):
            return table  # no window, or a skeleton child with no infection time
        first = short.start if short else to_t.start
        classes = [(1, row) for row in rows]
        classes += self._fresh_classes(w, par, skel_kids,
                                       child_count - len(skel_kids), first + 1)
        if to_t:
            _sweep(classes, len(rows), R, t, to_t, table)
        for x in short:
            _sweep(classes, len(rows), R, x + k, range(x, x + 1), table)
        return table

    def _fresh(self, node, par, lo):
        """Row of the unobserved subtree below node (parent par) on a finite
        tree, exact from time lo on: all theta taps must land past t, so the
        realized times x+1..t map injectively onto its children, each of them
        an unobserved subtree too.  Needs lo <= t."""
        got = self._fresh_rows.get((node, par))
        if got is not None and got[0] <= lo:
            return got[1]
        t = self.t
        kids = self.g.degree(node) - 1
        xs = range(max(lo, t - kids), t + 1)  # else some tap fires by t
        row = [0] * (t + 1)
        classes = self._fresh_classes(node, par, (), kids, xs.start + 1) if xs.start < t else []
        _sweep(classes, 0, (), t, xs, row)
        self._fresh_rows[node, par] = lo, row
        return row

    def _fresh_classes(self, w, par, skel_kids, n_fresh, lo):
        """Children of w outside the skeleton, grouped into classes whose
        rows agree at every time from lo on, as (members, row)."""
        if self.g.node_count == INFINITY:
            # The n_fresh fresh subtrees of the infinite tree are identical.
            return [(n_fresh, self._fresh_row)] if n_fresh else []
        groups = {}
        for c in self.g.neighbors(w):
            if c != par and c not in skel_kids:
                row = self._fresh(c, w, lo)
                key = tuple(row[lo:])
                m, _ = groups.get(key, (0, row))
                groups[key] = m + 1, row
        return list(groups.values())


def _sweep(classes, n_skel, taps, e, xs, out):
    """Write into out[x], for every x in the range xs, the sum over injective
    assignments of the slots x+1 .. e other than the tap times to distinct
    children, each of the first n_skel classes given a slot.

    A class is (m, row): m children whose subtree count is row[y] when given
    slot y.  The first n_skel classes are the single skeleton children.  The
    windows of xs are suffixes of the longest one, so one dynamic program
    walks its slots from e down and reads x's count off once slot x+1 is
    done, from the states in which every skeleton child holds a slot.  A
    state packs, per class, the number of its children holding a slot into
    one bit field of an integer.
    """
    lo = xs.start + 1
    if not n_skel and len(classes) == 1:
        # One class of m: n slots go to m!/(m-n)! ordered picks of children,
        # each weighing the product of the slots' counts.
        (m, row), = classes
        val = 1
        if e in xs:
            out[e] = 1
        for y in range(e, lo - 1, -1):
            if y not in taps:
                val *= row[y] * m
                if not val:
                    return
                m -= 1
            if y - 1 in xs:
                out[y - 1] = val
        return
    due = {}  # slot -> skeleton children with no usable slot below it
    for j in range(n_skel):
        row = classes[j][1]
        first = next((y for y in range(lo, e + 1) if row[y] and y not in taps), None)
        if first is None:
            return
        due[first] = due.get(first, 0) | 1 << j
    fields = []
    offset = 0
    for m, row in classes:
        width = m.bit_length()
        fields.append((m, 1 << offset, offset, (1 << width) - 1, row))
        offset += width
    full = (1 << n_skel) - 1  # the skeleton children's bits
    dp = {0: 1}
    if e in xs:
        out[e] = int(not n_skel)
    for y in range(e, lo - 1, -1):
        if y not in taps:
            ndp = {}
            for m, one, off, mask, row in fields:
                wgt = row[y]
                if wgt:
                    for state, val in dp.items():
                        used = state >> off & mask
                        if used < m:
                            nxt = state + one
                            ndp[nxt] = ndp.get(nxt, 0) + val * wgt * (m - used)
            need = due.get(y)
            if need:
                ndp = {s: v for s, v in ndp.items() if s & need == need}
            if not ndp:
                return
            dp = ndp
        if y - 1 in xs:
            out[y - 1] = sum(v for s, v in dp.items() if s & full == full)
