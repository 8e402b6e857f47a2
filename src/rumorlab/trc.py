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
the infection time and the subtree's shape, which keeps the pass linear in
the observed skeleton rather than in the radius-t ball.

Each node's counts form a row over the infection times 0..t.  The windows
that end at the same time e are suffixes of the longest one, so one dynamic
program per end counts them all: it walks the slot times from e down and
reads x's count off once slot x+1 is done.  On the infinite tree at
t = d + theta every window ends at t; a window ending before t belongs to
one x alone.  The state records which skeleton children already hold a slot
and how many children of each fresh class do, where a class groups the
children outside the skeleton whose rows agree at every slot time (one class
on the infinite tree).  Giving a slot to a class with m members, u of them
used, multiplies by m - u.  A node with s skeleton children costs
O((d + theta) * 2^s * (s + 1)) per window end on the infinite tree,
polynomial in d for a bounded skeleton.  An unobserved subtree's row is that
of a node whose children are all unobserved, counted the same way, and it
depends on the subtree's shape alone: one shape on the infinite tree, and on
a cut tree its top node's depth and whether it is entered from that node's
tree parent (the root is unmodified, so subtrees of one shape are the same).

A non-root node's table depends only on the directed edge (parent, node): its
skeleton children are its neighbours other than the parent whose side holds a
reporter, and neither they nor its taps depend on which candidate is the
root.  One estimator call keeps every table, keyed by (node, parent), in one
store shared by all of its candidates.  Every candidate is a reporter, so
every candidate's skeleton is the same tree, the reporters' Steiner tree: the
store builds it once per call, one tree_path per reporter past the first.  A
candidate's count descends from it and stops at every table already stored,
so a later candidate computes only the edges whose direction flips.

A table is a tuple, and it also outlives its call: the caller may pass a
memo, a dict that the harness opens for each block of trials and drops when
the block ends, and every table is looked up there before it is computed.
Its key holds all the row depends on: the setting (d, depth, t, theta),
whether the node is the root, its tap times, its skeleton children's rows as
a multiset of identities of tuples the memo itself holds, and on a cut tree
its other children's shapes, so equal keys mean equal rows and no key names
a node.  Each unobserved-subtree row is kept there under the setting and its
shape.  A call given no memo makes one of its own.

Candidates are the observed nodes whose first report is at most d+theta (the
source's tap must land within its own d+theta slots), prefiltered by the
ball-intersection feasibility test, which never discards a positive-count
candidate.  The tree is a LazyRegularTree, infinite or cut, of any degree;
any other graph is refused.
"""

from ._checks import integer
from .estimators import EstimateResult, InfeasibleObservationError, _pick_uniform
from .graphs import INFINITY, check_lazy_tree, hop_distance, tree_path


def check_setting(d, theta, t=None, root_degree=None):
    """Raise ValueError unless timestamp rumor centrality counts exactly with
    degree d, theta taps and estimation time t: integer theta >= 1, a root of
    degree d (root_degree None means unmodified), and integer t >= d + theta
    (not checked for t None).
    """
    theta = integer("theta", theta, 1)
    if root_degree is not None and root_degree != d:
        # A modified-degree root could land inside an "unobserved subtree",
        # whose shared row assumes full regularity.
        raise ValueError("ordering counts need an unmodified regular tree")
    if t is not None and (not float(t).is_integer() or t < d + theta):
        raise ValueError(f"need integer t >= d + theta = {d + theta}, got {t}")


def timestamp_rumor_centrality(obs, g, t, rng=None, theta=1, memo=None):
    """ML source estimate for a trickle eavesdropper observation.

    Needs a LazyRegularTree g, keep_all report times and t >= d + theta.
    Returns the argmax set of ordering counts with a uniform pick, and the
    per-candidate counts as the score map.  memo is a dict of count rows
    that later calls may share, on any tree and setting; None makes one
    for this call.
    """
    check_lazy_tree(g)
    if obs.variant != "eavesdropper":
        raise ValueError("timestamp rumor centrality needs an eavesdropper observation")
    if obs.all_reports is None:
        raise ValueError("timestamp rumor centrality needs keep_all report times")
    d = g.d
    check_setting(d, theta, t, g.root_degree)
    theta, t = int(theta), int(t)
    reports = _checked_reports(obs.all_reports, t, theta)
    if not reports:
        raise InfeasibleObservationError("no reports to estimate from")

    candidates = [v for v, R in reports.items() if R[0] <= d + theta]
    store = _Store(g, reports, t, theta, reports, {} if memo is None else memo)
    scores = {}
    for v in candidates:
        scores[v] = store.count(v) if _ball_feasible(g, v, reports) else 0
    best = max(scores.values(), default=0)
    if best <= 0:
        raise InfeasibleObservationError(
            "no candidate source admits a feasible ordering"
        )
    ties = frozenset(v for v, s in scores.items() if s == best)
    return EstimateResult(_pick_uniform(ties, rng), ties, score=scores)


def _checked_reports(reports, t, theta):
    """reports (node -> tap times) as node -> sorted tuple of int times, with
    empty tuples dropped; ValueError naming the node unless every time is an
    integer in 1..t and no node shows more than theta taps."""
    checked = {}
    for v, times in reports.items():
        clean = tuple(sorted(times))
        if not all(float(x).is_integer() for x in clean):
            raise ValueError(f"non-integer trickle report times at node {v}")
        clean = tuple(int(x) for x in clean)
        if clean and not 1 <= clean[0] <= clean[-1] <= t:
            raise ValueError(f"report before step 1 or past estimation time at node {v}")
        if len(clean) > theta:
            raise ValueError(f"node {v} shows {len(clean)} taps but theta={theta}")
        if clean:
            checked[v] = clean
    return checked


def _ball_feasible(g, v, reports):
    # Sound prefilter: any feasible source sits within tau_w - 1 hops of
    # every reporter w (X_w >= hop, first tap tau_w = R[0] >= X_w + 1).
    return all(hop_distance(g, v, w) <= R[0] - 1 for w, R in reports.items())


def ordering_count(g, root, reports, t, theta=1):
    """Exact number of feasible trickle executions through time t with source
    ``root`` matching ``reports`` (node -> tap times, each an integer in 1..t,
    at most theta per node) on the LazyRegularTree g.
    """
    check_lazy_tree(g)
    check_setting(g.d, theta, root_degree=g.root_degree)
    theta, t = int(theta), integer("t", t, 0)
    reports = _checked_reports(reports, t, theta)
    if not _ball_feasible(g, root, reports):
        return 0
    return _Store(g, reports, t, theta, [*reports, root], {}).count(root)


class _Store:
    """The count rows of one counting call, shared by all of its candidate
    roots: skeleton tables keyed by (node, parent), each a tuple over the
    infection times 0..t, and the unobserved-subtree rows, one per shape.

    Every table and row is taken from memo, which holds the rows of every
    earlier call given the same memo (in the harness, the earlier trials of
    the block), or computed and put there, so they outlive the call.  A cut
    tree groups a node's fresh children into classes by their rows, since
    subtrees of different shapes can still share a row."""

    def __init__(self, g, reports, t, theta, terminals, memo):
        self.g = g
        self.reports = reports
        self.t = t
        self.theta = theta
        self.tables = {}
        self.memo = memo
        self.setting = (g.d, g.depth, t, theta)
        self.finite = g.node_count != INFINITY
        # The row of a node with no infection time.  No key names it: a
        # skeleton child with this row gives its parent this row too.
        self._zero = (0,) * (t + 1)
        if not self.finite:
            self._fresh_row = self._fresh(())
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
        return self._table(root, None)[0]

    def _table(self, w, par):
        """Count row over infection times for skeleton node w entered from
        par, by a descent that stops at every table this call holds: a later
        root computes only the edges whose direction flips, at most t hops
        deep from a ball-feasible root.  A new table comes from the memo if
        an earlier table had the same key."""
        table = self.tables.get((w, par))
        if table is not None:
            return table
        skel_kids = [c for c in self.skeleton[w] if c != par]
        rows = [self._table(c, w) for c in skel_kids]
        R = self.reports.get(w, ())
        table = self._zero  # if a skeleton child has no infection time
        if all(map(any, rows)):
            # The infinite tree's fresh children follow from the setting, the
            # root flag and the number of skeleton children; a cut tree's are
            # named by their shapes.
            shapes = tuple(sorted(self._fresh_shapes(w, par, skel_kids))) if self.finite else None
            key = (self.setting, par is None, R, tuple(sorted(map(id, rows))), shapes)
            table = self.memo.get(key)
            if table is None:
                table = self.memo[key] = self._row(par is None, R, rows, shapes)
        self.tables[w, par] = table
        return table

    def _row(self, root, R, rows, shapes):
        """Count row of a skeleton node, the source if root, with taps R,
        given the rows of its skeleton children and, on a cut tree, the
        shapes of its others.  Every node of the infinite tree has degree d,
        since check_setting keeps the root unmodified."""
        t, theta = self.t, self.theta
        child_count = len(rows) + len(shapes) if self.finite else self.g.d - (not root)
        k = child_count + theta
        hidden = theta - len(R)

        if root:
            # The source's own taps must fit its slot window from x = 0.
            xs = range(0, 1 if not R or R[-1] <= k else 0)
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
        if not (to_t or short):
            return self._zero  # no window
        table = [0] * (t + 1)
        first = short.start if short else to_t.start
        classes = [(1, row) for row in rows]
        if self.finite:
            classes += self._fresh_classes(shapes, first + 1)
        elif child_count > len(rows):
            # The fresh subtrees of the infinite tree are identical.
            classes.append((child_count - len(rows), self._fresh_row))
        if to_t:
            _sweep(classes, len(rows), R, t, to_t, table)
        for x in short:
            _sweep(classes, len(rows), R, x + k, range(x, x + 1), table)
        return tuple(table)

    def _fresh_shapes(self, w, par, skel_kids):
        """Shapes of the children of skeleton node w (parent par) outside
        the skeleton, on the cut tree."""
        g, up, k, v = self.g, self.g.parent_of(w), 0, w
        while v:
            v, k = g.parent_of(v), k + 1
        return [(False, k - 1) if c == up else (True, k + 1)
                for c in g.neighbors(w) if c != par and c not in skel_kids]

    def _fresh(self, shape):
        """Row of an unobserved subtree, exact at every time 1..t: all theta
        taps must land past t, so the realized times x+1..t map injectively
        onto its children, each of them an unobserved subtree too.

        On a cut tree the shape (down, k) is the subtree of a node at depth k
        entered from its tree parent if down, else from one of its children.
        On the infinite tree it is (), shared by the d-1 children, so the row
        goes into the memo before its sweep runs: the sweep reads the weight
        of slot y from the row it writes, where count(y) was read off one
        step before."""
        key = self.setting, shape
        row = self.memo.get(key)
        if row is not None:
            return row
        d, t = self.g.d, self.t
        if not shape:
            kids = [()] * (d - 1)
        elif shape[0]:
            kids = [(True, shape[1] + 1)] * (d - 1) if shape[1] < self.g.depth else []
        else:
            k = shape[1]
            kids = [(True, k + 1)] * (d - 1 - (k > 0)) + [(False, k - 1)] * (k > 0)
        xs = range(max(1, t - len(kids)), t + 1)  # else some tap fires by t
        row = self.memo[key] = [0] * (t + 1)
        classes = self._fresh_classes(kids, xs.start + 1) if xs.start < t else []
        _sweep(classes, 0, (), t, xs, row)
        return row

    def _fresh_classes(self, shapes, lo):
        """Unobserved subtrees of the given shapes, grouped into classes
        whose rows agree at every time from lo on, as (members, row)."""
        groups = {}
        for shape in shapes:
            row = self._fresh(shape)
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
    one bit field of an integer.  Every count goes through this program, a
    single class with no skeleton child included.
    """
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
    for y in range(e, xs.start, -1):
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
            if not ndp:
                return
            dp = ndp
        if y - 1 in xs:
            out[y - 1] = sum(v for s, v in dp.items() if s & full == full)
