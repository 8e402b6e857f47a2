"""Topology construction and the tree/graph queries the estimators need.

Two graph flavors share one read interface (``neighbors`` / ``has_node`` /
``node_count``):

* ``ExplicitGraph``: finite simple undirected graph with dense node ids
  0..n-1, built by the random-regular generator here or ingested from an
  edge-list file.
* ``LazyRegularTree``: a d-regular tree numbered breadth first, whose parent
  and children of a node follow from its id by arithmetic.  Uncut it is
  infinite: simulations touch only the nodes the spread reaches, so no
  truncation bias enters at the boundary.  Cut at a depth it is the balanced
  tree, whose leaves sit at that depth.

The simulators and ``hop_distance`` run on both.  ``tree_path`` and the tree
estimators (reporting centrality, rumor centers, timestamp rumor
centrality) read the arithmetic numbering, so they take a LazyRegularTree
only and reject any other graph through ``check_lazy_tree``.

Both flavors are immutable after construction and safe to share across
threads/processes.
"""

from collections import deque
import math

from ._checks import integer

INFINITY = math.inf


class ExplicitGraph:
    """Simple undirected graph over node ids 0..node_count-1.

    The constructor sorts each neighbor list, drops repeats and rejects
    self-loops, ids out of range and one-way edges, naming the first
    offending edge.  build_random_regular builds its lists sorted and
    simple itself and wraps them through ``_trusted``, with no second pass.

    ``node_labels`` (keyword-only), when present, maps the dense ids back to
    the original labels of an ingested edge list (index i holds the original
    id of node i).
    """

    is_lazy = False

    def __init__(self, adjacency, *, node_labels=None):
        nbr_sets = [set(nbrs) for nbrs in adjacency]
        self._adj = [sorted(nbrs) for nbrs in nbr_sets]
        self.node_labels = node_labels
        for v, nbrs in enumerate(self._adj):
            for u in nbrs:
                if u == v:
                    raise ValueError(f"self-loop at node {v}")
                if not 0 <= u < len(self._adj):
                    raise ValueError(f"edge {v}-{u} leaves the node range")
                if v not in nbr_sets[u]:
                    raise ValueError(f"adjacency not symmetric at edge {v}-{u}")

    @classmethod
    def _trusted(cls, adj):
        """The graph over lists that are already sorted, simple and
        symmetric, taken as they are: no copy and no check."""
        g = cls.__new__(cls)
        g._adj = adj
        g.node_labels = None
        return g

    @property
    def node_count(self):
        return len(self._adj)

    def has_node(self, v):
        return isinstance(v, int) and 0 <= v < len(self._adj)

    def neighbors(self, v):
        if not 0 <= v < len(self._adj):
            raise ValueError(f"unknown node {v}")
        return self._adj[v]

    def edge_count(self):
        return sum(len(n) for n in self._adj) // 2


class LazyRegularTree:
    """d-regular tree rooted at node 0, numbered breadth first: infinite, or
    cut at ``depth`` hops.

    The root's children are 1..root_degree and the children of node v >= 1
    are r+(v-1)(d-1)+1 .. r+v(d-1), with r the root degree, so every parent
    has a smaller id than its children.  ``neighbors(v)`` lists the parent
    first, then the children in ascending order, none at the cut.  Nothing
    is stored per node: the tree is immutable and one instance serves every
    trial and worker.

    ``root_degree`` (default d) gives the root a different number of
    neighbors while every other node keeps degree d.  root_degree = d - 2 is
    the setting solved exactly by the diffusion first-timestamp closed form.

    With ``depth`` the nodes at depth hops are leaves and no node lies past
    them: node ids run 0..node_count-1, with node_count
    1 + r * sum((d-1)**k, k < depth), and the leaves are the ids from
    first_leaf on.  Without it node_count and first_leaf are INFINITY.
    """

    is_lazy = True

    def __init__(self, d, root_degree=None, depth=None):
        d = integer("regular tree degree", d, 2)
        root_degree = d if root_degree is None else integer("root degree", root_degree, 1)
        if depth is not None:
            depth = integer("depth", depth, 0)
        self.d, self.root_degree, self.depth = d, root_degree, depth
        self.node_count = INFINITY
        self.first_leaf = INFINITY
        if depth is not None:
            level_sizes = [1] + [root_degree * (d - 1) ** k for k in range(depth)]
            self.node_count = sum(level_sizes)
            self.first_leaf = self.node_count - level_sizes[-1]
            # Only the cut tree tests for leaves and for ids past the cut,
            # which keeps both tests off the infinite tree's hot queries.
            self.neighbors = self._cut_neighbors
            self.has_node = self._cut_has_node

    def has_node(self, v):
        return isinstance(v, int) and v >= 0

    def neighbors(self, v):
        if not (isinstance(v, int) and v >= 0):  # has_node, inlined for _ball
            raise ValueError(f"unknown node {v}")
        r = self.root_degree
        if v == 0:
            return list(range(1, r + 1))
        c = self.d - 1
        first = r + (v - 1) * c + 1
        return [0 if v <= r else (v - r - 1) // c + 1, *range(first, first + c)]

    def _cut_has_node(self, v):
        return isinstance(v, int) and 0 <= v < self.node_count

    def _cut_neighbors(self, v):
        if not self.has_node(v):
            raise ValueError(f"unknown node {v}")
        if v < self.first_leaf:
            return LazyRegularTree.neighbors(self, v)
        return [self.parent_of(v)] if v else []

    def parent_of(self, v):
        """Parent of node v, None at the root.  Unchecked, for speed: callers
        pass only ids they know are nodes."""
        if v <= self.root_degree:
            return None if v == 0 else 0
        return (v - self.root_degree - 1) // (self.d - 1) + 1


def lazy_regular_tree(d, root_degree=None, depth=None):
    """d-regular tree numbered breadth first, cut at ``depth`` hops if given
    (see LazyRegularTree)."""
    return LazyRegularTree(d, root_degree=root_degree, depth=depth)


# Configuration-model restarts before build_random_regular gives up.
_RR_RESTARTS = 100


def _shuffle(x, getrandbits):
    """random.Random.shuffle(x) for the generator behind getrandbits, call
    for call: Fisher-Yates from the end, each index picked below i + 1 by
    the getrandbits rejection loop behind randrange."""
    for i in range(len(x) - 1, 0, -1):
        m = i + 1
        k = m.bit_length()
        j = getrandbits(k)
        while j >= m:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


def check_random_regular(n, d):
    """Raise ValueError unless a d-regular graph on n nodes exists."""
    if n * d % 2:
        raise ValueError(f"n*d must be even, got n={n}, d={d}")
    if d >= n:
        raise ValueError(f"need d < n, got n={n}, d={d}")


def build_random_regular(n, d, seed):
    """Random simple d-regular graph on n nodes via the configuration model.

    Stubs are paired uniformly; valid (simple, non-loop) pairs are kept and
    clashed stubs are re-shuffled until none remain, restarting from scratch
    when no suitable pairing can exist.  Deterministic given ``seed``: each
    shuffle is random.Random(seed).shuffle's, draw for draw, made straight
    from the generator (_shuffle) without its per-stub method call.
    Asymptotically uniform for d much smaller than n.

    Kept pairs go straight into per-node neighbor lists, which are sorted
    once at the end; the lists are simple and symmetric by construction, so
    the graph takes them without a second validation pass.
    """
    import random as _random

    n, d = integer("n", n, 1), integer("d", d, 0)
    check_random_regular(n, d)
    getrandbits = _random.Random(seed).getrandbits

    def suitable(adj, leftover):
        # True if some pair of leftover stubs can still form a fresh edge.
        if not leftover:
            return True
        nodes = sorted(leftover)
        for i, s1 in enumerate(nodes):
            for s2 in nodes[i + 1:]:
                if s2 not in adj[s1]:
                    return True
        return False

    def try_creation():
        adj = [[] for _ in range(n)]
        stubs = list(range(n)) * d
        while stubs:
            leftover = {}
            _shuffle(stubs, getrandbits)
            it = iter(stubs)
            for s1, s2 in zip(it, it):
                # The smaller stub first: leftover's insertion order is the
                # order of the next shuffle's stubs.
                if s1 > s2:
                    s1, s2 = s2, s1
                nbrs = adj[s1]
                if s1 != s2 and s2 not in nbrs:
                    nbrs.append(s2)
                    adj[s2].append(s1)
                else:
                    leftover[s1] = leftover.get(s1, 0) + 1
                    leftover[s2] = leftover.get(s2, 0) + 1
            if not suitable(adj, leftover):
                return None
            stubs = [v for v, c in leftover.items() for _ in range(c)]
        return adj

    for _ in range(_RR_RESTARTS):
        adj = try_creation()
        if adj is not None:
            for nbrs in adj:
                nbrs.sort()
            return ExplicitGraph._trusted(adj)
    raise RuntimeError(
        f"configuration model failed for n={n}, d={d} after {_RR_RESTARTS} restarts"
    )


def load_edge_list(path):
    """Ingest a whitespace-separated edge list into an ExplicitGraph.

    One edge per line, two non-negative integers; '#' lines are comments and
    blank lines are skipped.  Duplicate edges collapse; self-loops are an
    error.  Sparse ids are remapped to dense 0..n-1 (the mapping is kept in
    ``node_labels``).  Disconnected graphs are accepted.
    """
    edges = set()
    ids = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(
                    f"{path}:{lineno}: expected two fields, got {len(parts)}"
                )
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-integer node id") from None
            if u < 0 or v < 0:
                raise ValueError(f"{path}:{lineno}: negative node id")
            if u == v:
                raise ValueError(f"{path}:{lineno}: self-loop at node {u}")
            ids.add(u)
            ids.add(v)
            edges.add((min(u, v), max(u, v)))
    if not ids:
        raise ValueError(f"{path}: empty edge list")
    labels = sorted(ids)
    remap = {orig: i for i, orig in enumerate(labels)}
    adjacency = [[] for _ in labels]
    for u, v in edges:
        adjacency[remap[u]].append(remap[v])
        adjacency[remap[v]].append(remap[u])
    return ExplicitGraph(adjacency, node_labels=labels)


def hop_distance(g, u, v):
    """BFS hop count between u and v; INFINITY if disconnected."""
    if not g.has_node(u) or not g.has_node(v):
        raise ValueError(f"unknown node in pair ({u}, {v})")
    if u == v:
        return 0
    if g.is_lazy:
        # Parents have smaller ids than children, so the larger id is never
        # the common ancestor: lift it to parent_of (inlined) until they meet.
        r, c, dist = g.root_degree, g.d - 1, 0
        while u != v:
            if u > v:
                u = 0 if u <= r else (u - r - 1) // c + 1
            else:
                v = 0 if v <= r else (v - r - 1) // c + 1
            dist += 1
        return dist
    seen = {u}
    frontier = deque([(u, 0)])
    while frontier:
        w, dist = frontier.popleft()
        for x in g.neighbors(w):
            if x == v:
                return dist + 1
            if x not in seen:
                seen.add(x)
                frontier.append((x, dist + 1))
    return INFINITY


def check_lazy_tree(g):
    """Raise ValueError, naming g's type, unless g is a LazyRegularTree."""
    if not isinstance(g, LazyRegularTree):
        raise ValueError(f"need a LazyRegularTree (infinite or cut), got {type(g).__name__}")


def tree_path(g, u, v, stop=None):
    """Node sequence of the unique u..v path in the LazyRegularTree g.

    With a node set ``stop`` the path ends at its first node in ``stop``.
    Both ends must be nodes of g.  The larger id climbs to its parent until
    both ends meet (see hop_distance) or the climb from u enters ``stop``;
    then v's half is scanned back down.
    """
    check_lazy_tree(g)
    if not g.has_node(u) or not g.has_node(v):
        raise ValueError(f"unknown node in pair ({u}, {v})")
    stop = stop or ()
    r, c = g.root_degree, g.d - 1
    up, vp = [u], [v]
    while u != v and u not in stop:
        if u > v:
            u = 0 if u <= r else (u - r - 1) // c + 1
            up.append(u)
        else:
            v = 0 if v <= r else (v - r - 1) // c + 1
            vp.append(v)
    if u not in stop:
        for w in reversed(vp[:-1]):
            up.append(w)
            if w in stop:
                break
    return up
