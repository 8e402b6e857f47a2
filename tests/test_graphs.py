import math
import pickle
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from rumorlab.graphs import (
    ExplicitGraph,
    build_random_regular,
    hop_distance,
    lazy_regular_tree,
    load_edge_list,
    tree_path,
)

from oracles import build_regular_tree, stepwise_path


def tree_node_count(d, depth):
    return 1 + d * sum((d - 1) ** k for k in range(depth))


class TestBuildRegularTree:
    def test_depth_zero_is_single_node(self):
        g = build_regular_tree(3, 0)
        assert g.node_count == 1
        assert g.edge_count() == 0

    def test_depth_one_is_star(self):
        g = build_regular_tree(3, 1)
        assert g.node_count == 4
        assert g.edge_count() == 3

    def test_depth_two_count(self):
        # 1 + d * sum (d-1)^k = 1 + 3 + 3*2
        g = build_regular_tree(3, 2)
        assert g.node_count == 10

    @given(d=st.integers(2, 5), depth=st.integers(0, 4))
    def test_count_formula_and_degrees(self, d, depth):
        g = build_regular_tree(d, depth)
        assert g.node_count == tree_node_count(d, depth)
        if depth >= 1:
            dist = {v: hop_distance(g, 0, v) for v in g.nodes()}
            for v in g.nodes():
                if dist[v] < depth:
                    assert g.degree(v) == d
                else:
                    assert g.degree(v) == 1

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            build_regular_tree(1, 2)
        with pytest.raises(ValueError):
            build_regular_tree(3, -1)


class TestLazyRegularTree:
    def test_neighbors_idempotent(self):
        g = lazy_regular_tree(3)
        first = list(g.neighbors(0))
        again = list(g.neighbors(0))
        assert first == again

    def test_child_has_d_neighbors_including_root(self):
        g = lazy_regular_tree(3)
        child = g.neighbors(0)[0]
        nbrs = g.neighbors(child)
        assert len(nbrs) == 3
        assert 0 in nbrs

    def test_bfs_depth_two_d4(self):
        g = lazy_regular_tree(4)
        seen = {0}
        frontier = [0]
        for _ in range(2):
            frontier = [u for v in frontier for u in g.neighbors(v) if u not in seen]
            seen.update(frontier)
        assert len(seen) == 17  # 1 + 4 + 12

    def test_materialization_is_additive(self):
        # The tree is immutable: no query changes the answer to another, and
        # every child lists its parent first.
        g = lazy_regular_tree(3)
        before = {v: g.neighbors(v) for v in range(40)}
        g.neighbors(10 ** 9)
        assert {v: g.neighbors(v) for v in range(40)} == before
        for v, nbrs in before.items():
            for child in nbrs[1 if v else 0:]:
                assert g.neighbors(child)[0] == v
                assert g.parent_of(child) == v

    def test_root_degree_override(self):
        g = lazy_regular_tree(4, root_degree=2)
        assert len(g.neighbors(0)) == 2
        assert g.degree(0) == 2
        child = g.neighbors(0)[0]
        assert len(g.neighbors(child)) == 4

    def test_rejects_small_degree(self):
        with pytest.raises(ValueError):
            lazy_regular_tree(1)

    @pytest.mark.parametrize("kwargs, name", [
        ({"d": 2.5}, "regular tree degree"),
        ({"d": float("nan")}, "regular tree degree"),
        ({"d": math.inf}, "regular tree degree"),
        ({"d": None}, "regular tree degree"),
        ({"d": 3, "depth": 2.5}, "depth"),
        ({"d": 3, "depth": -1.0}, "depth"),
        ({"d": 3, "root_degree": 2.5}, "root degree"),
        ({"d": 3, "root_degree": 0}, "root degree"),
    ], ids=["d=2.5", "d=nan", "d=inf", "d=None", "depth=2.5", "depth=-1.0", "root=2.5",
            "root=0"])
    def test_non_integer_inputs_raise_value_error(self, kwargs, name):
        with pytest.raises(ValueError, match=f"^need integer {name} >= "):
            lazy_regular_tree(**kwargs)

    def test_whole_floats_are_integers(self):
        g = lazy_regular_tree(3.0, root_degree=2.0, depth=2.0)
        assert (g.d, g.root_degree, g.depth) == (3, 2, 2)
        assert all(type(x) is int for x in (g.d, g.root_degree, g.depth, g.node_count))
        assert list(g.nodes()) == list(range(7))

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_numbered_like_the_balanced_tree(self, d, k):
        # Both number the nodes breadth first, so they agree wherever the
        # balanced tree has its full degree.
        g, explicit = lazy_regular_tree(d), build_regular_tree(d, k)
        for v in range(tree_node_count(d, k - 1)):
            assert g.neighbors(v) == explicit.neighbors(v)
            assert g.degree(v) == explicit.degree(v) == d

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("depth", [0, 1, 2, 3, 4])
    def test_cut_tree_is_the_balanced_tree(self, d, depth):
        g, explicit = lazy_regular_tree(d, depth=depth), build_regular_tree(d, depth)
        assert g.node_count == explicit.node_count == tree_node_count(d, depth)
        assert list(g.nodes()) == list(explicit.nodes())
        for v in explicit.nodes():
            assert g.has_node(v)
            assert g.neighbors(v) == explicit.neighbors(v)
            assert g.degree(v) == explicit.degree(v)
        for v in (-1, explicit.node_count, explicit.node_count + d):
            assert not g.has_node(v) and not explicit.has_node(v)
            with pytest.raises(ValueError, match="unknown node"):
                g.neighbors(v)
            with pytest.raises(ValueError, match="unknown node"):
                g.degree(v)

    @pytest.mark.parametrize("d,root_degree", [(2, 1), (2, 2), (3, 1), (3, 3), (5, 1), (5, 5)])
    @pytest.mark.parametrize("depth", [0, 1, 2, 3, 4])
    def test_children_are_the_neighbors_but_the_parent(self, d, root_degree, depth):
        g = lazy_regular_tree(d, root_degree=root_degree, depth=depth)
        explicit = build_regular_tree(d, depth, root_degree=root_degree)
        assert g.node_count == explicit.node_count
        for v in explicit.nodes():
            nbrs = g.neighbors(v)
            assert nbrs == explicit.neighbors(v)
            # The parent is the one neighbor numbered below v, listed first.
            assert nbrs[v > 0:] == [u for u in nbrs if u > v]
        with pytest.raises(ValueError, match="unknown node"):
            g.neighbors(explicit.node_count)
        # Uncut, the root's children are 1..r and node v's the c = d-1 ids
        # r+(v-1)c+1 .. r+vc, the ranges a spread from the root reads.
        infinite = lazy_regular_tree(d, root_degree=root_degree)
        assert infinite.neighbors(0) == list(range(1, root_degree + 1))
        for v in range(1, explicit.node_count + 2 * d):
            first = root_degree + (v - 1) * (d - 1) + 1
            assert infinite.neighbors(v)[1:] == list(range(first, first + d - 1))

    @pytest.mark.parametrize("depth", [None, 3])
    def test_queries_reject_ids_the_tree_lacks(self, depth):
        # Infinite or cut, the tree answers no query about a negative or a
        # non-integer id, and the estimators that ask it fail the same way.
        from rumorlab.adversary import Observation
        from rumorlab.estimators import ball_centrality

        g = lazy_regular_tree(3, depth=depth)
        for v in (-1, -5, 2.5, 0.0, "1"):
            assert not g.has_node(v)
            for query in (g.neighbors, g.degree):
                with pytest.raises(ValueError, match="unknown node"):
                    query(v)
        obs = Observation("eavesdropper", first_reports={0: 2, -1: 2})
        with pytest.raises(ValueError, match="unknown node"):
            ball_centrality(obs, g)

    def test_cut_tree_rejects_negative_depth(self):
        with pytest.raises(ValueError, match="depth"):
            lazy_regular_tree(3, depth=-1)

    def test_infinite_tree_has_no_node_list(self):
        g = lazy_regular_tree(3)
        assert g.node_count == math.inf
        assert g.has_node(10 ** 30) and not g.has_node(-1)
        with pytest.raises(ValueError, match="infinite"):
            g.nodes()

    def test_cut_tree_survives_pickling(self):
        g = pickle.loads(pickle.dumps(lazy_regular_tree(3, depth=2)))
        assert [g.neighbors(v) for v in g.nodes()] == [
            build_regular_tree(3, 2).neighbors(v) for v in range(10)]
        assert g.degree(9) == 1 and not g.has_node(10)

    def test_root_degree_matches_hand_built_tree(self):
        # d=3, root degree 2, depth 2: the root's children 1, 2 own 3, 4 and 5, 6.
        explicit = ExplicitGraph([[1, 2], [0, 3, 4], [0, 5, 6], [1], [1], [2], [2]])
        g = lazy_regular_tree(3, root_degree=2)
        for v in range(3):
            assert g.neighbors(v) == explicit.neighbors(v)
        assert [g.parent_of(v) for v in range(7)] == [None, 0, 0, 1, 1, 2, 2]
        assert g.neighbors(3) == [1, 7, 8]


class TestExplicitGraph:
    def test_sorts_and_drops_repeats(self):
        g = ExplicitGraph([[2, 1, 1], [0], [0, 0]])
        assert [g.neighbors(v) for v in g.nodes()] == [[1, 2], [0], [0]]
        assert g.edge_count() == 2

    @pytest.mark.parametrize("adjacency, message", [
        ([[1], [0, 1]], "self-loop at node 1"),
        ([[1, 0], [0]], "self-loop at node 0"),
        ([[1, 3], [0]], "edge 0-3 leaves the node range"),
        ([[-1], []], "edge 0--1 leaves the node range"),
        ([[1], []], "adjacency not symmetric at edge 0-1"),
        ([[], [0]], "adjacency not symmetric at edge 1-0"),
        # The first offending edge, nodes in order and each list sorted.
        ([[2, 1], [], [1]], "adjacency not symmetric at edge 0-1"),
        ([[1], [0, 5], [2]], "edge 1-5 leaves the node range"),
        ([[1, 2], [0], [0, 2, 7]], "self-loop at node 2"),
    ])
    def test_rejects_with_the_first_offending_edge(self, adjacency, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExplicitGraph(adjacency)

    def test_node_labels_is_keyword_only(self):
        # A positional second argument, such as the degree the constructor
        # once took there, is an error rather than a label list.
        assert ExplicitGraph([[1], [0]], node_labels=[5, 7]).node_labels == [5, 7]
        with pytest.raises(TypeError):
            ExplicitGraph([[1], [0]], 1)

    def test_hub_heavy_star(self):
        # The symmetry test looks the hub up in a set, not by a scan of its
        # 20,000 neighbors per leaf.
        leaves = 20_000
        g = ExplicitGraph([list(range(leaves, 0, -1))] + [[0]] * leaves)
        assert g.neighbors(0) == list(range(1, leaves + 1))
        assert g.degree(leaves) == 1 and g.edge_count() == leaves


class TestRandomRegular:
    def test_k4_is_forced(self):
        for seed in (0, 1, 99):
            g = build_random_regular(4, 3, seed=seed)
            assert g.edge_count() == 6
            assert all(g.degree(v) == 3 for v in g.nodes())

    def test_degree_sequence_constant(self):
        g = build_random_regular(10, 3, seed=7)
        assert [g.degree(v) for v in g.nodes()] == [3] * 10

    def test_locally_tree_like(self):
        # Triangle count is O(d^3), independent of n: expectation ~(d-1)^3/6.
        g = build_random_regular(1000, 8, seed=3)
        nbr = [set(g.neighbors(v)) for v in g.nodes()]
        triangles = sum(
            1
            for v in g.nodes()
            for u in nbr[v]
            if u > v
            for w in nbr[u]
            if w > u and w in nbr[v]
        )
        assert triangles < 300

    def test_deterministic_given_seed(self):
        a = build_random_regular(30, 4, seed=5)
        b = build_random_regular(30, 4, seed=5)
        assert [a.neighbors(v) for v in a.nodes()] == [b.neighbors(v) for v in b.nodes()]

    def test_infeasible_rejected(self):
        # The messages a GraphSpec gives for the same recipes.
        with pytest.raises(ValueError, match="n\\*d must be even"):
            build_random_regular(5, 3, seed=0)
        with pytest.raises(ValueError, match="d < n"):
            build_random_regular(4, 4, seed=0)

    @pytest.mark.parametrize("n, d, name", [
        (50, 4.5, "d"), (50, float("nan"), "d"), (50, -2, "d"), (50, None, "d"),
        (50.5, 4, "n"), (0, 0, "n"), (math.inf, 4, "n"),
    ])
    def test_non_integer_inputs_raise_value_error(self, n, d, name):
        with pytest.raises(ValueError, match=f"^need integer {name} >= "):
            build_random_regular(n, d, seed=1)

    def test_whole_floats_are_integers(self):
        assert build_random_regular(50.0, 4.0, 1)._adj == build_random_regular(50, 4, 1)._adj


class TestLoadEdgeList(object):
    def write(self, tmp_path, text):
        path = tmp_path / "edges.txt"
        path.write_text(text)
        return str(path)

    def test_path_graph(self, tmp_path):
        g = load_edge_list(self.write(tmp_path, "0 1\n1 2\n"))
        assert g.node_count == 3
        assert g.edge_count() == 2

    def test_duplicate_edges_collapse(self, tmp_path):
        g = load_edge_list(self.write(tmp_path, "1 0\n0 1\n"))
        assert g.edge_count() == 1

    def test_self_loop_rejected_with_line(self, tmp_path):
        with pytest.raises(ValueError, match=":1:"):
            load_edge_list(self.write(tmp_path, "3 3\n"))

    def test_comments_and_blanks_skipped(self, tmp_path):
        g = load_edge_list(self.write(tmp_path, "# header\n\n0 1\n"))
        assert g.edge_count() == 1

    def test_bad_field_count(self, tmp_path):
        with pytest.raises(ValueError, match=":2:"):
            load_edge_list(self.write(tmp_path, "0 1\n0 1 2\n"))

    def test_non_integer(self, tmp_path):
        with pytest.raises(ValueError, match="non-integer"):
            load_edge_list(self.write(tmp_path, "a b\n"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            load_edge_list(self.write(tmp_path, "# nothing\n"))

    def test_sparse_ids_remapped(self, tmp_path):
        g = load_edge_list(self.write(tmp_path, "10 700\n700 42\n"))
        assert g.node_count == 3
        assert g.node_labels == [10, 42, 700]

    def test_disconnected_accepted(self, tmp_path):
        g = load_edge_list(self.write(tmp_path, "0 1\n2 3\n"))
        assert g.node_count == 4
        assert hop_distance(g, 0, 2) == math.inf


class TestHopDistance:
    def test_zero_to_self(self):
        g = build_regular_tree(3, 2)
        assert hop_distance(g, 5, 5) == 0

    def test_path_distance(self):
        g = load_edge_list_from_edges([(0, 1), (1, 2)])
        assert hop_distance(g, 0, 2) == 2

    def test_unknown_node(self):
        g = build_regular_tree(3, 1)
        with pytest.raises(ValueError):
            hop_distance(g, 0, 99)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=25)
    def test_lazy_matches_bfs_and_triangle_inequality(self, seed):
        g = lazy_regular_tree(3)
        rng = random.Random(seed)
        nodes = ball(g, 0, 5)
        a, b, c = (rng.choice(nodes) for _ in range(3))
        explicit = ExplicitGraph(
            [[u for u in g.neighbors(v) if u in set(nodes)] for v in nodes]
        )
        assert hop_distance(g, a, b) == hop_distance(explicit, a, b)
        assert hop_distance(g, a, b) == hop_distance(g, b, a)
        assert hop_distance(g, a, c) <= hop_distance(g, a, b) + hop_distance(g, b, c)


def ball(g, center, radius):
    """Sorted ids within radius hops of center, found by BFS."""
    seen = {center}
    frontier = [center]
    for _ in range(radius):
        frontier = [u for v in frontier for u in g.neighbors(v) if u not in seen]
        seen.update(frontier)
    return sorted(seen)


PATH_TREES = [pytest.param(d, r, None, id=f"{d}-{r}")
              for d, r in [(2, None), (3, None), (5, None), (4, 2), (4, 1), (3, 5)]]
PATH_TREES += [pytest.param(d, None, depth, id=f"{d}-cut{depth}")
               for d in (2, 3, 5) for depth in range(5)]


@pytest.mark.parametrize("d,root_degree,depth", PATH_TREES)
def test_lazy_path_queries_match_bfs_on_explicit_tree(d, root_degree, depth):
    g = lazy_regular_tree(d, root_degree=root_degree, depth=depth)
    if root_degree is None:  # the balanced tree: the cut tree's, or 4 levels of the infinite one
        explicit = build_regular_tree(d, 4 if depth is None else depth)
    else:  # no generator builds this one: take the lazy tree's radius-4 ball
        ids = set(ball(g, 0, 4))
        explicit = ExplicitGraph([[u for u in g.neighbors(v) if u in ids] for v in sorted(ids)])
    nodes = list(explicit.nodes())
    rng = random.Random(d)
    for _ in range(200):
        a, b = rng.choice(nodes), rng.choice(nodes)
        assert hop_distance(g, a, b) == hop_distance(explicit, a, b)
        assert tree_path(g, a, b) == stepwise_path(explicit, a, b)


def load_edge_list_from_edges(edges):
    n = max(max(e) for e in edges) + 1
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return ExplicitGraph(adj)


class TestTreePath:
    def test_explicit_and_lazy_agree(self):
        g = lazy_regular_tree(2)
        nodes = ball(g, 0, 5)
        explicit = ExplicitGraph(
            [[u for u in g.neighbors(v) if u in set(nodes)] for v in nodes]
        )
        for a, b in [(0, max(nodes)), (1, 2), (3, 4)]:
            assert tree_path(g, a, b) == stepwise_path(explicit, a, b)
            path = tree_path(g, a, b)
            assert path[0] == a and path[-1] == b
            assert len(path) == hop_distance(g, a, b) + 1

    @pytest.mark.parametrize("g", [build_regular_tree(3, 2), build_random_regular(50, 4, seed=1)],
                             ids=["explicit-tree", "random-regular"])
    @pytest.mark.parametrize("stop", [None, {0}])
    def test_other_graphs_rejected(self, g, stop):
        with pytest.raises(ValueError, match="^need a LazyRegularTree .*got ExplicitGraph$"):
            tree_path(g, 0, 5, stop=stop)


def prefix_to_stop(path, stop):
    for i, w in enumerate(path):
        if w in stop:
            return path[:i + 1]
    return path


class TestTreePathStop:
    @pytest.mark.parametrize("g", [lazy_regular_tree(3), lazy_regular_tree(4, root_degree=2),
                                   lazy_regular_tree(3, depth=5)],
                             ids=["lazy", "lazy-root2", "cut"])
    def test_prefix_up_to_first_stop_node(self, g):
        nodes = ball(g, 0, 5)
        rng = random.Random(11)
        for _ in range(300):
            u, v = rng.choice(nodes), rng.choice(nodes)
            full = stepwise_path(g, u, v)
            assert tree_path(g, u, v) == full
            assert tree_path(g, u, v, stop=None) == full
            assert tree_path(g, u, v, stop=set()) == full
            # A subtree holding v, as a Steiner tree build passes it.
            stop = set()
            for w in rng.sample(nodes, rng.randint(1, 3)):
                stop.update(stepwise_path(g, v, w))
            assert tree_path(g, u, v, stop=stop) == prefix_to_stop(full, stop)
            assert tree_path(g, u, v, stop={u}) == [u]
            assert tree_path(g, u, u, stop=stop) == [u]
            # On the arithmetic trees any stop set works.
            other = set(rng.sample(nodes, 5))
            assert tree_path(g, u, v, stop=other) == prefix_to_stop(full, other)

    def test_u_equals_v(self):
        for g in (lazy_regular_tree(3), lazy_regular_tree(3, depth=2)):
            assert tree_path(g, 4, 4) == [4]
            assert tree_path(g, 4, 4, stop=set()) == [4]

    @pytest.mark.parametrize("g", [lazy_regular_tree(3, depth=2), lazy_regular_tree(3)],
                             ids=["cut", "lazy"])
    @pytest.mark.parametrize("stop", [None, {0}])
    def test_unknown_end_raises(self, g, stop):
        # As hop_distance does; the cut tree ends at node 9.
        far = -1 if g.node_count == math.inf else 50
        for u, v in ((0, far), (far, 0), (far, far)):
            with pytest.raises(ValueError, match="unknown node"):
                tree_path(g, u, v, stop=stop)


class TestAdjacencyInvariants:
    @given(n=st.sampled_from([8, 10, 12]), d=st.sampled_from([2, 3, 4]), seed=st.integers(0, 50))
    @settings(max_examples=20)
    def test_generated_graphs_are_symmetric_simple(self, n, d, seed):
        if (n * d) % 2:
            n += 1
        g = build_random_regular(n, d, seed=seed)
        for v in g.nodes():
            nbrs = g.neighbors(v)
            assert v not in nbrs
            assert len(set(nbrs)) == len(nbrs)
            for u in nbrs:
                assert v in g.neighbors(u)
