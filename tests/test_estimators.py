import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
import oracles
from oracles import brute_force_posterior, build_regular_tree, enumerate_histories

from rumorlab.adversary import Observation, observe_eavesdropper, observe_spy
from rumorlab.analytics import diffusion_ft
from rumorlab.estimators import (
    InfeasibleObservationError,
    NoReportsError,
    _center_walk,
    _steiner_parents,
    ball_centrality,
    first_timestamp,
    reporting_centrality,
    rumor_centers,
    spy_first_timestamp,
)
from rumorlab.graphs import ExplicitGraph, build_random_regular, lazy_regular_tree
from rumorlab.trc import ordering_count, timestamp_rumor_centrality
from rumorlab.spreading import (
    SpreadParams,
    first_report_trial,
    simulate_diffusion,
    simulate_trickle,
    trial_stream,
)


def eavesdrop_obs(first, t=math.inf, all_reports=None):
    return Observation("eavesdropper", first_reports=first, all_reports=all_reports)


def graph_from_edges(edges):
    n = max(max(e) for e in edges) + 1
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return ExplicitGraph(adj)


class TestFirstTimestamp:
    def test_argmin(self):
        res = first_timestamp(eavesdrop_obs({10: 1, 11: 3}))
        assert res.chosen == 10
        assert res.candidates == frozenset([10])

    def test_tie_break_uniform(self):
        rng = trial_stream(0, 0)
        picks = [first_timestamp(eavesdrop_obs({4: 2, 9: 2}), rng).chosen
                 for _ in range(10_000)]
        frac = picks.count(4) / len(picks)
        assert abs(frac - 0.5) < 0.015

    def test_empty_raises(self):
        with pytest.raises(NoReportsError):
            first_timestamp(eavesdrop_obs({}))

    def test_diffusion_detection_matches_closed_form(self):
        # d=6, theta=1 in the setting the closed form solves exactly
        # (source relaying on d-2 connections): about 0.402.
        hits = 0
        trials = 4000
        params = SpreadParams("diffusion", theta=1.0)
        for i in range(trials):
            g = lazy_regular_tree(6, root_degree=4)
            res = first_report_trial(g, params, trial_stream(60, i))
            hits += res.reporters == frozenset([0])
        assert abs(hits / trials - diffusion_ft(6, 1).value) < 0.03


class TestSpyFirstTimestamp:
    def test_earliest_spy_names_infector(self):
        obs = Observation("spy", spy_times={5: 1.2, 9: 0.4}, spy_infectors={5: 2, 9: 0})
        res = spy_first_timestamp(obs)
        assert res.chosen == 0

    def test_empty_raises(self):
        obs = Observation("spy", spy_times={}, spy_infectors={})
        with pytest.raises(NoReportsError):
            spy_first_timestamp(obs)

    def test_detection_at_least_p(self):
        p, trials, hits = 0.6, 2000, 0
        params = SpreadParams("diffusion", theta=1.0, max_infections=200)
        for i in range(trials):
            rng = trial_stream(61, i)
            tr = simulate_diffusion(lazy_regular_tree(4), params, rng)
            obs = observe_spy(tr, p, tr.stop_time, rng)
            if obs.spy_times and spy_first_timestamp(obs, rng).chosen == 0:
                hits += 1
        assert hits / trials >= p - 0.03


class TestBallCentrality:
    def test_radius_zero_pins_the_reporter(self):
        g = build_regular_tree(3, 3)
        res = ball_centrality(eavesdrop_obs({0: 1, 5: 4}), g)
        assert res.candidates == frozenset([0])

    def test_line_example_two_candidates(self):
        # Line with ids 0(center), 1,2 at depth1, 3,4 depth2, 5,6 depth3.
        # Spread: source 0 infects 1 at step 1 (tap at 2), 1 taps at 2,
        # 0 infects 2 at 3, 2 taps at 4, 3 (behind 1) infected at 3, taps at 4.
        # At t=4 the ball intersection is exactly {source, first neighbor}.
        g = build_regular_tree(2, 8)
        obs = eavesdrop_obs({0: 2, 1: 2, 2: 4, 3: 4}, t=4)
        res = ball_centrality(obs, g)
        assert res.candidates == frozenset([0, 1])

    def test_infeasible_observation_raises(self):
        g = build_regular_tree(2, 8)
        # two radius-zero balls at different nodes cannot intersect
        with pytest.raises(InfeasibleObservationError):
            ball_centrality(eavesdrop_obs({1: 1, 2: 1}), g)

    def test_non_integer_timestamps_rejected(self):
        g = build_regular_tree(2, 4)
        with pytest.raises(ValueError):
            ball_centrality(eavesdrop_obs({0: 1.5}), g)

    @pytest.mark.parametrize("d", [3, 4])
    def test_source_always_in_candidates(self, d):
        params = SpreadParams("trickle", theta=1, max_time=2 * d)
        for i in range(800):
            rng = trial_stream(62 + d, i)
            g = lazy_regular_tree(d)
            tr = simulate_trickle(g, params, rng)
            obs = observe_eavesdropper(tr, 2 * d)
            res = ball_centrality(obs, g, rng)
            assert 0 in res.candidates

    @pytest.mark.parametrize("d", [3, 4])
    def test_at_most_two_once_both_chain_ends_report(self, d):
        # The source's first transmission starts a two-ended chain: each
        # endpoint's next slot either extends its side by one hop or is the
        # tap, which terminates that side.  Once both sides have terminated
        # (reported), the ball intersection holds at most two nodes.
        t = 3 * d
        params = SpreadParams("trickle", theta=1, max_time=t)

        def child_at(tr, node, step):
            for w, par in tr.parent.items():
                if par == node and tr.X[w] == step:
                    return w
            return None

        def side_terminated(tr, start, first_step):
            node, step = start, first_step
            while step <= t:
                if tr.reports.get(node, [math.inf])[0] == step:
                    return True
                node = child_at(tr, node, step)
                if node is None:
                    return False
                step = tr.X[node] + 1
            return False

        checked = 0
        for i in range(600):
            rng = trial_stream(70 + d, i)
            g = lazy_regular_tree(d)
            tr = simulate_trickle(g, params, rng)
            if tr.reports.get(0, [math.inf])[0] == 1:
                continue  # tap first: the radius-zero ball is {source}
            w = child_at(tr, 0, 1)
            left = side_terminated(tr, w, 2)
            right = side_terminated(tr, 0, 2)
            if left and right:
                obs = observe_eavesdropper(tr, t)
                res = ball_centrality(obs, g, rng)
                assert len(res.candidates) <= 2
                checked += 1
        assert checked > 50


class TestReportingCentrality:
    def figure_graph(self):
        # Source 0 with three subtrees: on the cut 3-regular tree 0's children
        # are 1, 2, 3, 1's are 4, 5, 2's are 6, 7, 3's are 8, 9 and 4's are 10,
        # 11.  The reporters below split {2, 2, 1}, Y = 5.
        return lazy_regular_tree(3, depth=3)

    def test_figure_configuration_center_is_source(self):
        obs = Observation("spy", spy_times={1: 1, 4: 2, 2: 1, 6: 2, 3: 1},
                          spy_infectors={})
        res = reporting_centrality(obs, self.figure_graph())
        assert res.candidates == frozenset([0])
        assert res.chosen == 0

    def test_all_reporters_in_one_subtree_means_miss_at_source(self):
        obs = Observation("spy", spy_times={1: 1, 4: 2, 10: 3}, spy_infectors={})
        res = reporting_centrality(obs, self.figure_graph())
        # every reporter sits in 0's subtree through 1, so 0 is not a center;
        # the unique center is inside that subtree instead
        assert 0 not in res.candidates

    def test_single_reporter_is_its_own_center(self):
        obs = Observation("spy", spy_times={4: 1}, spy_infectors={})
        res = reporting_centrality(obs, self.figure_graph())
        assert res.candidates == frozenset([4])

    def test_two_reporters_miss(self):
        obs = Observation("spy", spy_times={4: 1, 6: 2}, spy_infectors={})
        res = reporting_centrality(obs, self.figure_graph())
        assert res.chosen is None
        assert res.candidates == frozenset()

    def test_no_reporters_raises(self):
        obs = Observation("spy", spy_times={}, spy_infectors={})
        with pytest.raises(NoReportsError):
            reporting_centrality(obs, self.figure_graph())

    def test_at_most_one_center_on_random_diffusion(self):
        params = SpreadParams("diffusion", theta=1.0, max_infections=150)
        for i in range(1500):
            rng = trial_stream(64, i)
            g = lazy_regular_tree(4)
            tr = simulate_diffusion(g, params, rng)
            obs = observe_eavesdropper(tr, tr.stop_time)
            if not obs.first_reports:
                continue
            res = reporting_centrality(obs, g, rng=rng)
            assert len(res.candidates) <= 1


class TestRumorCenters:
    def test_single_node(self):
        g = lazy_regular_tree(3, depth=2)
        assert rumor_centers(g, {4}) == {4}

    def test_path_of_four_has_two_middle_centers(self):
        # The 2-regular tree is the line ... 3 - 1 - 0 - 2 - 4 ...
        g = lazy_regular_tree(2)
        assert rumor_centers(g, {3, 1, 0, 2}) == {0, 1}

    def test_star_center(self):
        g = lazy_regular_tree(5, depth=1)
        assert rumor_centers(g, set(range(6))) == {0}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rumor_centers(lazy_regular_tree(3, depth=1), set())

    def test_non_tree_rejected(self):
        g = graph_from_edges([(0, 1), (1, 2), (2, 0)])
        with pytest.raises(ValueError, match="^need a LazyRegularTree .*got ExplicitGraph$"):
            rumor_centers(g, {0, 1, 2})

    @given(seed=st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_one_or_two_centers_on_infected_subtrees(self, seed):
        g = lazy_regular_tree(3)
        tr = simulate_diffusion(g, SpreadParams("diffusion", theta=1.0, max_infections=40),
                                trial_stream(seed, 0))
        centers = rumor_centers(g, set(tr.X))
        assert 1 <= len(centers) <= 2


def prufer_tree(seq):
    """The labelled tree on len(seq) + 2 nodes with Pruefer sequence seq."""
    n = len(seq) + 2
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    adj = [[] for _ in range(n)]
    for x in seq:
        leaf = degree.index(1)
        adj[leaf].append(x)
        adj[x].append(leaf)
        degree[leaf] -= 1
        degree[x] -= 1
    u = degree.index(1)
    v = degree.index(1, u + 1)
    adj[u].append(v)
    adj[v].append(u)
    return ExplicitGraph(adj)


def tree_cases():
    """(graph, nodes to draw terminals from): the infinite and the cut tree,
    then random labelled trees, which only the oracles and _center_walk
    take."""
    for d, radius in ((3, 6), (4, 5), (5, 4)):
        g = lazy_regular_tree(d)
        yield g, sorted(_ball_nodes(g, radius))
    for d, depth in ((3, 6), (4, 4)):
        g = lazy_regular_tree(d, depth=depth)
        yield g, list(g.nodes())
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 60)
        g = prufer_tree([rng.randrange(n) for _ in range(n - 2)])
        yield g, list(g.nodes())


def rooted(adj):
    """The oracle's Steiner tree as {node: parent}, rooted at its first node
    and listing every parent before its children, as _center_walk reads it."""
    root = next(iter(adj))
    parent = {root: None}
    order = [root]
    for v in order:
        for u in sorted(adj[v]):
            if u not in parent:
                parent[u] = v
                order.append(u)
    return parent


def _ball_nodes(g, radius):
    seen = frontier = {0}
    for _ in range(radius):
        frontier = {u for v in frontier for u in g.neighbors(v)} - seen
        seen = seen | frontier
    return seen


class TestTreeCenters:
    """The rooted Steiner build and the center walk against the whole-path
    Steiner tree and the every-side center tests of tests/oracles.py.  On the
    labelled trees the walk runs alone, fed from the oracle's Steiner tree."""

    def terminal_sets(self, nodes, rng, count=40):
        for _ in range(count):
            yield set(rng.sample(nodes, rng.randint(1, min(25, len(nodes)))))

    def test_steiner_tree_matches_whole_paths(self):
        rng = random.Random(1)
        for g, nodes in tree_cases():
            if isinstance(g, ExplicitGraph):
                break  # the labelled trees come last
            for terminals in self.terminal_sets(nodes, rng):
                parent = _steiner_parents(g, terminals)
                adj = oracles.steiner_tree(g, terminals)
                assert set(parent) == set(adj)
                edges = {frozenset(e) for e in parent.items() if e[1] is not None}
                assert edges == {frozenset((a, b)) for a in adj for b in adj[a]}
                position = {v: i for i, v in enumerate(parent)}
                assert all(p is None or position[p] < position[v] for v, p in parent.items())

    def test_reporting_centrality_matches_strict_half_test(self):
        rng = random.Random(2)
        misses = 0
        for g, nodes in tree_cases():
            for terminals in self.terminal_sets(nodes, rng):
                adj = oracles.steiner_tree(g, terminals)
                want = oracles.reporting_centers(adj, dict.fromkeys(terminals, 1))
                if isinstance(g, ExplicitGraph):
                    center, up, half = _center_walk(rooted(adj), terminals)
                    assert ({center} if up < half else set()) == want
                else:
                    obs = Observation("spy", spy_times=dict.fromkeys(terminals, 1.0),
                                      spy_infectors={})
                    res = reporting_centrality(obs, g)
                    assert res.candidates == frozenset(want)
                    assert res.chosen == (min(want) if want else None)
                misses += not want
        assert misses > 20  # the exact-half splits that make a miss are covered

    def test_rumor_centers_match_half_or_less_test(self):
        rng = random.Random(3)
        pairs = 0
        for g, nodes in tree_cases():
            for terminals in self.terminal_sets(nodes, rng):
                adj = oracles.steiner_tree(g, terminals)
                infected = set(adj)
                if isinstance(g, ExplicitGraph):
                    # The infected set is connected: its Steiner tree is adj.
                    parent = rooted(adj)
                    center, up, half = _center_walk(parent, infected)
                    centers = {center, parent[center]} if up == half else {center}
                else:
                    centers = rumor_centers(g, infected)
                assert centers == oracles.rumor_centers(g, infected)
                pairs += len(centers) == 2
        assert pairs > 20

    @pytest.mark.parametrize("g, message", [
        (lazy_regular_tree(3), "not a tree"),
        (lazy_regular_tree(3, depth=3), "not a tree"),
        (build_regular_tree(3, 3), "^need a LazyRegularTree .*got ExplicitGraph$"),
    ], ids=["lazy", "cut", "explicit"])
    def test_disconnected_infected_set_rejected(self, g, message):
        with pytest.raises(ValueError, match=message):
            rumor_centers(g, {0, 7})


TREE_CALLS = {
    "reporting_centrality": lambda g: reporting_centrality(
        Observation("spy", spy_times={0: 1.0, 5: 2.0, 30: 2.5}, spy_infectors={}), g),
    "rumor_centers": lambda g: rumor_centers(g, {0, *g.neighbors(0)}),
    "timestamp_rumor_centrality": lambda g: timestamp_rumor_centrality(
        Observation("eavesdropper", first_reports={0: 1}, all_reports={0: (1,)}), g, 5),
    "ordering_count": lambda g: ordering_count(g, 0, {0: (1,)}, 5),
}


@pytest.mark.parametrize("call", TREE_CALLS)
@pytest.mark.parametrize("graph", [
    lambda: build_regular_tree(4, 4),
    lambda: build_random_regular(50, 4, seed=1),
], ids=["explicit-tree", "random-regular"])
def test_tree_estimators_reject_other_graphs(call, graph):
    # Each of them used to answer on any graph, with no meaning off the
    # arithmetic tree: on this random-regular graph, which has cycles,
    # reporting centrality named node 28 for these three spies.  tree_path's
    # cases are in test_graphs.py.
    with pytest.raises(ValueError, match="^need a LazyRegularTree .*got ExplicitGraph$"):
        TREE_CALLS[call](graph())


@pytest.mark.parametrize("call", [
    lambda g: rumor_centers(g, {0, 1, 4, 10}),
    lambda g: reporting_centrality(
        Observation("spy", spy_times={0: 1.0, 4: 2.0, 10: 3.0, 11: 3.0}, spy_infectors={}), g),
], ids=["rumor_centers", "reporting_centrality"])
def test_tree_estimators_reject_ids_past_the_cut(call):
    # The cut tree's nodes are 0-9.  Terminals used to attach by arithmetic
    # parent id: rumor centers answered {1, 4} and reporting centrality 4.
    with pytest.raises(ValueError, match="^unknown node"):
        call(lazy_regular_tree(3, depth=2))


class TestBruteForcePosterior:
    def test_total_probability_per_source(self):
        g = build_regular_tree(2, 5)
        hist = enumerate_histories(g, 0, theta=1, t=3)
        assert sum((sum(v, Fraction(0)) for v in hist.values()), Fraction(0)) == 1

    def test_impossible_observation_is_all_zero(self):
        g = build_regular_tree(2, 5)
        obs = eavesdrop_obs({3: 1, 4: 1}, t=3)  # two radius-zero balls apart
        post = brute_force_posterior(g, SpreadParams("trickle", theta=1), obs, 3,
                                     candidates=[0, 1, 2])
        assert all(p == 0 for p in post.values())

    def test_probabilities_in_unit_interval(self):
        g = build_regular_tree(2, 5)
        obs = eavesdrop_obs({0: 1}, t=3)
        post = brute_force_posterior(g, SpreadParams("trickle", theta=1), obs, 3)
        assert all(0 <= p <= 1 for p in post.values())
        assert post[0] > 0

    def test_diffusion_rejected(self):
        g = build_regular_tree(2, 3)
        with pytest.raises(ValueError):
            brute_force_posterior(g, SpreadParams("diffusion", theta=1.0),
                                  eavesdrop_obs({0: 1}), 3)
