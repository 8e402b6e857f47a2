"""Timestamp rumor centrality against the exact enumeration oracle."""

import math
import random
from fractions import Fraction

import pytest

from rumorlab.adversary import Observation, observe_eavesdropper
from rumorlab.estimators import InfeasibleObservationError
from rumorlab.graphs import hop_distance, lazy_regular_tree, tree_path
from rumorlab.spreading import SpreadParams, simulate_trickle, trial_stream
from rumorlab import trc
from rumorlab.trc import ordering_count, timestamp_rumor_centrality

from oracles import (
    build_regular_tree,
    enumerate_histories,
    observation_atlas,
    reference_assign,
    reference_ordering_count,
)


def obs_from_key(key, t):
    all_reports = {v: tuple(times) for v, times in key}
    first = {v: min(times) for v, times in key}
    return Observation("eavesdropper", first_reports=first, all_reports=all_reports)


def falling(n, r):
    out = 1
    for i in range(r):
        out *= n - i
    return out


def check_counts_match_oracle(d, depth, sources, theta, t, enum_cache=None):
    """For every observation reachable from ``sources`` on the d-regular tree
    cut at ``depth``: ordering_count on the cut tree equals the oracle's
    history count on the explicit balanced tree, candidate by candidate.

    The oracle's theta taps are distinguishable connections, so it multiplies
    every distinct execution by falling(theta, observed taps) per node -- a
    factor fixed by the observation alone, applied to both sides here.
    """
    g, cut = build_regular_tree(d, depth), lazy_regular_tree(d, depth=depth)
    atlas = observation_atlas(g, sources, theta, t)
    cache = enum_cache if enum_cache is not None else {}

    def histories(src):
        if src not in cache:
            cache[src] = enumerate_histories(g, src, theta, t)
        return cache[src]

    assert atlas
    for key, _ in atlas.items():
        reports = {v: tuple(times) for v, times in key}
        tap_orderings = 1
        for _, times in key:
            tap_orderings *= falling(theta, len(times))
        candidates = sorted(v for v, times in key if min(times) <= t)
        for c in candidates:
            count = ordering_count(cut, c, reports, t, theta)
            assert count * tap_orderings == len(histories(c).get(key, [])), (key, c)
    return atlas


class TestOrderingCountExactness:
    def test_matches_oracle_on_the_line(self):
        check_counts_match_oracle(2, 8, [0, 1, 2], theta=1, t=3)

    def test_matches_oracle_with_two_taps(self):
        # General-theta extension is validated only against the oracle.
        check_counts_match_oracle(2, 8, [0, 1], theta=2, t=3)

    def test_matches_oracle_on_a_leafy_path(self):
        # The cut tree counts leaf slots exactly (a leaf has only its tap):
        # a 5-node path, leaves at depth 2.
        check_counts_match_oracle(2, 2, list(range(5)), theta=1, t=3)

    def test_matches_oracle_on_degree_three(self):
        atlas = check_counts_match_oracle(3, 6, [0], theta=1, t=4)
        # Exhaustively: the true source lies in every ball intersection.
        from rumorlab.estimators import ball_centrality

        g = lazy_regular_tree(3, depth=6)
        for key in atlas:
            obs = obs_from_key(key, 4)
            assert 0 in ball_centrality(obs, g).candidates


class TestEstimator:
    def test_radius_zero_report_pins_candidate(self):
        g = lazy_regular_tree(2)
        obs = Observation("eavesdropper", first_reports={0: 1},
                          all_reports={0: (1,)})
        res = timestamp_rumor_centrality(obs, g, 3)
        assert res.candidates == frozenset([0])

    def test_runs_on_simulated_traces(self):
        params = SpreadParams("trickle", theta=1, max_time=5)
        hits = 0
        for i in range(200):
            rng = trial_stream(90, i)
            g = lazy_regular_tree(4)
            tr = simulate_trickle(g, params, rng)
            obs = observe_eavesdropper(tr, 5, keep_all=True)
            res = timestamp_rumor_centrality(obs, g, 5, rng)
            assert res.score[res.chosen] > 0
            assert all(tau <= 5 for tau in obs.first_reports.values())
            hits += res.chosen == 0
        assert hits / 200 > 0.5

    def test_true_source_always_has_positive_count(self):
        params = SpreadParams("trickle", theta=2, max_time=6)
        for i in range(150):
            rng = trial_stream(91, i)
            g = lazy_regular_tree(3)
            tr = simulate_trickle(g, params, rng)
            obs = observe_eavesdropper(tr, 6, keep_all=True)
            res = timestamp_rumor_centrality(obs, g, 6, rng, theta=2)
            assert res.score.get(0, 0) > 0

    def test_estimation_time_too_small_rejected(self):
        g = lazy_regular_tree(4)
        obs = Observation("eavesdropper", first_reports={0: 1},
                          all_reports={0: (1,)})
        with pytest.raises(ValueError, match="t >= d"):
            timestamp_rumor_centrality(obs, g, 4)

    def test_keep_all_required(self):
        g = lazy_regular_tree(2)
        obs = Observation("eavesdropper", first_reports={0: 1})
        with pytest.raises(ValueError, match="keep_all"):
            timestamp_rumor_centrality(obs, g, 3)

    def test_high_degree_counts_without_a_flag(self):
        # The d <= 6 guardrail is the spec's (test_harness); the library
        # counts at any degree.
        g = lazy_regular_tree(8)
        obs = Observation("eavesdropper", first_reports={0: 1},
                          all_reports={0: (1,)})
        res = timestamp_rumor_centrality(obs, g, 9)
        assert res.candidates == {0}
        assert res.score[0] == ordering_count(g, 0, {0: (1,)}, 9) > 0

    def test_modified_root_rejected(self):
        g = lazy_regular_tree(4, root_degree=2)
        obs = Observation("eavesdropper", first_reports={0: 1},
                          all_reports={0: (1,)})
        with pytest.raises(ValueError, match="unmodified"):
            timestamp_rumor_centrality(obs, g, 5)

    @pytest.mark.parametrize("times,message", [
        ((9,), "past estimation time at node 1"),
        ((-3,), "before step 1 or past estimation time at node 1"),
        ((0,), "before step 1 or past estimation time at node 1"),
        ((2, 3, 4), "node 1 shows 3 taps but theta=1"),
        ((2.5,), "non-integer trickle report times at node 1"),
    ])
    def test_ordering_count_checks_reports_as_the_estimator_does(self, times, message):
        g = lazy_regular_tree(3)
        obs = Observation("eavesdropper", first_reports={1: min(times)},
                          all_reports={1: times})
        for count in (lambda: ordering_count(g, 0, {1: times}, 6),
                      lambda: timestamp_rumor_centrality(obs, g, 6)):
            with pytest.raises(ValueError, match=message):
                count()

    def test_tap_at_the_source_infection_time_rejected(self):
        # A tap takes a slot, and the first slot is step 1, even at the root.
        with pytest.raises(ValueError, match="before step 1 .* at node 0"):
            ordering_count(lazy_regular_tree(3), 0, {0: (0,)}, 6)

    def test_ordering_count_sorts_reports_and_drops_empty_ones(self):
        g = lazy_regular_tree(3)
        for _, reports, _ in simulated_observations(lambda: g, 3, 2, 6, 93, 5):
            shuffled = {v: tuple(reversed(times)) for v, times in reports.items()}
            shuffled[10**6] = ()
            assert ordering_count(g, 0, shuffled, 6, 2) == ordering_count(g, 0, reports, 6, 2) > 0

    def test_ordering_count_far_from_every_report(self):
        # The descent from the root is as deep as the skeleton, and no
        # reporter lies farther than t hops from a root with a count.
        g = lazy_regular_tree(2)
        assert ordering_count(g, 0, {4000: (5,)}, 6) == 0
        assert ordering_count(g, 4000, {0: (5,)}, 6) == 0

    def test_counts_from_all_reports_alone(self):
        # Candidates and the ball prefilter's taus come from the checked
        # all_reports, so first_reports is never read.
        g = lazy_regular_tree(3)
        stray = Observation("eavesdropper", first_reports={5: 1}, all_reports={3: (2,)})
        with pytest.raises(InfeasibleObservationError):
            timestamp_rumor_centrality(stray, g, 5)
        for _, reports, obs in simulated_observations(lambda: g, 3, 1, 5, 94, 5):
            stray = Observation("eavesdropper", first_reports={5: 1}, all_reports=reports)
            assert (timestamp_rumor_centrality(stray, g, 5).score
                    == timestamp_rumor_centrality(obs, g, 5).score)

    def test_corrupt_observation_raises(self):
        g = lazy_regular_tree(2)
        obs = Observation("eavesdropper", first_reports={1: 1, 2: 1},
                          all_reports={1: (1,), 2: (1,)})
        with pytest.raises(InfeasibleObservationError):
            timestamp_rumor_centrality(obs, g, 4)


def simulated_observations(g_factory, d, theta, t, seed, n):
    """(graph, reports, observation) of n simulated trickle trials."""
    params = SpreadParams("trickle", theta=theta, max_time=t)
    for i in range(n):
        g = g_factory()
        tr = simulate_trickle(g, params, trial_stream(seed, i))
        obs = observe_eavesdropper(tr, t, keep_all=True)
        if obs.first_reports:
            yield g, {v: tuple(sorted(times)) for v, times in obs.all_reports.items()}, obs


def candidates_of(obs, d, theta):
    return [v for v, tau in obs.first_reports.items() if tau <= d + theta]


def map_onto_balanced(lazy, root, nodes, balanced):
    """Image of each of ``nodes`` in the balanced tree with the lazy tree's
    ``root`` at node 0: a node maps to the node reached by the same sequence
    of child indices (children in neighbor order, minus the parent)."""
    image = {}
    for w in nodes:
        e, e_parent, prev = 0, None, None
        path = tree_path(lazy, root, w)
        for a, b in zip(path, path[1:]):
            index = [x for x in lazy.neighbors(a) if x != prev].index(b)
            e, e_parent = [x for x in balanced.neighbors(e) if x != e_parent][index], e
            prev = a
        image[w] = e
    return image


class TestFastPathAgainstCutTree:
    """The infinite tree counts every unobserved subtree by infection time
    alone; the cut tree counts each one from its real children, the path
    the brute-force oracle tests verify.  A balanced tree with no leaf within
    t hops of the root candidate looks like the infinite tree to every
    execution, so the two counts must agree.  Each candidate is mapped to the
    balanced tree's root, which keeps the trees small (rooted at the source,
    they would need depth up to 2t)."""

    @pytest.mark.parametrize("d,theta", [(3, 1), (3, 2), (4, 1), (4, 2)])
    def test_infinite_counts_equal_cut_counts(self, d, theta):
        t = d + theta
        compared = positive = 0
        trees = {}
        for g, reports, obs in simulated_observations(lambda: lazy_regular_tree(d),
                                                      d, theta, t, 96 + d, 25):
            for c in candidates_of(obs, d, theta):
                depth = max([t + 1] + [hop_distance(g, c, w) for w in reports])
                if depth not in trees:
                    trees[depth] = lazy_regular_tree(d, depth=depth)
                cut = trees[depth]
                image = map_onto_balanced(g, c, reports, cut)
                mapped = {image[w]: times for w, times in reports.items()}
                count = ordering_count(g, c, reports, t, theta)
                assert ordering_count(cut, 0, mapped, t, theta) == count, (c, reports)
                compared += 1
                positive += count > 0
        assert positive >= 25 and compared > positive


class TestOneSkeletonPerCall:
    @pytest.mark.parametrize("graph", ["lazy", "cut"])
    def test_tree_path_calls_at_most_reporters_minus_one(self, monkeypatch, graph):
        # The reporters' Steiner tree is built once per call, one path per
        # reporter past the first, whatever the number of candidates.  The
        # counter patches the module-level name that the benchmark tracer
        # patches too.
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return tree_path(*args, **kwargs)

        monkeypatch.setattr(trc, "tree_path", counting)
        d, theta, t = 4, 1, 6
        tree = lazy_regular_tree(d) if graph == "lazy" else lazy_regular_tree(d, depth=4)
        several = 0
        for g, reports, obs in simulated_observations(lambda: tree, d, theta, t, 61, 40):
            calls.clear()
            timestamp_rumor_centrality(obs, g, t, theta=theta)
            assert len(calls) <= len(reports) - 1
            several += len(candidates_of(obs, d, theta)) > 1 and len(calls) > 0
        assert several >= 10


class TestSharedTables:
    @pytest.mark.parametrize("d,theta,graph", [
        (3, 1, "lazy"), (4, 2, "lazy"), (5, 1, "lazy"), (3, 2, "cut"), (4, 1, "cut"),
    ])
    def test_scores_equal_separate_counts(self, d, theta, graph):
        # One estimator call shares its tables across candidates; each score
        # must still equal a count made with tables of its own.
        t = d + theta
        tree = lazy_regular_tree(d) if graph == "lazy" else lazy_regular_tree(d, depth=4)
        checked = 0
        for g, reports, obs in simulated_observations(lambda: tree, d, theta, t, 97 + d, 30):
            res = timestamp_rumor_centrality(obs, g, t, theta=theta)
            for v in candidates_of(obs, d, theta):
                if all(hop_distance(g, v, w) <= tau - 1 for w, tau in obs.first_reports.items()):
                    assert res.score[v] == ordering_count(g, v, reports, t, theta), v
                    checked += 1
                else:
                    assert res.score[v] == 0
        assert checked >= 30


class TestCutTree:
    """The balanced tree is the infinite tree cut at a depth.  Both it and the
    explicit balanced tree list neighbors in the same order, so one stream
    gives one spread on both, and every TRC score on the cut tree must equal
    the reference count on the explicit tree when the spread reaches the
    leaves, whether they report or stay unobserved subtrees."""

    @pytest.mark.parametrize("d,theta,depth,t", [
        (3, 1, 3, 6), (3, 2, 3, 6), (2, 1, 4, 6), (4, 1, 2, 5), (4, 1, 4, 5), (3, 1, 4, 4),
    ])
    def test_scores_equal_explicit_tree_scores(self, d, theta, depth, t):
        cut, explicit = lazy_regular_tree(d, depth=depth), build_regular_tree(d, depth)
        leaves = range(explicit.node_count - d * (d - 1) ** (depth - 1), explicit.node_count)
        params = SpreadParams("trickle", theta=theta, max_time=t)
        compared = reached = 0
        for i in range(100):
            tr = simulate_trickle(cut, params, trial_stream(700 + d, i))
            assert tr == simulate_trickle(explicit, params, trial_stream(700 + d, i))
            obs = observe_eavesdropper(tr, t, keep_all=True)
            if not obs.first_reports:
                continue
            ours = timestamp_rumor_centrality(obs, cut, t, theta=theta)
            reports = {v: tuple(sorted(times)) for v, times in obs.all_reports.items()}
            ref = {v: reference_ordering_count(explicit, v, reports, t, theta) for v in ours.score}
            best = max(ref.values())
            assert ours.score == ref, i
            assert ours.candidates == {v for v, score in ref.items() if score == best}, i
            compared += 1
            reached += any(v in leaves for v in tr.X)
        assert compared >= 30 and reached >= 10


class CountingMemo(dict):
    """A memo that records every key stored in it, in order."""

    def __init__(self):
        super().__init__()
        self.stored = []

    def __setitem__(self, key, value):
        self.stored.append(key)
        super().__setitem__(key, value)

    def shapes(self):
        # An unobserved-subtree row is stored under (setting, shape).
        return [key[1] for key in self.stored if len(key) == 2]


class TestUnobservedRowsByShape:
    def test_one_row_per_shape(self):
        # With an unmodified root, every unobserved subtree of the cut tree
        # entered from the same side at the same depth is the same tree, so
        # its row is keyed by (side, depth): 2 * (depth + 1) shapes.  Each is
        # built once per memo, exact at every time, whether the memo serves
        # one call or all of them.
        depth, t, theta = 6, 6, 1
        g = lazy_regular_tree(3, depth=depth)
        shared = CountingMemo()
        calls = 0
        for _, _, obs in simulated_observations(lambda: g, 3, theta, t, 77, 60):
            own = CountingMemo()
            timestamp_rumor_centrality(obs, g, t, theta=theta, memo=own)
            timestamp_rumor_centrality(obs, g, t, theta=theta, memo=shared)
            for memo in (own, shared):
                shapes = memo.shapes()
                assert len(shapes) == len(set(shapes)) <= 2 * (depth + 1), obs.all_reports
            calls += len(own.shapes()) > 0
        assert calls >= 30

    def test_infinite_tree_builds_one_row(self):
        g, memo = lazy_regular_tree(4), CountingMemo()
        for _, _, obs in simulated_observations(lambda: g, 4, 1, 6, 78, 30):
            timestamp_rumor_centrality(obs, g, 6, memo=memo)
        assert memo.shapes() == [()]


class TestCutTreeTablesByShape:
    def test_equal_shapes_at_other_edges_share_tables(self):
        # A parent at depth 2 taps at 2 and its child at 3, under two
        # different depth-2 nodes.  The tables name their fresh children by
        # shape, not by node, so the second observation finds every table
        # (and every unobserved-subtree row) in the memo.
        g, memo = lazy_regular_tree(3, depth=6), CountingMemo()
        scores = []
        for p, kid in [(p, g.neighbors(p)[1]) for p in g.neighbors(1)[1:]]:
            obs = Observation("eavesdropper", first_reports={p: 2, kid: 3},
                              all_reports={p: (2,), kid: (3,)})
            before = len(memo)
            res = timestamp_rumor_centrality(obs, g, 4, memo=memo)
            assert res.score == timestamp_rumor_centrality(obs, g, 4).score
            scores.append((res.score[p], res.score[kid]))
        assert len(memo) == before > 0
        assert scores[0] == scores[1] and scores[0][0] > 0


class TestSweepAgainstReference:
    """The per-end sweep against the reference that counts every infection
    time with a dynamic program of its own."""

    @pytest.mark.parametrize("d,theta,extra", [
        (d, theta, extra) for d in (3, 4, 5, 6) for theta in (1, 2) for extra in (0, 1)
    ])
    def test_lazy_scores_equal_reference_counts(self, d, theta, extra):
        # extra = 1 gives windows that end before t, one sweep per end.
        t = d + theta + extra
        g = lazy_regular_tree(d)
        checked = positive = 0
        for _, reports, obs in simulated_observations(lambda: g, d, theta, t,
                                                      400 + 10 * d + theta, 25 if d < 6 else 12):
            res = timestamp_rumor_centrality(obs, g, t, theta=theta)
            for v, score in res.score.items():
                assert score == reference_ordering_count(g, v, reports, t, theta), (v, reports)
                checked += 1
                positive += score > 0
        assert positive >= 5 and checked > positive

    @pytest.mark.parametrize("d,depth,theta,extra", [
        (2, 2, 1, 0), (2, 3, 2, 1), (3, 2, 1, 0), (3, 3, 1, 1), (3, 3, 2, 0), (4, 2, 1, 0), (4, 2, 1, 1),
    ])
    def test_balanced_scores_equal_reference_counts(self, d, depth, theta, extra):
        # The package on the cut tree, the reference on the explicit one.
        t = d + theta + extra
        g, explicit = lazy_regular_tree(d, depth=depth), build_regular_tree(d, depth)
        leaves = range(g.first_leaf, g.node_count)
        checked = reached = 0
        for _, reports, obs in simulated_observations(lambda: g, d, theta, t, 500 + d, 30):
            res = timestamp_rumor_centrality(obs, g, t, theta=theta)
            for v, score in res.score.items():
                assert score == reference_ordering_count(explicit, v, reports, t, theta), (
                    v, reports)
                checked += 1
            reached += any(v in leaves for v in reports)
        assert checked >= 30 and reached >= 5

    def test_sweep_equals_one_program_per_window_on_random_classes(self):
        # Random classes, taps and time ranges, with and without skeleton
        # children, one class alone included: every x's count is the forward
        # program's over slots x+1 .. e less the taps, and no other entry moves.
        rng = random.Random(17)
        shapes = set()
        for _ in range(3000):
            e = rng.randint(1, 9)
            start = rng.randint(0, e)
            xs = range(start, rng.randint(start + 1, e + 1))
            n_skel = rng.choice([0, 0, 1, 2, 3])
            n_fresh = rng.choice([0, 1, 1, 2, 3]) if n_skel else rng.choice([1, 1, 2, 3])
            classes = [(1 if j < n_skel else rng.randint(1, 4),
                        [rng.choice([0, 0, 1, 2, 3]) for _ in range(e + 1)])
                       for j in range(n_skel + n_fresh)]
            taps = tuple(sorted(rng.sample(range(start + 1, e + 1), rng.randint(0, min(2, e - start)))))
            out = [-1] * (e + 1)
            for x in xs:
                out[x] = 0
            trc._sweep(classes, n_skel, taps, e, xs, out)
            for x in range(e + 1):
                if x not in xs:
                    assert out[x] == -1
                    continue
                slots = [y for y in range(x + 1, e + 1) if y not in taps]
                want = reference_assign([(m, [row[y] for y in slots]) for m, row in classes],
                                        len(slots), n_skel)
                assert out[x] == want, (classes, n_skel, taps, e, xs, x)
                shapes.add((n_skel > 0, len(classes) - n_skel > 1, want > 0))
        assert len(shapes) == 8


SHARED_MEMO_SETTINGS = [
    ("tree", d, theta, d + theta + extra)
    for d in (3, 4, 6) for theta in (1, 2) for extra in (0, 1)
] + [("cut", 3, 1, 6)]


def memo_tree(kind, d):
    return lazy_regular_tree(d) if kind == "tree" else lazy_regular_tree(d, depth=3)


class TestSharedMemo:
    """The harness passes one memo to every TRC call of a block, so a table
    computed for one trial is reused by later ones.  Every score map through
    a memo that earlier observations filled must equal a fresh call's.  A key
    without the root flag or without the taps fails on the infinite tree
    (d = 3 and 4, theta = 1, at both t); one without the setting fails across
    settings, and one without the cut tree's fresh-child shapes fails
    there."""

    def check_through_shared_memo(self, settings, n, memo):
        """Interleaves n simulated observations of each setting through memo;
        returns (observations, tables the fresh calls computed)."""
        streams = [simulated_observations(lambda k=kind, d=d: memo_tree(k, d), d, theta, t,
                                          500 + 10 * d + theta + t, n)
                   for kind, d, theta, t in settings]
        seen = fresh_tables = 0
        for batch in zip(*streams):
            for (kind, d, theta, t), (g, _, obs) in zip(settings, batch):
                fresh = {}
                expected = timestamp_rumor_centrality(obs, g, t, theta=theta, memo=fresh).score
                assert timestamp_rumor_centrality(obs, g, t, theta=theta, memo=memo).score \
                    == expected, (kind, d, theta, t, obs.all_reports)
                seen += 1
                fresh_tables += len(fresh)
        return seen, fresh_tables

    @pytest.mark.parametrize("kind,d,theta,t", SHARED_MEMO_SETTINGS)
    def test_scores_equal_fresh_calls(self, kind, d, theta, t):
        memo = {}
        seen, fresh_tables = self.check_through_shared_memo([(kind, d, theta, t)], 500, memo)
        assert seen == 500
        # The memo is worth sharing: most tables are repeats.
        assert len(memo) < fresh_tables / 2

    def test_one_memo_across_settings(self):
        # Rows of different settings (t, theta, d, a cut) meet in one memo.
        settings = [("tree", 3, 1, 4), ("tree", 3, 1, 5), ("tree", 3, 2, 5),
                    ("tree", 4, 1, 5), ("cut", 3, 1, 6), ("cut", 3, 1, 5)]
        seen, _ = self.check_through_shared_memo(settings, 200, {})
        assert seen == 1200
