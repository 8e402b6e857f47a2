import math
from math import comb

import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    build_regular_tree,
    heap_first_report_diffusion,
    heap_simulate_diffusion,
    loop_first_report_trickle,
    shuffle_first_report_trickle,
)

from rumorlab.adversary import observe_eavesdropper
from rumorlab.graphs import build_random_regular, lazy_regular_tree
from rumorlab.spreading import (
    FirstReport,
    SpreadParams,
    first_report_trial,
    simulate_diffusion,
    simulate_trickle,
    trace_to_csv,
    trial_stream,
)


def test_params_validation():
    with pytest.raises(ValueError):
        SpreadParams("carrier-pigeon")
    with pytest.raises(ValueError):
        SpreadParams("trickle", theta=0)
    with pytest.raises(ValueError):
        SpreadParams("trickle", theta=1.5)
    with pytest.raises(ValueError):
        SpreadParams("diffusion", theta=0.0)
    with pytest.raises(ValueError):
        SpreadParams("diffusion", theta=math.nan)
    # diffusion accepts a real report rate
    SpreadParams("diffusion", theta=0.25)


def test_protocol_tag_enforced():
    p = SpreadParams("diffusion", theta=1.0)
    with pytest.raises(ValueError):
        simulate_trickle(lazy_regular_tree(3), p, trial_stream(0, 0))
    with pytest.raises(ValueError):
        simulate_diffusion(lazy_regular_tree(3), SpreadParams("trickle"), trial_stream(0, 0))


def record_neighbor_calls(g):
    """Patch g.neighbors to append each node it is asked for to the list
    returned."""
    calls = []
    neighbors = g.neighbors

    def counting(v):
        calls.append(v)
        return neighbors(v)

    g.neighbors = counting
    return calls


class TestTrickle:
    def test_source_at_time_zero_and_unique_infections(self):
        g = lazy_regular_tree(3)
        tr = simulate_trickle(g, SpreadParams("trickle", theta=1, max_time=6),
                              trial_stream(1, 0))
        assert tr.X[0] == 0
        assert list(tr.X)[0] == 0
        assert list(tr.parent) == list(tr.X)

    def test_zero_horizon_keeps_only_source(self):
        tr = simulate_trickle(lazy_regular_tree(3),
                              SpreadParams("trickle", theta=1, max_time=0),
                              trial_stream(1, 1))
        assert tr.X == {0: 0}
        assert tr.reports == {}
        assert tr.stop_time == 0

    def test_max_infections_one(self):
        tr = simulate_trickle(lazy_regular_tree(3),
                              SpreadParams("trickle", theta=1, max_infections=1),
                              trial_stream(1, 2))
        assert tr.X == {0: 0}
        assert tr.stop_time == 0

    def test_infection_budget_finishes_the_step_of_the_kth_infection(self):
        # Steps are synchronous: the step of the K-th infection runs to its
        # end, so the nodes it infects after the K-th are kept, at stop_time.
        g, k = lazy_regular_tree(4), 5
        params = SpreadParams("trickle", theta=1, max_infections=k)
        sizes = set()
        for i in range(500):
            tr = simulate_trickle(g, params, trial_stream(60, i))
            times = list(tr.X.values())
            assert len(times) >= k
            assert all(x == tr.stop_time == times[k - 1] for x in times[k - 1:])
            sizes.add(len(times))
        assert min(sizes) == k < max(sizes)

    def test_source_first_report_probability(self):
        # First slot is one of theta taps among d + theta connections.
        d, theta, trials = 4, 1, 100_000
        hits = 0
        params = SpreadParams("trickle", theta=theta, max_time=1)
        for i in range(trials):
            tr = simulate_trickle(lazy_regular_tree(d), params, trial_stream(42, i))
            hits += 0 in tr.reports and tr.reports[0][0] == 1
        assert abs(hits / trials - theta / (theta + d)) < 0.004

    def test_source_report_time_distribution(self):
        # P(tau_0 = i) = C(N - i, theta - 1) / C(N, theta), N = d + theta.
        d, theta, trials = 3, 2, 40_000
        N = d + theta
        counts = {}
        params = SpreadParams("trickle", theta=theta, max_time=d + 1)
        for i in range(trials):
            tr = simulate_trickle(lazy_regular_tree(d), params, trial_stream(7, i))
            tau0 = tr.reports[0][0]
            counts[tau0] = counts.get(tau0, 0) + 1
        for i in range(1, d + 2):
            expect = comb(N - i, theta - 1) / comb(N, theta)
            se = math.sqrt(expect * (1 - expect) / trials)
            assert abs(counts.get(i, 0) / trials - expect) < 3 * se + 1e-9

    def test_line_graph_increments(self):
        # d=2, theta=1: interior relays hold 2 slots, the source 3, so X
        # grows by 1 or 2 per hop (1..3 for the source's own children).
        params = SpreadParams("trickle", theta=1, max_time=8)
        for i in range(200):
            g = lazy_regular_tree(2)
            tr = simulate_trickle(g, params, trial_stream(33, i))
            for v in list(tr.X)[1:]:
                par = tr.parent[v]
                step = tr.X[v] - tr.X[par]
                assert step in ((1, 2, 3) if par == 0 else (1, 2))

    def test_hop_increment_bounds(self):
        # 1 <= X_w - X_parent <= (uninfected honest degree at infection) + theta.
        g = lazy_regular_tree(3)
        theta = 2
        tr = simulate_trickle(g, SpreadParams("trickle", theta=theta, max_time=8),
                              trial_stream(3, 5))
        for v in list(tr.X)[1:]:
            par = tr.parent[v]
            honest = g.degree(par) - (0 if par == 0 else 1)
            assert 1 <= tr.X[v] - tr.X[par] <= honest + theta

    def test_first_report_gap_bound(self):
        # 1 <= tau_v - X_v <= uninfected honest degree + 1 for theta >= 1.
        g = lazy_regular_tree(4)
        tr = simulate_trickle(g, SpreadParams("trickle", theta=1, max_time=9),
                              trial_stream(11, 0))
        for v, taps in tr.reports.items():
            honest = g.degree(v) - (0 if v == 0 else 1)
            assert 1 <= taps[0] - tr.X[v] <= honest + 1

    def test_conservation_on_tree(self):
        # Total transmissions by step t = sum_v min(t - X_v, slot count of v).
        g = lazy_regular_tree(3)
        theta, t = 2, 7
        tr = simulate_trickle(g, SpreadParams("trickle", theta=theta, max_time=t),
                              trial_stream(9, 9))
        transmissions = (len(tr.X) - 1) + sum(len(r) for r in tr.reports.values()) + tr.skipped
        expected = 0
        for v, x in tr.X.items():
            slots = (g.degree(v) - (0 if v == 0 else 1)) + theta
            expected += max(0, min(t - x, slots))
        assert transmissions == expected
        assert tr.skipped == 0  # trees never collide

    def test_conservation_on_random_graph_with_skips(self):
        g = build_random_regular(30, 4, seed=2)
        theta, t = 1, 12
        tr = simulate_trickle(g, SpreadParams("trickle", theta=theta, max_time=t),
                              trial_stream(10, 4))
        transmissions = (len(tr.X) - 1) + sum(len(r) for r in tr.reports.values()) + tr.skipped
        expected = 0
        for v, x in tr.X.items():
            # slot count frozen at infection: neighbors still uninfected once
            # step x has fully settled, plus the taps
            uninfected = sum(1 for u in g.neighbors(v) if u not in tr.X or tr.X[u] > x)
            expected += max(0, min(t - x, uninfected + theta))
        assert transmissions == expected

    @pytest.mark.parametrize("g", [lazy_regular_tree(4), lazy_regular_tree(3, depth=3),
                                   lazy_regular_tree(3, root_degree=1)])
    def test_tree_root_pools_look_up_only_the_source(self, g):
        # From the root a new node's pool is its child id range (taps only at
        # a cut tree's leaf): the source's own pool is the one neighbors call.
        # The streams are checked against neighbors filtering in
        # test_stream_parity; only the calls show the difference.
        calls = record_neighbor_calls(g)
        params = SpreadParams("trickle", theta=1, max_time=6)
        for i in range(4):
            calls.clear()
            tr = simulate_trickle(g, params, trial_stream(62, i))
            assert len(tr.X) > 1 and calls == [0]
        calls.clear()
        tr = simulate_trickle(g, params, trial_stream(62, 9), source=3)
        assert len(tr.X) > 1 and len(calls) > 1

    @pytest.mark.parametrize("horizon", [{"max_time": 6}, {"max_infections": 12}])
    def test_a_node_that_cannot_serve_builds_no_pool(self, horizon):
        # A node infected in the step that ends the run never serves a slot,
        # so only the nodes infected before the stop time look up neighbors.
        g = lazy_regular_tree(4)
        calls = record_neighbor_calls(g)
        params = SpreadParams("trickle", theta=1, **horizon)
        for i in range(6):
            calls.clear()
            tr = simulate_trickle(g, params, trial_stream(63, i), source=3)
            late = sum(x == tr.stop_time for x in tr.X.values())
            assert late > 0 and len(calls) == sum(x < tr.stop_time for x in tr.X.values())


class TestDiffusion:
    def test_report_delay_mean(self):
        # tau_v - X_v is Exp(theta); run finite trees to exhaustion so no
        # truncation biases the sample.
        theta = 2.0
        g = build_regular_tree(3, 7)
        samples = []
        i = 0
        while len(samples) < 100_000:
            tr = simulate_diffusion(g, SpreadParams("diffusion", theta=theta),
                                    trial_stream(50, i))
            samples.extend(min(taps) - tr.X[v] for v, taps in tr.reports.items())
            i += 1
        mean = sum(samples) / len(samples)
        assert abs(mean - 1 / theta) < 0.01

    def test_max_infections_one(self):
        tr = simulate_diffusion(lazy_regular_tree(3),
                                SpreadParams("diffusion", theta=1.0, max_infections=1),
                                trial_stream(0, 0))
        assert tr.X == {0: 0.0}
        assert tr.stop_time == 0.0

    def test_growth_monotone_in_horizon(self):
        sizes = []
        for t in (1.0, 2.0, 3.0, 4.0):
            tr = simulate_diffusion(lazy_regular_tree(3),
                                    SpreadParams("diffusion", theta=1.0, max_time=t),
                                    trial_stream(4, 8))
            sizes.append(len(tr.X))
        assert sizes == sorted(sizes)
        assert sizes[-1] > sizes[0]

    def test_times_increase_along_parents(self):
        tr = simulate_diffusion(lazy_regular_tree(4),
                                SpreadParams("diffusion", theta=1.0, max_infections=300),
                                trial_stream(5, 3))
        for v in list(tr.X)[1:]:
            assert tr.X[v] > tr.X[tr.parent[v]]

    def test_tree_root_spreads_look_up_no_neighbors_or_parents(self):
        # From the root, neighbors(v) less the infected parent are children(v)
        # in order, so filtering neighbors there too would leave every trace
        # and stream the same; only the calls show it.
        g = lazy_regular_tree(5)
        calls = {"neighbors": 0, "parent_of": 0}

        def counting(name):
            method = getattr(g, name)

            def call(v):
                calls[name] += 1
                return method(v)
            return call

        g.neighbors, g.parent_of = counting("neighbors"), counting("parent_of")
        params = SpreadParams("diffusion", theta=1.0, max_infections=500)
        for i, (first_report, reports) in enumerate(((False, True), (False, False),
                                                     (True, True))):
            tr = simulate_diffusion(g, params, trial_stream(61, i),
                                    first_report=first_report, reports=reports)
            assert first_report or len(tr.X) == 500
        assert calls == {"neighbors": 0, "parent_of": 0}
        simulate_diffusion(g, params, trial_stream(61, 3), source=3)
        assert calls["neighbors"] >= 1

    def test_reports_strictly_after_infection(self):
        tr = simulate_diffusion(lazy_regular_tree(3),
                                SpreadParams("diffusion", theta=3.0, max_time=4.0),
                                trial_stream(6, 2))
        assert tr.reports
        for v, taps in tr.reports.items():
            assert min(taps) > tr.X[v]


def sample_mean(values):
    """(mean, standard error) of a sample."""
    n = len(values)
    mean = math.fsum(values) / n
    var = math.fsum((x - mean) ** 2 for x in values) / (n - 1)
    return mean, math.sqrt(var / n)


class TestDiffusionMatchesHeapReference:
    """simulate_diffusion draws one relay at a time; the reference gives every
    relay and report its own heap event.  The two must agree in distribution
    (within 4 standard errors, on independent seeds)."""

    TRIALS = 1500

    def compare(self, g, params, stats):
        runs = {}
        for seed, sim in ((61, simulate_diffusion), (62, heap_simulate_diffusion)):
            traces = [sim(g, params, trial_stream(seed, i)) for i in range(self.TRIALS)]
            runs[sim] = [[stat(tr) for tr in traces] for stat in stats]
        for new, ref in zip(runs[simulate_diffusion], runs[heap_simulate_diffusion]):
            (m1, se1), (m2, se2) = sample_mean(new), sample_mean(ref)
            assert abs(m1 - m2) < 4 * math.hypot(se1, se2), (m1, m2)

    def test_infection_budget_on_tree(self):
        self.compare(lazy_regular_tree(4),
                     SpreadParams("diffusion", theta=1.0, max_infections=200),
                     [lambda tr: tr.stop_time, lambda tr: len(tr.reports)])

    def test_time_horizon_on_graph_with_cycles(self):
        self.compare(build_random_regular(300, 4, seed=1),
                     SpreadParams("diffusion", theta=1.0, max_time=1.5),
                     [lambda tr: len(tr.X), lambda tr: len(tr.reports)])

    def test_exhaustion_on_graph_with_cycles(self):
        self.compare(build_random_regular(300, 4, seed=1),
                     SpreadParams("diffusion", theta=1.0),
                     [lambda tr: tr.stop_time])

    def test_exhaustion_stops_at_last_event(self):
        # Relays that land on infected nodes after the last event move no time.
        g = build_random_regular(60, 4, seed=3)
        for i in range(50):
            tr = simulate_diffusion(g, SpreadParams("diffusion", theta=1.0), trial_stream(8, i))
            assert len(tr.X) == 60 and len(tr.reports) == 60
            last = max(max(tr.X.values()), max(t for ts in tr.reports.values() for t in ts))
            assert tr.stop_time == last
            for v in list(tr.X)[1:]:
                assert tr.parent[v] in g.neighbors(v)
                assert tr.X[v] > tr.X[tr.parent[v]]


class TestDeterminism:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_trickle_identical_given_stream(self, seed):
        a = simulate_trickle(lazy_regular_tree(3),
                             SpreadParams("trickle", theta=1, max_time=6),
                             trial_stream(seed, 0))
        b = simulate_trickle(lazy_regular_tree(3),
                             SpreadParams("trickle", theta=1, max_time=6),
                             trial_stream(seed, 0))
        assert a.X == b.X and a.reports == b.reports and a.parent == b.parent

    def test_diffusion_identical_given_stream(self):
        mk = lambda: simulate_diffusion(
            lazy_regular_tree(4),
            SpreadParams("diffusion", theta=0.5, max_infections=200),
            trial_stream(123, 9),
        )
        a, b = mk(), mk()
        assert a.X == b.X and a.reports == b.reports and a.stop_time == b.stop_time

    def test_trial_streams_differ(self):
        assert trial_stream(1, 0).random() != trial_stream(1, 1).random()
        assert trial_stream(1, 0).random() == trial_stream(1, 0).random()


class TestFirstReportTrial:
    def test_diffusion_singleton(self):
        res = first_report_trial(lazy_regular_tree(4),
                                 SpreadParams("diffusion", theta=1.0),
                                 trial_stream(2, 2))
        assert len(res.reporters) == 1
        assert res.time > 0

    def test_trickle_ties_possible(self):
        saw_tie = False
        params = SpreadParams("trickle", theta=1)
        for i in range(300):
            res = first_report_trial(lazy_regular_tree(4), params, trial_stream(30, i))
            assert res.reporters
            if len(res.reporters) > 1:
                saw_tie = True
        assert saw_tie

    def test_no_report_is_explicit(self):
        res = first_report_trial(lazy_regular_tree(3),
                                 SpreadParams("trickle", theta=1, max_time=0),
                                 trial_stream(0, 0))
        assert res.reporters == frozenset()
        assert res.time is None

    def test_huge_theta_detects_source(self):
        # theta -> infinity drives first-timestamp detection to 1.
        hits = 0
        for i in range(300):
            res = first_report_trial(lazy_regular_tree(4),
                                     SpreadParams("diffusion", theta=1000.0),
                                     trial_stream(12, i))
            hits += res.reporters == frozenset([0])
        assert hits / 300 > 0.97


RANDOM_REGULAR_2000_8 = build_random_regular(2000, 8, seed=7)


def argmin_reporters(trace):
    """First reporters of a full trace, seen by an eavesdropper at its stop time."""
    first = observe_eavesdropper(trace, trace.stop_time).first_reports
    if not first:
        return FirstReport(frozenset(), None)
    t = min(first.values())
    return FirstReport(frozenset(v for v, tau in first.items() if tau == t), t)


class TestFirstReportStopRule:
    """first_report_trial is each simulator run with its first-report stop
    rule; it is checked against the stand-alone loops it replaced
    (tests/oracles.py) and against full simulations."""

    SEEDS = 2000

    @pytest.mark.parametrize("graph, max_time", [
        ("tree3", None), ("tree4", None), ("tree8", None), ("rr2000", None), ("tree4", 2),
    ])
    @pytest.mark.parametrize("theta", [1, 4])
    def test_trickle_matches_reference_loop(self, graph, max_time, theta):
        g = {"tree3": lazy_regular_tree(3), "tree4": lazy_regular_tree(4),
             "tree8": lazy_regular_tree(8), "rr2000": RANDOM_REGULAR_2000_8}[graph]
        params = SpreadParams("trickle", theta=theta, max_time=max_time)
        for seed in range(self.SEEDS):
            source = seed % 2000 if graph == "rr2000" else 0
            rng_new, rng_ref = trial_stream(seed, 3), trial_stream(seed, 3)
            new = first_report_trial(g, params, rng_new, source=source)
            ref = loop_first_report_trickle(g, params, rng_ref, source=source)
            assert (new.reporters, new.time) == (ref.reporters, ref.time), seed
            # Same draws consumed: the harness tie-break continues the stream.
            assert rng_new.random() == rng_ref.random(), seed

    TRIALS = 3000

    @pytest.mark.parametrize("graph, theta", [("tree3", 4), ("tree4", 1), ("rr2000", 1)])
    def test_trickle_matches_shuffle_loop_in_distribution(self, graph, theta):
        # Slots picked one at a time as they are served, or all shuffled at
        # infection: both give each node a uniform serving order.
        g = {"tree3": lazy_regular_tree(3), "tree4": lazy_regular_tree(4),
             "rr2000": RANDOM_REGULAR_2000_8}[graph]
        params = SpreadParams("trickle", theta=theta)
        histograms = []
        for seed, trial in ((73, first_report_trial), (74, shuffle_first_report_trickle)):
            results = [trial(g, params, trial_stream(seed, i)) for i in range(self.TRIALS)]
            histograms.append([[res.time for res in results],
                               [len(res.reporters) for res in results]])
        for new, ref in zip(*histograms):
            for value in set(new) | set(ref):
                p1, p2 = new.count(value) / self.TRIALS, ref.count(value) / self.TRIALS
                se = math.sqrt((p1 * (1 - p1) + p2 * (1 - p2)) / self.TRIALS)
                assert abs(p1 - p2) <= 4 * se + 1e-3, (value, p1, p2)

    @pytest.mark.parametrize("graph, max_time", [
        ("tree4", None), ("tree4", 0.5), ("rr2000", None), ("rr2000", 0.4),
    ])
    def test_diffusion_matches_heap_reference(self, graph, max_time):
        g = {"tree4": lazy_regular_tree(4), "rr2000": RANDOM_REGULAR_2000_8}[graph]
        params = SpreadParams("diffusion", theta=1.0, max_time=max_time)
        stats = {}
        for seed, trial in ((71, first_report_trial), (72, heap_first_report_diffusion)):
            results = [trial(g, params, trial_stream(seed, i)) for i in range(self.TRIALS)]
            assert all(len(res.reporters) <= 1 for res in results)
            assert all(res.time is None or res.time <= (max_time or math.inf)
                       for res in results)
            stats[trial] = [
                [float(res.reporters == frozenset([0])) for res in results],
                [float(res.time is None) for res in results],
                [res.time for res in results if res.time is not None],
            ]
        for new, ref in zip(stats[first_report_trial], stats[heap_first_report_diffusion]):
            (m1, se1), (m2, se2) = sample_mean(new), sample_mean(ref)
            assert abs(m1 - m2) <= 4 * math.hypot(se1, se2), (m1, m2)

    @pytest.mark.parametrize("protocol, theta, sim", [
        ("trickle", 1, simulate_trickle),
        ("diffusion", 0.2, simulate_diffusion),
    ])
    @pytest.mark.parametrize("graph", ["tree4", "rr2000"])
    @pytest.mark.parametrize("k", [2, 5])
    def test_infection_budget_matches_full_simulation(self, protocol, theta, sim, graph, k):
        g = {"tree4": lazy_regular_tree(4), "rr2000": RANDOM_REGULAR_2000_8}[graph]
        params = SpreadParams(protocol, theta=theta, max_infections=k)
        empty = 0
        for i in range(500):
            res = first_report_trial(g, params, trial_stream(81, i))
            assert res == argmin_reporters(sim(g, params, trial_stream(81, i))), i
            empty += not res.reporters
        assert 0 < empty < 500

    def test_stop_rule_keeps_only_first_reports(self):
        g = lazy_regular_tree(4)
        for i in range(200):
            tr = simulate_diffusion(g, SpreadParams("diffusion", theta=0.5),
                                    trial_stream(91, i), first_report=True)
            assert len(tr.reports) == 1 and [tr.stop_time] in tr.reports.values()
            assert all(x < tr.stop_time for x in tr.X.values())
            tr = simulate_trickle(g, SpreadParams("trickle", theta=1),
                                  trial_stream(91, i), first_report=True)
            assert tr.reports and all(taps == [tr.stop_time] for taps in tr.reports.values())


class TestDiffusionWithoutReports:
    """reports=False draws no report times: the spy and snapshot runs."""

    def test_first_report_rule_needs_reports(self):
        with pytest.raises(ValueError, match="report draws"):
            simulate_diffusion(lazy_regular_tree(3), SpreadParams("diffusion"),
                               trial_stream(0, 0), first_report=True, reports=False)

    @pytest.mark.parametrize("graph", ["cut tree", "rr60"])
    def test_exhaustion_stops_at_last_infection(self, graph):
        g = {"cut tree": lazy_regular_tree(3, depth=4),
             "rr60": build_random_regular(60, 4, seed=3)}[graph]
        for i in range(50):
            params = SpreadParams("diffusion", theta=0.7)
            bare = simulate_diffusion(g, params, trial_stream(15, i), reports=False)
            assert bare.reports == {} and bare.report_times == []
            assert len(bare.X) == g.node_count
            assert bare.stop_time == max(bare.X.values()) == list(bare.X.values())[-1]
            assert observe_eavesdropper(bare, bare.stop_time).first_reports == {}
            assert observe_eavesdropper(bare, math.inf, keep_all=True).all_reports == {}

    def test_horizons_without_reports(self):
        g = lazy_regular_tree(4)
        for i in range(50):
            for params, stop in ((SpreadParams("diffusion", max_time=1.5), 1.5),
                                 (SpreadParams("diffusion", max_infections=30), None)):
                bare = simulate_diffusion(g, params, trial_stream(16, i), reports=False)
                assert bare.stop_time == (stop if stop is not None else bare.X[list(bare.X)[-1]])
                assert bare.reports == {}


class TestTraceDump:
    def test_trickle_rows_are_integers(self):
        tr = simulate_trickle(lazy_regular_tree(3),
                              SpreadParams("trickle", theta=1, max_time=5),
                              trial_stream(8, 8))
        text = trace_to_csv(tr)
        lines = text.strip().splitlines()
        assert lines[0] == "node,X,first_report_time,parent"
        assert len(lines) == 1 + len(tr.X)
        node, x, first, parent = lines[1].split(",")
        assert (node, x, parent) == ("0", "0", "")

    def test_diffusion_times_have_nine_significant_digits(self):
        tr = simulate_diffusion(lazy_regular_tree(3),
                                SpreadParams("diffusion", theta=1.0, max_infections=20),
                                trial_stream(8, 9))
        row = trace_to_csv(tr).strip().splitlines()[2]
        x_text = row.split(",")[1]
        assert float(x_text) > 0
        digits = x_text.replace(".", "").replace("-", "").lstrip("0")
        assert len(digits) <= 9


@given(d=st.integers(2, 5), depth=st.none() | st.integers(0, 4), theta=st.integers(1, 3),
       protocol=st.sampled_from(["trickle", "diffusion"]), seed=st.integers(0, 2 ** 32))
@settings(max_examples=80, deadline=None)
def test_trace_properties_on_the_infinite_and_the_cut_tree(d, depth, theta, protocol, seed):
    """The cut tree spreads to every node of the balanced tree and to none
    past it; the infinite one is run to a horizon.  On both, every parent is
    a neighbor infected earlier, a node shows at most theta taps, and a
    trickle node's children and taps take distinct slots: X[child] =
    X[parent] + slot index, with every slot up to the horizon served."""
    g = lazy_regular_tree(d, depth=depth)
    if depth is not None:
        ref, horizon = build_regular_tree(d, depth), math.inf
        params = SpreadParams(protocol, theta=theta)
    elif protocol == "trickle":
        ref, horizon = g, 5
        params = SpreadParams(protocol, theta=theta, max_time=horizon)
    else:
        ref, horizon = g, math.inf
        params = SpreadParams(protocol, theta=theta, max_infections=60)
    sim = simulate_trickle if protocol == "trickle" else simulate_diffusion
    tr = sim(g, params, trial_stream(seed, 0))
    if depth is not None:
        assert set(tr.X) == set(ref.nodes())
    for v, taps in tr.reports.items():
        assert len(taps) <= (theta if protocol == "trickle" else 1)
    for v, p in tr.parent.items():
        if p is None:
            assert v == tr.source == 0
        else:
            assert p in ref.neighbors(v) and tr.X[p] < tr.X[v]
    if protocol == "trickle":
        for v, x in tr.X.items():
            slots = [tr.X[c] - x for c in ref.neighbors(v) if tr.parent.get(c) == v]
            slots += [tap - x for tap in tr.reports.get(v, [])]
            width = ref.degree(v) - (v != tr.source) + theta
            assert sorted(slots) == list(range(1, min(width, horizon - x) + 1))
