import math

import pytest
from hypothesis import given, settings, strategies as st

from rumorlab.adversary import (first_spy_position, observe_eavesdropper, observe_first_spy,
                                observe_snapshot, observe_spy)
from rumorlab.graphs import build_random_regular, lazy_regular_tree
from rumorlab.spreading import (SpreadParams, SpreadTrace, TreeParents, simulate_diffusion,
                                simulate_trickle, trial_stream)

from oracles import build_regular_tree, loop_first_reports


def trickle_trace(seed=0, d=3, theta=1, t=6):
    return simulate_trickle(lazy_regular_tree(d),
                            SpreadParams("trickle", theta=theta, max_time=t),
                            trial_stream(seed, 0))


def diffusion_trace(seed=0, d=4, theta=1.0, K=300):
    return simulate_diffusion(lazy_regular_tree(d),
                              SpreadParams("diffusion", theta=theta, max_infections=K),
                              trial_stream(seed, 1))


class TestEavesdropper:
    def test_time_zero_is_empty(self):
        obs = observe_eavesdropper(trickle_trace(), 0)
        assert obs.first_reports == {}

    def test_infinite_horizon_sees_every_recorded_report(self):
        tr = trickle_trace(seed=5)
        obs = observe_eavesdropper(tr, math.inf)
        assert set(obs.first_reports) == set(tr.reports)

    def test_first_only_unless_keep_all(self):
        tr = SpreadTrace("trickle", 0, {0: 0, 7: 1}, {7: [3, 5]}, {0: None, 7: 0}, 6)
        obs = observe_eavesdropper(tr, 4)
        assert obs.first_reports == {7: 3}
        assert obs.all_reports is None
        full = observe_eavesdropper(tr, 4, keep_all=True)
        assert full.all_reports == {7: (3,)}
        later = observe_eavesdropper(tr, 6, keep_all=True)
        assert later.all_reports == {7: (3, 5)}

    def test_report_strictly_after_infection(self):
        tr = diffusion_trace(seed=2)
        obs = observe_eavesdropper(tr, tr.stop_time)
        for v, tau in obs.first_reports.items():
            assert tau > tr.X[v]
            assert tau <= tr.stop_time

    def test_pure_filter(self):
        tr = trickle_trace(seed=9)
        assert observe_eavesdropper(tr, 4) == observe_eavesdropper(tr, 4)

    def test_exponential_report_delays(self):
        # Kolmogorov-Smirnov of tau - X against Exp(theta), >= 1e5 samples.
        theta = 2.0
        g = build_regular_tree(3, 7)
        samples = []
        i = 0
        while len(samples) < 100_000:
            tr = simulate_diffusion(g, SpreadParams("diffusion", theta=theta),
                                    trial_stream(77, i))
            obs = observe_eavesdropper(tr, math.inf)
            samples.extend(obs.first_reports[v] - tr.X[v] for v in obs.first_reports)
            i += 1
        samples.sort()
        n = len(samples)
        stat = max(
            max(abs((k + 1) / n - (1 - math.exp(-theta * x))),
                abs(k / n - (1 - math.exp(-theta * x))))
            for k, x in enumerate(samples)
        )
        assert stat < 0.01


def reference_traces():
    """Diffusion traces of both loops, each stop rule and a cut tree, and
    trickle traces, as (name, trace)."""
    tree, cut = lazy_regular_tree(4), lazy_regular_tree(3, depth=4)
    rr = build_random_regular(60, 4, seed=2)
    for i in range(3):
        for name, g, source, params, first_report in [
            ("root", tree, 0, SpreadParams("diffusion", max_infections=300), False),
            ("root-time", tree, 0, SpreadParams("diffusion", theta=0.5, max_time=2.5), False),
            ("general", rr, 0, SpreadParams("diffusion", max_time=3.0), False),
            ("off-root", tree, 5, SpreadParams("diffusion", max_infections=200), False),
            ("cut", cut, 0, SpreadParams("diffusion", theta=0.3), False),
            ("first-report", tree, 0, SpreadParams("diffusion", theta=0.2), True),
            ("first-report-rr", rr, 3, SpreadParams("diffusion", theta=0.2), True),
        ]:
            yield name, simulate_diffusion(g, params, trial_stream(20, i), source=source,
                                           first_report=first_report)
        for theta in (1, 3):
            yield "trickle", trickle_trace(seed=i, theta=theta)
            yield "trickle-rr", simulate_trickle(
                rr, SpreadParams("trickle", theta=theta, max_time=4), trial_stream(21, i))


def test_first_reports_equal_the_loop_over_reports():
    for name, tr in reference_traces():
        assert tr.reports, name
        for t in (0, tr.stop_time / 2, tr.stop_time, math.inf):
            got = observe_eavesdropper(tr, t).first_reports
            want = loop_first_reports(tr, t)
            assert list(got.items()) == list(want.items()), (name, t)


class TestSpy:
    def test_parents_read_from_the_tree_once_per_spy(self, monkeypatch):
        g = lazy_regular_tree(5)
        calls = []
        parent_of = g.parent_of

        def counting(v):
            calls.append(v)
            return parent_of(v)

        monkeypatch.setattr(g, "parent_of", counting)
        tr = simulate_diffusion(g, SpreadParams("diffusion", max_infections=500),
                                trial_stream(3, 0))
        assert len(tr.X) == 500 and calls == []
        obs = observe_spy(tr, 0.7, math.inf, trial_stream(4, 0))
        assert calls == list(obs.spy_infectors)
        assert all(obs.spy_infectors[s] == parent_of(s) for s in calls)

    def test_spy_parent_is_one_tree_call_and_the_view_stays_a_mapping(self, monkeypatch):
        g = lazy_regular_tree(5)
        tr = simulate_diffusion(g, SpreadParams("diffusion", max_infections=500),
                                trial_stream(3, 0))
        lookups = []
        getitem = TreeParents.__getitem__

        def counting(self, v):
            lookups.append(v)
            return getitem(self, v)

        monkeypatch.setattr(TreeParents, "__getitem__", counting)
        obs = observe_spy(tr, 0.7, math.inf, trial_stream(4, 0))
        assert obs.spy_infectors and lookups == []
        assert obs.spy_infectors == {s: tr.parent[s] for s in obs.spy_infectors}
        assert len(tr.parent) == 500 and dict(tr.parent) == {v: g.parent_of(v) for v in tr.X}
        with pytest.raises(KeyError):
            tr.parent[max(tr.X) + 1]

    def test_p_one_is_every_infected_nonsource(self):
        tr = diffusion_trace(seed=3)
        obs = observe_spy(tr, 1.0, tr.stop_time)
        assert set(obs.spy_times) == set(tr.X) - {0}

    def test_p_zero_is_empty(self):
        obs = observe_spy(diffusion_trace(seed=3), 0.0, math.inf)
        assert obs.spy_times == {}

    def test_source_never_a_spy_and_times_exact(self):
        tr = diffusion_trace(seed=4)
        obs = observe_spy(tr, 0.5, tr.stop_time, trial_stream(1, 1))
        assert 0 not in obs.spy_times
        for s, x in obs.spy_times.items():
            assert x == tr.X[s]
            assert obs.spy_infectors[s] == tr.parent[s]

    def test_fraction_concentrates(self):
        tr = simulate_diffusion(lazy_regular_tree(4),
                                SpreadParams("diffusion", theta=1.0, max_infections=10_000),
                                trial_stream(5, 5))
        obs = observe_spy(tr, 0.3, tr.stop_time, trial_stream(6, 6))
        frac = len(obs.spy_times) / (len(tr.X) - 1)
        assert abs(frac - 0.3) < 0.015

    def test_randomness_only_from_stream(self):
        tr = diffusion_trace(seed=7)
        a = observe_spy(tr, 0.4, tr.stop_time, trial_stream(9, 0))
        b = observe_spy(tr, 0.4, tr.stop_time, trial_stream(9, 0))
        assert a.spy_times == b.spy_times

    def test_bad_p_rejected(self):
        with pytest.raises(ValueError):
            observe_spy(diffusion_trace(), 1.5, 1.0, trial_stream(0, 0))


class TestFirstSpy:
    def test_p_one_and_p_zero_draw_nothing(self):
        rng = trial_stream(2, 0)
        state = rng.getstate()
        assert first_spy_position(1.0, rng) == 1
        assert first_spy_position(0.0, rng) is None
        assert rng.getstate() == state

    def test_one_draw_whatever_p(self):
        for p in (0.9, 0.3, 1e-9, 1e-320):
            rng, ref = trial_stream(3, 0), trial_stream(3, 0)
            first_spy_position(p, rng)
            ref.random()
            assert rng.getstate() == ref.getstate(), p
        # So small a p puts the first spy past any spread that can be run.
        assert first_spy_position(1e-320, trial_stream(3, 0)) is None

    @pytest.mark.parametrize("p", [0.7, 0.2, 0.01])
    def test_position_is_geometric(self, p):
        # P(j > k) = (1 - p)**k: each tail frequency within 4 standard errors.
        rng, n = trial_stream(4, 0), 20_000
        draws = [first_spy_position(p, rng) for _ in range(n)]
        for k in (1, 2, 5, 20):
            tail = (1 - p) ** k
            got = sum(j > k for j in draws) / n
            assert abs(got - tail) <= 4 * math.sqrt(tail * (1 - tail) / n) + 1e-12, (k, got)

    def test_first_spy_and_same_step_spies_with_their_infectors(self):
        tr = trickle_trace(seed=5, t=6)
        nodes = list(tr.X)
        j = next(i for i, v in enumerate(nodes) if tr.X[v] == tr.X[nodes[-1]])
        assert len(nodes) > j + 2  # the last step infects more than two nodes
        obs = observe_first_spy(tr, j, 1.0)
        assert set(obs.spy_times) == set(nodes[j:])
        assert obs.spy_times == {v: tr.X[v] for v in nodes[j:]}
        assert obs.spy_infectors == {v: tr.parent[v] for v in nodes[j:]}
        # At p < 1 each later node draws once, in order, as observe_spy does.
        rng, ref = trial_stream(6, 0), trial_stream(6, 0)
        obs = observe_first_spy(tr, j, 0.5, rng)
        later = [v for v in nodes[j + 1:] if ref.random() < 0.5]
        assert list(obs.spy_times) == [nodes[j], *later]
        assert rng.getstate() == ref.getstate()
        # No first spy in the spread: nothing observed and nothing drawn.
        for none in (None, len(nodes)):
            obs = observe_first_spy(tr, none, 0.5, rng)
            assert obs.spy_times == obs.spy_infectors == {}
        assert rng.getstate() == ref.getstate()


class TestSnapshot:
    def test_time_zero_is_source(self):
        obs = observe_snapshot(diffusion_trace(seed=8), 0)
        assert obs.snapshot == frozenset([0])

    def test_after_stop_sees_everything(self):
        tr = diffusion_trace(seed=8)
        obs = observe_snapshot(tr, tr.stop_time)
        assert obs.snapshot == frozenset(tr.X)

    @given(t1=st.floats(0, 3), t2=st.floats(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_monotone(self, t1, t2):
        tr = diffusion_trace(seed=11)
        if t1 > t2:
            t1, t2 = t2, t1
        assert observe_snapshot(tr, t1).snapshot <= observe_snapshot(tr, t2).snapshot
