import dataclasses
import math
import os
import time
from fractions import Fraction

import pytest

from rumorlab import harness
from rumorlab.adversary import first_spy_position
from rumorlab.analytics import FORMULAS, diffusion_ft, trickle_ft_lower_bound, trickle_ml_upper
from rumorlab.graphs import build_random_regular, load_edge_list
from rumorlab.harness import (
    METHODS,
    AdversarySpec,
    ExperimentSpec,
    GraphSpec,
    build_graph,
    run_experiment,
    run_points,
    sweep,
    sweep_specs,
    trial_trace,
    wilson_interval,
)
from rumorlab.spreading import SpreadParams, simulate_diffusion, simulate_trickle, trial_stream
from oracles import (
    enumerate_spy_ft,
    full_spread_spy_ft_run,
    snapshot_rumor_centers_exact,
    spy_ft_exact,
    tree_root_diffusion_ft,
    trickle_ft_exact,
)


def ft_spec(protocol="diffusion", d=4, theta=1.0, trials=500, seed=1, **kw):
    return ExperimentSpec(
        graph=GraphSpec(kind="tree", d=d, root_degree=kw.pop("root_degree", None)),
        params=SpreadParams(protocol, theta=theta),
        adversary=AdversarySpec("eavesdropper"),
        estimator="first-timestamp",
        trials=trials,
        master_seed=seed,
        **kw,
    )


class TestWilson:
    def test_brackets_the_point_estimate(self):
        lo, hi = wilson_interval(30, 100)
        assert lo <= 0.3 <= hi

    def test_width_shrinks_with_n(self):
        w = []
        for n in (100, 400, 1600):
            lo, hi = wilson_interval(n // 2, n)
            w.append(hi - lo)
        assert w[0] > w[1] > w[2]
        # binomial CI narrows like 1/sqrt(n)
        assert w[0] / w[2] == pytest.approx(4.0, rel=0.05)

    def test_degenerate_counts(self):
        assert wilson_interval(0, 50)[0] == pytest.approx(0.0, abs=1e-12)
        assert wilson_interval(50, 50)[1] == pytest.approx(1.0, abs=1e-12)
        assert wilson_interval(0, 50)[1] > 0
        assert wilson_interval(50, 50)[0] < 1


class TestValidation:
    def test_incompatible_estimator_adversary(self):
        with pytest.raises(ValueError):
            ExperimentSpec(
                graph=GraphSpec(kind="tree", d=3),
                params=SpreadParams("diffusion", theta=1.0),
                adversary=AdversarySpec("eavesdropper"),
                estimator="ball-centrality",
                trials=10,
                master_seed=0,
            )
        with pytest.raises(ValueError):
            ExperimentSpec(
                graph=GraphSpec(kind="random-regular", d=4, n=10),
                params=SpreadParams("diffusion", theta=1.0, max_infections=5),
                adversary=AdversarySpec("eavesdropper"),
                estimator="reporting-centrality",
                trials=10,
                master_seed=0,
            )

    def test_graph_spec_validation(self):
        with pytest.raises(ValueError):
            GraphSpec(kind="tree")
        with pytest.raises(ValueError):
            GraphSpec(kind="file")
        with pytest.raises(ValueError):
            GraphSpec(kind="random-regular", d=4)

    @pytest.mark.parametrize("kind, fields, message", [
        ("tree", {"d": 1}, "degree must be >= 2"),
        ("balanced-tree", {"d": 1, "depth": 3}, "degree must be >= 2"),
        ("random-regular", {"d": 3, "n": 7}, "n\\*d must be even"),
        ("random-regular", {"d": 4, "n": 4}, "d < n"),
        ("random-regular", {"d": 5, "n": 4}, "d < n"),
    ])
    def test_graph_that_cannot_be_built_is_rejected(self, kind, fields, message):
        with pytest.raises(ValueError, match=message):
            GraphSpec(kind=kind, **fields)
        # A d sweep builds each point's spec, and so rejects the point.
        base = dataclasses.replace(ft_spec(), graph=GraphSpec(kind=kind, **{**fields, "d": 2}))
        with pytest.raises(ValueError, match=message):
            sweep_specs(base, "d", [2, fields["d"]])

    def test_smallest_buildable_graphs_are_accepted(self):
        for gspec in (GraphSpec(kind="tree", d=2), GraphSpec(kind="balanced-tree", d=2, depth=3),
                      GraphSpec(kind="random-regular", d=2, n=3),
                      GraphSpec(kind="random-regular", d=3, n=4)):
            build_graph(gspec, 0)

    @pytest.mark.parametrize("graph", [GraphSpec(kind="random-regular", d=4, n=10),
                                       GraphSpec(kind="file", path="g.edges")])
    def test_trc_rejected_on_graphs_with_cycles(self, graph):
        with pytest.raises(ValueError, match="trees"):
            ExperimentSpec(
                graph=graph,
                params=SpreadParams("trickle", theta=1, max_time=5),
                adversary=AdversarySpec("eavesdropper", estimation_time=5),
                estimator="timestamp-rumor-centrality",
                trials=10,
                master_seed=0,
            )

    @pytest.mark.parametrize("graph", [GraphSpec(kind="random-regular", d=4, n=200),
                                       GraphSpec(kind="file", path="g.edges")])
    def test_rumor_centers_rejected_on_graphs_with_cycles(self, graph):
        # The infected set on such a graph is rarely a tree; it used to fail
        # only after simulating, with "infected set is not a tree".
        with pytest.raises(ValueError, match="tree"):
            ExperimentSpec(
                graph=graph,
                params=SpreadParams("diffusion", theta=1.0, max_time=2),
                adversary=AdversarySpec("snapshot", estimation_time=2),
                estimator="rumor-centers",
                trials=5,
                master_seed=0,
            )

    @pytest.mark.parametrize("protocol,adversary,estimator,t", [
        ("trickle", AdversarySpec("eavesdropper"), "ball-centrality", None),
        ("diffusion", AdversarySpec("eavesdropper"), "reporting-centrality", None),
        ("diffusion", AdversarySpec("spy", p=0.5), "first-timestamp", None),
        ("trickle", AdversarySpec("snapshot"), "rumor-centers", None),
        ("trickle", AdversarySpec("eavesdropper", estimation_time=5), "first-timestamp", 5),
    ])
    def test_full_simulation_on_infinite_tree_needs_horizon(self, protocol, adversary,
                                                             estimator, t):
        # Without max_time or max_infections these trials would never end.
        with pytest.raises(ValueError, match="horizon"):
            ExperimentSpec(GraphSpec(kind="tree", d=4), SpreadParams(protocol, theta=1),
                           adversary, estimator, trials=10, master_seed=0)
        ExperimentSpec(GraphSpec(kind="balanced-tree", d=4, depth=3),
                       SpreadParams(protocol, theta=1), adversary, estimator,
                       trials=10, master_seed=0)

    def test_first_report_shortcut_needs_no_horizon(self):
        ft_spec(protocol="trickle")
        ft_spec(protocol="diffusion")

    @pytest.mark.parametrize("graph,t,match", [
        (GraphSpec(kind="tree", d=4), 3, "t >= d"),
        (GraphSpec(kind="balanced-tree", d=4, depth=6), 4.5, "t >= d"),
        (GraphSpec(kind="tree", d=8), 9, "guardrail"),
        (GraphSpec(kind="tree", d=4, root_degree=3), 5, "unmodified"),
    ])
    def test_trc_setting_rejected_when_spec_is_built(self, graph, t, match):
        with pytest.raises(ValueError, match=match):
            ExperimentSpec(
                graph=graph,
                params=SpreadParams("trickle", theta=1, max_time=t),
                adversary=AdversarySpec("eavesdropper", estimation_time=t),
                estimator="timestamp-rumor-centrality",
                trials=10,
                master_seed=0,
            )

    def test_trc_needs_an_estimation_time(self):
        # An infection budget alone leaves TRC's counting horizon undefined.
        with pytest.raises(ValueError, match="estimation time"):
            ExperimentSpec(GraphSpec(kind="tree", d=4),
                           SpreadParams("trickle", theta=1, max_infections=50),
                           AdversarySpec("eavesdropper"), "timestamp-rumor-centrality",
                           trials=10, master_seed=0)

    @pytest.mark.parametrize("params,t,match", [
        (SpreadParams("trickle", theta=1, max_time=6, max_infections=10), 6, "max_infections"),
        (SpreadParams("trickle", theta=1, max_time=5, max_infections=10), None, "max_infections"),
        (SpreadParams("trickle", theta=1, max_time=5), 6, "max_time"),
    ])
    def test_trc_spread_must_run_to_the_estimation_time(self, params, t, match):
        # A spread that stops before t leaves TRC counting a horizon the
        # trace never reached; each of these specs failed mid-run.
        with pytest.raises(ValueError, match=match):
            ExperimentSpec(GraphSpec(kind="tree", d=4), params,
                           AdversarySpec("eavesdropper", estimation_time=t),
                           "timestamp-rumor-centrality", trials=10, master_seed=0)

    def test_sweep_specs_checks_every_point(self):
        base = ExperimentSpec(GraphSpec(kind="tree", d=4),
                              SpreadParams("trickle", theta=1, max_time=5),
                              AdversarySpec("eavesdropper", estimation_time=5),
                              "timestamp-rumor-centrality", trials=10, master_seed=0)
        assert [s.params.max_time for s in sweep_specs(base, "t", [5, 6])] == [5, 6]
        with pytest.raises(ValueError, match="t >= d"):
            sweep_specs(base, "t", [5, 3])

    def test_spy_needs_p(self):
        with pytest.raises(ValueError):
            AdversarySpec("spy")

    def test_only_the_spy_takes_p(self):
        for model in ("eavesdropper", "snapshot"):
            with pytest.raises(ValueError, match="spy"):
                AdversarySpec(model, p=0.4)
        # An eavesdropper sweep over p would run the same point twice.
        with pytest.raises(ValueError, match="spy"):
            sweep_specs(ft_spec(protocol="trickle"), "p", [0.1, 0.9])

    def test_d_axis_on_a_file_graph_is_rejected(self):
        # The file build never reads d: every point would run the same trials.
        base = dataclasses.replace(ft_spec(), graph=GraphSpec(kind="file", path="g.edges", d=4))
        with pytest.raises(ValueError, match="file graph"):
            sweep_specs(base, "d", [3, 4, 8])
        assert [s.params.theta for s in sweep_specs(base, "theta", [1, 2])] == [1, 2]

    def test_integer_axes_reject_fractional_values(self):
        # int() would run d=4 and 20 trials under rows labelled 4.5 and 20.9.
        with pytest.raises(ValueError, match="d sweep takes integer values, got 4.5"):
            sweep_specs(ft_spec(), "d", [4.5, 5])
        with pytest.raises(ValueError, match="trials sweep takes integer values"):
            sweep_specs(ft_spec(), "trials", [20.9])
        assert [s.graph.d for s in sweep_specs(ft_spec(), "d", [5.0, 6])] == [5, 6]
        assert [s.trials for s in sweep_specs(ft_spec(), "trials", [20.0])] == [20]

    @pytest.mark.parametrize("kind, fields, ignored", [
        ("tree", {"d": 4, "depth": 2}, "depth"),
        ("tree", {"d": 4, "n": 100}, "n"),
        ("tree", {"d": 4, "path": "g.edges"}, "path"),
        ("balanced-tree", {"d": 4, "depth": 5, "root_degree": 2}, "root_degree"),
        ("random-regular", {"d": 4, "n": 100, "root_degree": 2}, "root_degree"),
        ("random-regular", {"d": 4, "n": 100, "depth": 3}, "depth"),
        ("file", {"path": "g.edges", "n": 10}, "n"),
        ("file", {"path": "g.edges", "root_degree": 2}, "root_degree"),
    ])
    def test_graph_rejects_fields_its_kind_ignores(self, kind, fields, ignored):
        with pytest.raises(ValueError, match=f"{ignored} belongs to"):
            GraphSpec(kind=kind, **fields)


class TestDeterminism:
    def test_same_spec_same_report(self):
        a = run_experiment(ft_spec(trials=300, seed=9))
        b = run_experiment(ft_spec(trials=300, seed=9))
        assert a == b

    def test_worker_count_does_not_change_results(self):
        seq = run_experiment(ft_spec(trials=200, seed=4, workers=1))
        par = run_experiment(ft_spec(trials=200, seed=4, workers=2))
        assert (seq.hits, seq.p_hat, seq.strict_win_rate) == (par.hits, par.p_hat, par.strict_win_rate)

    def test_single_trial_huge_theta_hits(self):
        # theta/(theta+d) ~ 0.996: seed 1 realizes the almost-sure branch
        r = run_experiment(ft_spec(protocol="trickle", theta=1000, trials=1, seed=1))
        assert r.hits == 1


# The names perfbench's tracer replaces in rumorlab.harness, so every METHODS
# entry and run_experiment must look them up when they run.
LAYER_NAMES = ("run_trial", "trial_stream", "lazy_regular_tree", "build_random_regular",
               "simulate_trickle", "simulate_diffusion", "first_report_trial",
               "observe_eavesdropper", "observe_spy", "observe_snapshot", "first_timestamp",
               "spy_first_timestamp", "ball_centrality", "timestamp_rumor_centrality",
               "reporting_centrality", "rumor_centers")


def test_methods_call_layers_by_their_harness_names(monkeypatch):
    called = set()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in LAYER_NAMES:
        monkeypatch.setattr(harness, name, counting(name, getattr(harness, name)))
    runs = [(GraphSpec(kind="random-regular", d=4, n=60), "first-timestamp", "eavesdropper",
             "diffusion", 6)]
    for (est, adv), method in METHODS.items():
        # t = None runs an entry with a stop rule to its first report or first spy.
        runs += [(GraphSpec(kind="balanced-tree", d=3, depth=4), est, adv, protocol, t)
                 for protocol in method.theory for t in ((None, 6) if method.stop else (6,))]
    for graph, est, adv, protocol, t in runs:
        run_experiment(ExperimentSpec(
            graph, SpreadParams(protocol, theta=1, max_time=t),
            AdversarySpec(adv, p=1.0 if adv == "spy" else None, estimation_time=t),
            est, trials=1, master_seed=0))
    assert called == set(LAYER_NAMES)


def test_methods_name_only_known_formulas():
    # theory_overlay looks each id up in FORMULAS, so a misspelled id fails
    # loudly instead of printing an empty theory column.
    for method in METHODS.values():
        for formula in method.theory.values():
            assert formula is None or formula in FORMULAS, formula


class TestReports:
    def test_ft_diffusion_matches_formula_in_its_setting(self):
        r = run_experiment(ft_spec(trials=3000, seed=2, root_degree=2))
        assert r.theory == pytest.approx(diffusion_ft(4, 1).value)
        assert abs(r.p_hat - r.theory) < 0.04
        assert r.ci_low <= r.p_hat <= r.ci_high

    def test_trickle_records_strict_and_tie_broken(self):
        r = run_experiment(ft_spec(protocol="trickle", theta=1, trials=2000, seed=3))
        assert r.strict_win_rate is not None
        assert r.strict_win_rate <= r.p_hat
        assert r.theory == pytest.approx(trickle_ft_lower_bound(4, 1).value)

    def test_spy_first_timestamp_reports_no_strict_win_rate(self):
        # Spy trials never record a strict win, so a rate would always read 0.
        spec = ExperimentSpec(GraphSpec(kind="tree", d=4),
                              SpreadParams("trickle", theta=1, max_time=4),
                              AdversarySpec("spy", p=0.3), "first-timestamp",
                              trials=200, master_seed=1)
        r = run_experiment(spec)
        assert r.hits > 0
        assert r.strict_win_rate is None
        assert r.csv_fields()["strict_win_rate"] == ""

    def test_trc_overlay_is_ml_ceiling(self):
        spec = ExperimentSpec(
            graph=GraphSpec(kind="tree", d=4),
            params=SpreadParams("trickle", theta=1, max_time=5),
            adversary=AdversarySpec("eavesdropper", estimation_time=5),
            estimator="timestamp-rumor-centrality",
            trials=50,
            master_seed=5,
        )
        r = run_experiment(spec)
        assert r.theory == pytest.approx(trickle_ml_upper(4, 1).value)

    def test_mean_stop_time_logged_for_infection_horizon(self):
        # From the root of the uncut tree every pending relay targets an
        # uninfected child, so after n infections b_n = r + (n-1)(d-2) relays
        # are pending at rate 1 each: T_K is a sum of K-1 independent
        # exponentials with rates b_1..b_{K-1}.
        d, K, trials = 4, 50, 2000
        rates = [d + (n - 1) * (d - 2) for n in range(1, K)]
        mean = math.fsum(1 / b for b in rates)
        sd = math.sqrt(math.fsum(1 / b**2 for b in rates))
        assert (round(mean, 6), round(sd, 6)) == (1.749603, 0.395327)
        spec = ExperimentSpec(
            graph=GraphSpec(kind="tree", d=d),
            params=SpreadParams("diffusion", theta=1.0, max_infections=K),
            adversary=AdversarySpec("eavesdropper"),
            estimator="reporting-centrality",
            trials=trials,
            master_seed=6,
        )
        r = run_experiment(spec)
        assert r.mean_stop_time is not None and r.mean_stop_time > 0
        assert abs(r.mean_stop_time - mean) <= 4 * sd / math.sqrt(trials), r.mean_stop_time

    def test_loaded_graph_uses_random_sources(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("\n".join(f"{i} {i+1}" for i in range(30)) + "\n")
        spec = ExperimentSpec(
            graph=GraphSpec(kind="file", path=str(path)),
            params=SpreadParams("trickle", theta=1),
            adversary=AdversarySpec("eavesdropper"),
            estimator="first-timestamp",
            trials=100,
            master_seed=7,
        )
        r = run_experiment(spec)
        # random sources on a path graph make perfect detection implausible
        assert 0 < r.p_hat < 1


class TestSweep:
    def test_theta_axis_monotone_for_diffusion(self):
        base = ft_spec(trials=1500, seed=8, root_degree=2)
        reports = sweep(base, "theta", [1.0, 2.0, 4.0, 8.0])
        phats = [r.p_hat for r in reports]
        assert phats == sorted(phats)
        for r, th in zip(reports, [1.0, 2.0, 4.0, 8.0]):
            assert r.theory == pytest.approx(diffusion_ft(4, th).value)

    def test_degree_axis_decreasing_for_diffusion(self):
        base = ft_spec(trials=1500, seed=9)
        reports = sweep(base, "d", [3, 4, 6, 8])
        phats = [r.p_hat for r in reports]
        assert phats == sorted(phats, reverse=True)

    def test_trials_axis_narrows_ci(self):
        base = ft_spec(trials=100, seed=10)
        reports = sweep(base, "trials", [100, 400, 1600])
        widths = [r.ci_high - r.ci_low for r in reports]
        assert widths[0] > widths[1] > widths[2]

    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            sweep(ft_spec(), "lam", [1])


def rr_spec(protocol="trickle", workers=1):
    return ExperimentSpec(
        graph=GraphSpec(kind="random-regular", d=4, n=60),
        params=SpreadParams(protocol, theta=1.0),
        adversary=AdversarySpec("eavesdropper"),
        estimator="first-timestamp",
        trials=41,
        master_seed=12,
        workers=workers,
    )


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def outcome(report):
    return (report.hits, report.trials, report.p_hat, report.ci_low, report.ci_high,
            report.strict_win_rate, report.theory, report.mean_stop_time)


def point(spec, axis, value):
    if axis == "d":
        return dataclasses.replace(spec, graph=dataclasses.replace(spec.graph, d=value))
    return dataclasses.replace(spec, params=dataclasses.replace(spec.params, theta=value))


class TestSharedGraphSweep:
    @pytest.mark.parametrize("protocol", ["trickle", "diffusion"])
    @pytest.mark.parametrize("axis,values", [("theta", [1.0, 2.0, 5.0]), ("d", [4, 6])])
    def test_same_reports_for_any_worker_count_and_as_single_runs(self, protocol, axis, values):
        base = rr_spec(protocol)
        seq = [outcome(r) for r in sweep(base, axis, values)]
        par = [outcome(r) for r in sweep(dataclasses.replace(base, workers=2), axis, values)]
        single = [outcome(run_experiment(point(base, axis, v))) for v in values]
        assert seq == par == single

    def test_one_build_per_distinct_graph(self, monkeypatch):
        real = harness.build_random_regular
        parent = os.getpid()
        builds = []

        def counting(*args, **kwargs):
            assert os.getpid() == parent, "a worker process built the graph"
            builds.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "build_random_regular", counting)
        thetas = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
        sweep(rr_spec(), "theta", thetas)
        assert len(builds) == 1
        sweep(rr_spec(workers=2), "theta", thetas)
        assert len(builds) == 2
        sweep(rr_spec(), "d", [4, 6, 8])
        assert [args[:2] for args in builds[2:]] == [(60, 4), (60, 6), (60, 8)]

    def test_one_tree_per_sweep_and_none_per_trial(self, monkeypatch):
        real = harness.lazy_regular_tree
        parent = os.getpid()
        builds = []

        def counting(*args, **kwargs):
            assert os.getpid() == parent, "a worker process built the tree"
            builds.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "lazy_regular_tree", counting)
        sweep(ft_spec(trials=50), "theta", [1.0, 2.0, 4.0])
        assert builds == [(4,)]
        sweep(ft_spec(trials=50, workers=2), "d", [3, 5])
        assert builds[1:] == [(3,), (5,)]

    def test_pool_shut_down_when_sweep_returns(self):
        reports = sweep(rr_spec(workers=2), "theta", [1.0, 2.0])
        assert len(reports) == 2
        assert_no_child_left()


class TestExactTreeAnchor:
    """Diffusion first-report p_hat from the tree's root against the exact sum."""

    def test_sum_is_the_closed_form_at_root_degree_d_minus_2(self):
        for d, theta in [(3, 0.5), (4, 1.0), (5, 1.0), (8, 3.0)]:
            assert tree_root_diffusion_ft(d, theta, root_degree=d - 2) == pytest.approx(
                diffusion_ft(d, theta).value, abs=1e-12)
        assert tree_root_diffusion_ft(4, 1.0) == pytest.approx(0.43278, abs=5e-6)

    @pytest.mark.parametrize("d, root_degree, theta, max_infections, seed", [
        (4, None, 1.0, None, 21),
        (5, None, 1.0, None, 22),
        (4, 2, 1.0, None, 23),
        (5, 3, 2.0, None, 24),
        (4, None, 1.0, 6, 25),
        (4, 2, 0.5, 3, 26),
        (6, 4, 1.0, 8, 27),
    ])
    def test_p_hat_within_four_standard_errors(self, d, root_degree, theta, max_infections,
                                               seed):
        trials = 5000  # 79 blocks
        spec = ExperimentSpec(GraphSpec(kind="tree", d=d, root_degree=root_degree),
                              SpreadParams("diffusion", theta=theta,
                                           max_infections=max_infections),
                              AdversarySpec("eavesdropper"), "first-timestamp",
                              trials=trials, master_seed=seed)
        exact = tree_root_diffusion_ft(d, theta, root_degree, max_infections)
        p_hat = run_experiment(spec).p_hat
        assert abs(p_hat - exact) <= 4 * math.sqrt(exact * (1 - exact) / trials), (p_hat, exact)


# A graph with cycles, unequal degrees and a triangle, as an edge list.
SMALL_EDGES = [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3), (0, 4), (4, 5), (5, 6), (6, 4),
               (2, 7), (7, 5)]


class TestExactTrickleAnchor:
    """Trickle first-report p_hat on graphs with cycles against the exact sum
    over every history (oracles.trickle_ft_exact), on the graph the oracle
    walked, passed to run_points."""

    TRIALS = 40_000

    def check(self, gspec, g, theta, sources, seed):
        spec = ExperimentSpec(gspec, SpreadParams("trickle", theta=theta),
                              AdversarySpec("eavesdropper"), "first-timestamp",
                              trials=self.TRIALS, master_seed=seed)
        p_hat = run_points([spec], graphs={(gspec, seed): g})[0].p_hat
        exact = float(trickle_ft_exact(g, theta, sources))
        assert abs(p_hat - exact) <= 4 * math.sqrt(exact * (1 - exact) / self.TRIALS), (
            p_hat, exact)

    def test_sum_matches_recorded_values(self):
        g = build_random_regular(12, 3, seed=4)
        assert float(trickle_ft_exact(g, 1, [0])) == pytest.approx(0.55689, abs=5e-6)
        assert float(trickle_ft_exact(g, 2, [0])) == pytest.approx(0.66863, abs=5e-6)

    @pytest.mark.parametrize("theta, seed", [(1, 31), (2, 32)])
    def test_random_regular_from_node_zero(self, theta, seed):
        self.check(GraphSpec("random-regular", d=3, n=12), build_random_regular(12, 3, seed=4),
                   theta, [0], seed)

    def test_edge_list_with_a_uniform_source(self, tmp_path):
        path = tmp_path / "small.edges"
        path.write_text("".join(f"{u} {v}\n" for u, v in SMALL_EDGES))
        g = load_edge_list(str(path))
        self.check(GraphSpec("file", path=str(path)), g, 1, range(g.node_count), 33)


def spy_ft_spec(graph, protocol, p, trials, seed, max_infections=None):
    return ExperimentSpec(graph, SpreadParams(protocol, theta=1, max_infections=max_infections),
                          AdversarySpec("spy", p=p), "first-timestamp", trials=trials,
                          master_seed=seed)


class TestFirstSpyStop:
    """Spy first-timestamp trials at t = infinity stop at the first spy: the
    exact anchor from the tree's root (oracles.spy_ft_exact), and the whole
    spread with a spy draw per node (oracles.full_spread_spy_ft_run) where
    the anchor does not reach."""

    TRIALS = 20_000

    def test_exact_sum_is_the_enumeration(self):
        p = Fraction(7, 10)
        for d, K, root_degree in [(3, 6, None), (4, 5, None), (5, 4, None), (4, 5, 2), (2, 6, 1)]:
            assert spy_ft_exact(d, K, p, root_degree).p_hit == enumerate_spy_ft(
                d, K, p, root_degree), (d, K, root_degree)
        # The values an order-by-order enumeration gave, at p = 0.7.
        for (d, K), want in {(3, 6): 0.82849, (4, 6): 0.829752, (5, 5): 0.829341,
                             (3, 8): 0.828715}.items():
            assert float(spy_ft_exact(d, K, p).p_hit) == pytest.approx(want, abs=5e-7)

    @pytest.mark.parametrize("d, K, p, root_degree, seed", [
        (5, 500, Fraction(7, 10), None, 41),  # perfbench's rc-fullspread spy-ft spec
        (3, 50, Fraction(1, 5), None, 42),
        (4, 60, Fraction(3, 10), 2, 43),
    ])
    def test_p_hat_and_mean_stop_time_within_four_standard_errors(self, d, K, p, root_degree,
                                                                  seed):
        exact = spy_ft_exact(d, K, p, root_degree)
        r = run_experiment(spy_ft_spec(GraphSpec("tree", d=d, root_degree=root_degree),
                                       "diffusion", float(p), self.TRIALS, seed, K))
        hit, mean, var = float(exact.p_hit), float(exact.mean_stop), float(exact.var_stop)
        assert abs(r.p_hat - hit) <= 4 * math.sqrt(hit * (1 - hit) / self.TRIALS), (r.p_hat, hit)
        assert abs(r.mean_stop_time - mean) <= 4 * math.sqrt(var / self.TRIALS), (
            r.mean_stop_time, mean)

    def check_against_full_spread(self, spec, g):
        p_hat = run_points([spec], graphs={(spec.graph, spec.master_seed): g})[0].p_hat
        ref = dataclasses.replace(spec, master_seed=spec.master_seed + 1)
        p_ref = full_spread_spy_ft_run(ref, g)[0] / ref.trials
        pooled = (p_hat + p_ref) / 2
        assert abs(p_hat - p_ref) <= 4 * math.sqrt(pooled * (1 - pooled) * 2 / spec.trials), (
            p_hat, p_ref)

    def test_trickle_ties_and_spies_past_the_horizon_match_the_full_spread(self, monkeypatch):
        spec = spy_ft_spec(GraphSpec("random-regular", d=4, n=200), "trickle", 0.05,
                           self.TRIALS, 44, max_infections=60)
        seen = []
        real = harness.observe_first_spy

        def recording(trace, j, p, rng):
            obs = real(trace, j, p, rng)
            seen.append((j, len(obs.spy_times)))
            return obs

        monkeypatch.setattr(harness, "observe_first_spy", recording)
        self.check_against_full_spread(spec, build_graph(spec.graph, spec.master_seed))
        # Spies that tie with the first, in its step, and first spies infected
        # in the step of the K-th infection but after it.
        assert sum(n > 1 for _, n in seen) > 100
        assert sum(j >= 60 for j, _ in seen) > 100

    @pytest.mark.parametrize("protocol", ["trickle", "diffusion"])
    def test_circulant_file_graph_with_drawn_sources_matches_the_full_spread(
            self, protocol, tmp_path):
        # The golden rows' 60-node circulant graph (offsets 1 and 7).
        path = tmp_path / "circulant.edges"
        path.write_text("".join(f"{v} {(v + k) % 60}\n" for v in range(60) for k in (1, 7)))
        path = str(path)
        spec = spy_ft_spec(GraphSpec("file", path=path), protocol, 0.2, self.TRIALS, 45)
        self.check_against_full_spread(spec, load_edge_list(path))

    @pytest.mark.parametrize("protocol", ["trickle", "diffusion"])
    @pytest.mark.parametrize("graph, K", [
        (GraphSpec("tree", d=3), 40),
        (GraphSpec("random-regular", d=4, n=100), None),
    ], ids=["tree", "random-regular"])
    def test_p_one_always_hits(self, graph, K, protocol):
        assert run_experiment(spy_ft_spec(graph, protocol, 1.0, 300, 46, K)).hits == 300

    @pytest.mark.parametrize("protocol", ["trickle", "diffusion"])
    @pytest.mark.parametrize("graph, K", [
        (GraphSpec("tree", d=3), 40),
        (GraphSpec("random-regular", d=4, n=100), 60),
        (GraphSpec("random-regular", d=4, n=100), None),
    ], ids=["tree", "random-regular-K", "random-regular"])
    def test_p_zero_draws_nothing_more_than_the_full_spread(self, graph, K, protocol):
        # No spy means no stop and no draw: every trial is the whole spread,
        # draw for draw, and a counted miss with that spread's stop time.
        spec = spy_ft_spec(graph, protocol, 0.0, 200, 47, K)
        g = build_graph(graph, spec.master_seed)
        r = run_points([spec], graphs={(graph, spec.master_seed): g})[0]
        hits, stops = full_spread_spy_ft_run(spec, g)
        assert r.hits == hits == 0
        assert r.mean_stop_time == math.fsum(stops) / len(stops)


def snapshot_spec(d, K, trials, seed):
    return ExperimentSpec(GraphSpec("tree", d=d),
                          SpreadParams("diffusion", theta=1.0, max_infections=K),
                          AdversarySpec("snapshot"), "rumor-centers", trials=trials,
                          master_seed=seed)


def stop_time_moments(d, K):
    """Mean and SD of T_K from the root of the uncut tree: K-1 independent
    exponential gaps with rates b_n = d + (n-1)(d-2), n < K."""
    rates = [d + (n - 1) * (d - 2) for n in range(1, K)]
    return math.fsum(1 / b for b in rates), math.sqrt(math.fsum(1 / b**2 for b in rates))


class TestSnapshotRumorCenters:
    """Snapshot rumor centers from the root of the uncut tree, stopped at the
    K-th infection: the exact anchor summed over every infection order
    (oracles.snapshot_rumor_centers_exact), and the stop time T_K."""

    TRIALS = 20_000

    def test_exact_values(self):
        assert [snapshot_rumor_centers_exact(d, K) for d, K in ((3, 6), (4, 6), (5, 5))] == [
            Fraction(5, 14), Fraction(47, 128), Fraction(9, 22)]

    @pytest.mark.parametrize("d, K, seed", [(3, 6, 51), (4, 6, 52), (5, 5, 53)])
    def test_p_hat_and_mean_stop_time_within_four_standard_errors(self, d, K, seed):
        hit = float(snapshot_rumor_centers_exact(d, K))
        mean, sd = stop_time_moments(d, K)
        r = run_experiment(snapshot_spec(d, K, self.TRIALS, seed))
        assert abs(r.p_hat - hit) <= 4 * math.sqrt(hit * (1 - hit) / self.TRIALS), (r.p_hat, hit)
        assert abs(r.mean_stop_time - mean) <= 4 * sd / math.sqrt(self.TRIALS), r.mean_stop_time

    def test_mean_stop_time_at_the_benchmark_size(self):
        # d=5, K=500, the snapshot spec of perfbench's rc-fullspread.
        trials = 1000
        mean, sd = stop_time_moments(5, 500)
        assert (round(mean, 5), round(sd, 5)) == (2.01106, 0.30035)
        r = run_experiment(snapshot_spec(5, 500, trials, 54))
        assert abs(r.mean_stop_time - mean) <= 4 * sd / math.sqrt(trials), r.mean_stop_time


def block_spec(graph, protocol, trials=1, workers=1):
    return ExperimentSpec(graph, SpreadParams(protocol, theta=1.0), AdversarySpec("eavesdropper"),
                          "first-timestamp", trials=trials, master_seed=13, workers=workers)


class TestBlocks:
    """Trials run in blocks of 64 on one stream each (harness._BLOCK)."""

    GRAPHS = [GraphSpec(kind="random-regular", d=4, n=60), GraphSpec(kind="tree", d=4)]

    @pytest.mark.parametrize("protocol", ["trickle", "diffusion"])
    @pytest.mark.parametrize("graph", GRAPHS, ids=["random-regular", "tree"])
    def test_rows_identical_at_any_worker_count(self, graph, protocol):
        rows = [[outcome(r) for r in run_points([block_spec(graph, protocol, n, w)
                                                 for n in (1, 63, 64, 65, 333)])]
                for w in (1, 2, 3)]
        assert rows[0] == rows[1] == rows[2]

    def test_pool_starts_only_the_workers_that_get_work(self, monkeypatch):
        forks = []
        real = os.fork

        def recording():
            forks.append(1)
            return real()

        monkeypatch.setattr(os, "fork", recording)
        graph = self.GRAPHS[0]
        # Calls of 1, 2 (two points) and 2 (one point of 100 trials) chunks:
        # the caller alone, then the caller and one child.
        calls = [[(64, 2)], [(10, 3), (64, 3)], [(100, 3)]]
        for call, processes in zip(calls, [1, 2, 2]):
            forks.clear()
            reports = run_points([block_spec(graph, "diffusion", n, w) for n, w in call])
            assert 1 + len(forks) == processes, call
            serial = run_points([block_spec(graph, "diffusion", n, 1) for n, _ in call])
            assert [outcome(r) for r in reports] == [outcome(r) for r in serial]
        assert_no_child_left()

    @pytest.mark.parametrize("graph", GRAPHS, ids=["random-regular", "tree"])
    def test_first_n_trials_are_the_run_of_n(self, graph, monkeypatch):
        outcomes = []
        real = harness.run_trial

        def recording(*args):
            outcomes.append(real(*args))
            return outcomes[-1]

        monkeypatch.setattr(harness, "run_trial", recording)
        run_experiment(block_spec(graph, "trickle", trials=333))
        full = list(outcomes)
        assert len(full) == 333 and len(set(full)) > 1
        for n in (1, 63, 64, 65, 200):
            outcomes.clear()
            run_experiment(block_spec(graph, "trickle", trials=n))
            assert outcomes == full[:n], n

    def test_each_block_shares_one_trc_memo(self, monkeypatch):
        # Blocks of 64, 64 and 22 trials: every TRC call of a block gets the
        # block's memo, and the rows equal those of calls that share none.
        spec = ExperimentSpec(GraphSpec(kind="tree", d=4),
                              SpreadParams("trickle", theta=1, max_time=5),
                              AdversarySpec("eavesdropper", estimation_time=5),
                              "timestamp-rumor-centrality", trials=150, master_seed=17)
        real = harness.timestamp_rumor_centrality
        memos, scores = [], {True: [], False: []}

        def run(share):
            def estimate(*args, memo):
                memos.append(memo)  # kept alive, so no two memos share an id
                res = real(*args, memo=memo if share else None)
                scores[share].append(res.score)
                return res

            monkeypatch.setattr(harness, "timestamp_rumor_centrality", estimate)
            return outcome(run_experiment(spec))

        assert run(True) == run(False)
        assert scores[True] == scores[False]
        shared = memos[:150]
        assert len(shared) == 150 and all(shared)
        assert [len({id(m) for m in shared[lo:lo + 64]}) for lo in (0, 64, 128)] == [1, 1, 1]
        assert len({id(m) for m in shared}) == 3

    @pytest.mark.parametrize("spec, simulate, first_report", [
        # The FT experiment at t = infinity stops at its first report.
        (ft_spec(theta=0.3, root_degree=2, seed=5), simulate_diffusion, True),
        (dataclasses.replace(block_spec(GraphSpec(kind="random-regular", d=4, n=60), "trickle"),
                             params=SpreadParams("trickle", theta=1, max_time=5),
                             adversary=AdversarySpec("eavesdropper", estimation_time=5)),
         simulate_trickle, False),
        # The spy FT experiment at t = infinity stops at its first spy.
        (spy_ft_spec(GraphSpec(kind="random-regular", d=4, n=60), "trickle", 0.1, 1, 13,
                     max_infections=50), simulate_trickle, False),
    ], ids=["first-report", "full-spread", "first-spy"])
    def test_trial_trace_is_trial_zero_on_the_given_graph(self, spec, simulate, first_report):
        g = harness.build_graph(spec.graph, spec.master_seed)
        rng = trial_stream(spec.master_seed, 0)
        params = spec.params
        if spec.adversary.model == "spy":
            # The first spy's position is drawn first; the spread stops there.
            j = first_spy_position(spec.adversary.p, rng)
            params = dataclasses.replace(params, max_infections=j + 1)
        expected = simulate(g, params, rng, source=0, first_report=first_report)
        assert trial_trace(spec, g) == expected
        if spec.adversary.model == "spy":
            assert j < len(expected.X) < 50
        else:
            assert (len(expected.reports) == 1) if first_report else expected.stop_time == 5

    # Every METHODS row on each protocol it runs on, at t = 5 and, for the
    # spy stop, at t = infinity too; at t = infinity an eavesdropper
    # first-timestamp trial runs first_report_trial, which makes no trace
    # (the first-report case above).
    TRACE_CASES = [(est, adv, protocol, t) for (est, adv), method in METHODS.items()
                   for protocol in method.theory
                   for t in ((None, 5) if method.stop == "spy" else (5,))]

    @pytest.mark.parametrize("est, adv, protocol, t", TRACE_CASES,
                             ids=[f"{e}-{a}-{p}-t{t}" for e, a, p, t in TRACE_CASES])
    def test_trial_trace_is_the_trace_run_trial_makes(self, est, adv, protocol, t, monkeypatch):
        spec = ExperimentSpec(GraphSpec(kind="balanced-tree", d=3, depth=5),
                              SpreadParams(protocol, theta=1, max_time=t),
                              AdversarySpec(adv, p=0.3 if adv == "spy" else None,
                                            estimation_time=t),
                              est, trials=1, master_seed=21)
        traces = []
        for name in ("simulate_trickle", "simulate_diffusion"):
            def recording(*args, real=getattr(harness, name), **kwargs):
                traces.append(real(*args, **kwargs))
                return traces[-1]
            monkeypatch.setattr(harness, name, recording)
        run_experiment(spec)
        assert len(traces) == 1
        assert trial_trace(spec, harness.build_graph(spec.graph, spec.master_seed)) == traces[0]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestForkedWorkers:
    """A call's chunks run in the caller and in children forked for it
    (harness._run_shares); no child outlives the call."""

    # Four chunks at 4 workers: the caller runs chunk 0, three children the rest.
    SPECS = [block_spec(GraphSpec(kind="random-regular", d=4, n=60), "diffusion", 256, 4)]

    def test_exception_in_a_child_reaches_the_caller(self, monkeypatch):
        parent, real = os.getpid(), harness._run_block

        def failing(spec, g, lo, hi):
            if os.getpid() != parent and lo == 128:
                raise KeyError(f"no trial {lo}")
            return real(spec, g, lo, hi)

        monkeypatch.setattr(harness, "_run_block", failing)
        with pytest.raises(KeyError, match="no trial 128"):
            run_points(self.SPECS)
        assert_no_child_left()

    def test_child_that_exits_without_a_report_is_an_error(self, monkeypatch):
        parent, real = os.getpid(), harness._run_block

        def exiting(spec, g, lo, hi):
            if os.getpid() != parent and lo == 64:
                os._exit(3)
            return real(spec, g, lo, hi)

        monkeypatch.setattr(harness, "_run_block", exiting)
        with pytest.raises(RuntimeError, match="not a whole report"):
            run_points(self.SPECS)
        assert_no_child_left()

    def test_children_killed_when_the_callers_share_raises(self, monkeypatch):
        parent = os.getpid()

        def stalling(spec, g, lo, hi):
            if os.getpid() == parent:
                raise ValueError("the caller's share failed")
            time.sleep(60)

        monkeypatch.setattr(harness, "_run_block", stalling)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="the caller's share failed"):
            run_points(self.SPECS)
        assert time.perf_counter() - start < 30
        assert_no_child_left()

    def test_without_fork_every_chunk_runs_in_the_caller(self, monkeypatch):
        forked = [outcome(r) for r in run_points(self.SPECS)]
        monkeypatch.delattr(os, "fork")
        parent, real = os.getpid(), harness._run_block
        chunks = []

        def recording(spec, g, lo, hi):
            assert os.getpid() == parent
            chunks.append(lo)
            return real(spec, g, lo, hi)

        monkeypatch.setattr(harness, "_run_block", recording)
        assert [outcome(r) for r in run_points(self.SPECS)] == forked
        assert chunks == [0, 64, 128, 192]
        assert_no_child_left()
