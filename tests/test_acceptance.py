"""Acceptance gate: one test per criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one pass line per
criterion.  Tolerances are fixed here, not calibrated.
"""

import math
import random
from fractions import Fraction

import pytest

from rumorlab.adversary import Observation, observe_eavesdropper, observe_spy
from rumorlab.analytics import (
    diffusion_ft,
    exponential_integral,
    reg_inc_beta_half,
    reporting_centrality_constant,
    trickle_ft_lower_bound,
    trickle_ml_lower,
    trickle_ml_upper,
)
from rumorlab.estimators import ball_centrality, reporting_centrality, spy_first_timestamp
from rumorlab.graphs import lazy_regular_tree
from rumorlab.harness import AdversarySpec, ExperimentSpec, GraphSpec, run_experiment
from rumorlab.spreading import SpreadParams, simulate_diffusion, simulate_trickle, trial_stream
from rumorlab.trc import ordering_count, timestamp_rumor_centrality
from oracles import (
    build_regular_tree,
    ei_quadrature,
    enumerate_histories,
    observation_atlas,
    reg_inc_beta_half_quadrature,
    urn_simulate,
)


def test_criterion_01_diffusion_first_timestamp_exactness():
    # 20,000 first-report trials per (d, theta), within 0.02 (~4 sigma) of the
    # closed form, simulated in the setting the formula solves exactly
    # (source relaying on d-2 connections).
    for d, theta in [(3, 1), (4, 1), (6, 1), (4, 2), (8, 1)]:
        spec = ExperimentSpec(
            graph=GraphSpec(kind="tree", d=d, root_degree=d - 2),
            params=SpreadParams("diffusion", theta=float(theta)),
            adversary=AdversarySpec("eavesdropper"),
            estimator="first-timestamp",
            trials=20_000,
            master_seed=101,
        )
        report = run_experiment(spec)
        theory = diffusion_ft(d, theta).value
        assert abs(report.p_hat - theory) <= 0.02, (d, theta, report.p_hat, theory)
        print(f"ACCEPTANCE 01 PASS d={d} theta={theta}: "
              f"p_hat={report.p_hat:.4f} theory={theory:.4f}")


def test_criterion_02_trickle_first_timestamp_lower_bound():
    # Strict-win rate >= bound - 0.02 and tie-broken >= strict for
    # d in {4, 8, 16}; at d=16 the bound is tight to within 0.03.
    rates = {}
    for d in (4, 8, 16):
        spec = ExperimentSpec(
            graph=GraphSpec(kind="tree", d=d),
            params=SpreadParams("trickle", theta=1),
            adversary=AdversarySpec("eavesdropper"),
            estimator="first-timestamp",
            trials=20_000,
            master_seed=102,
        )
        report = run_experiment(spec)
        bound = trickle_ft_lower_bound(d, 1).value
        assert report.strict_win_rate >= bound - 0.02, (d, report.strict_win_rate, bound)
        assert report.p_hat >= report.strict_win_rate
        rates[d] = (report.strict_win_rate, report.p_hat, bound)
    strict16, _, bound16 = rates[16]
    assert abs(strict16 - bound16) <= 0.03
    for d, (strict, tie, bound) in rates.items():
        print(f"ACCEPTANCE 02 PASS d={d}: strict={strict:.4f} "
              f"tie-broken={tie:.4f} bound={bound:.4f}")


def test_criterion_03_trickle_ml_sandwich():
    # Timestamp rumor centrality at d=4, theta=1, t=5 over 2,000 trials sits
    # between the closed-form floor and ceiling, near the ceiling.
    spec = ExperimentSpec(
        graph=GraphSpec(kind="tree", d=4),
        params=SpreadParams("trickle", theta=1, max_time=5),
        adversary=AdversarySpec("eavesdropper", estimation_time=5),
        estimator="timestamp-rumor-centrality",
        trials=2_000,
        master_seed=103,
    )
    report = run_experiment(spec)
    lower = trickle_ml_lower(4, 1, 5).value
    upper = trickle_ml_upper(4, 1).value
    assert lower == pytest.approx(0.27232)
    assert lower - 0.03 <= report.p_hat <= upper + 0.03, report.p_hat
    assert report.p_hat >= 0.55
    print(f"ACCEPTANCE 03 PASS: p_hat={report.p_hat:.4f} in "
          f"[{lower:.3f}-0.03, {upper:.3f}+0.03] and >= 0.55")


def test_criterion_04_ball_centrality_guarantees():
    # Source is inside the candidate ball intersection in every trial, and
    # uniform choice from it clears the closed-form floor.
    for d in (3, 4):
        t = d + 1
        params = SpreadParams("trickle", theta=1, max_time=t)
        hits = 0
        trials = 5_000
        for i in range(trials):
            rng = trial_stream(104 + d, i)
            g = lazy_regular_tree(d)
            trace = simulate_trickle(g, params, rng)
            obs = observe_eavesdropper(trace, t)
            result = ball_centrality(obs, g, rng)
            assert 0 in result.candidates, (d, i)
            hits += result.chosen == 0
        floor = trickle_ml_lower(d, 1, t).value
        p_hat = hits / trials
        assert p_hat >= floor - 0.02, (d, p_hat, floor)
        print(f"ACCEPTANCE 04 PASS d={d}: p_hat={p_hat:.4f} floor={floor:.4f} "
              "source in candidates 100%")


def test_criterion_05_trc_equals_ml_oracle():
    # Exhaustive check on the 7-node center window of a deep 2-regular line
    # at theta=1, t=4: for every reachable observation, the ordering-count
    # argmax equals the exact posterior argmax, all feasible histories of a
    # fixed observation have identical rational probability, and the
    # count/posterior ratio is one shared constant.  Exact, no tolerance.
    # The oracle walks the explicit balanced tree; the package counts on the
    # cut tree, built independently and numbered the same.
    g, cut = build_regular_tree(2, 10), lazy_regular_tree(2, depth=10)
    theta, t = 1, 4
    window = [0, 1, 2, 3, 4, 5, 6]  # root plus both branches to depth 3
    atlas = observation_atlas(g, window, theta, t)
    histories = {v: enumerate_histories(g, v, theta, t) for v in range(g.node_count)}

    assert len(atlas) > 100
    for key in atlas:
        support = sorted(v for v in range(g.node_count) if key in histories[v])
        candidates = sorted(v for v, times in key if min(times) <= 3)
        # the candidate rule covers the true support
        assert set(support) <= set(candidates), key

        all_probs = {p for v in support for p in histories[v][key]}
        assert len(all_probs) == 1, (key, all_probs)

        posterior = {v: sum(histories[v].get(key, []), Fraction(0)) for v in candidates}
        reports = {v: tuple(times) for v, times in key}
        counts = {v: ordering_count(cut, v, reports, t, theta) for v in candidates}

        ratios = {Fraction(counts[v]) / posterior[v] for v in support}
        assert len(ratios) == 1, key

        best_post = max(posterior.values())
        best_count = max(counts.values())
        argmax_post = {v for v in candidates if posterior[v] == best_post}
        argmax_count = {v for v in candidates if counts[v] == best_count}
        assert argmax_post == argmax_count, key
    print(f"ACCEPTANCE 05 PASS: {len(atlas)} observations, argmax sets equal, "
          "histories equiprobable, count/posterior ratio constant")


def test_criterion_06_reporting_centrality_floor():
    # d=5, theta=1, K=500 horizon, 4,000 trials: detection clears C_5 - 0.05
    # and the number of reporting centers is 0 or 1 in every trial.
    d, K, trials = 5, 500, 4_000
    params = SpreadParams("diffusion", theta=1.0, max_infections=K)
    hits = 0
    for i in range(trials):
        rng = trial_stream(106, i)
        g = lazy_regular_tree(d)
        trace = simulate_diffusion(g, params, rng)
        obs = observe_eavesdropper(trace, trace.stop_time)
        result = reporting_centrality(obs, g, rng=rng)
        assert len(result.candidates) in (0, 1), i
        hits += result.chosen == 0
    c5 = reporting_centrality_constant(5).value
    p_hat = hits / trials
    assert p_hat >= c5 - 0.05, (p_hat, c5)
    print(f"ACCEPTANCE 06 PASS: p_hat={p_hat:.4f} C_5={c5:.4f} "
          "centers per trial always in {0, 1}")


def test_criterion_07_rc_constant_limit():
    value = reporting_centrality_constant(10_000).value
    assert abs(value - 0.307) <= 0.01
    print(f"ACCEPTANCE 07 PASS: C_10000={value:.5f} within 0.01 of 0.307")


def test_criterion_08_spy_corollary():
    # d=5, p=0.7, K=500: reporting centrality on spy observations clears
    # C_5 - 0.1 (liminf slack); spy first-timestamp clears p - 0.02.
    d, K, p, trials = 5, 500, 0.7, 4_000
    params = SpreadParams("diffusion", theta=1.0, max_infections=K)
    rc_hits = 0
    ft_hits = 0
    for i in range(trials):
        rng = trial_stream(108, i)
        g = lazy_regular_tree(d)
        trace = simulate_diffusion(g, params, rng)
        obs = observe_spy(trace, p, trace.stop_time, rng)
        if obs.spy_times:
            rc = reporting_centrality(obs, g, rng=rng)
            rc_hits += rc.chosen == 0
            ft_hits += spy_first_timestamp(obs, rng).chosen == 0
    c5 = reporting_centrality_constant(5).value
    rc_rate, ft_rate = rc_hits / trials, ft_hits / trials
    assert rc_rate >= c5 - 0.1, (rc_rate, c5)
    assert ft_rate >= p - 0.02, ft_rate
    print(f"ACCEPTANCE 08 PASS: spy RC p_hat={rc_rate:.4f} (C_5-0.1={c5-0.1:.4f}), "
          f"spy FT p_hat={ft_rate:.4f} (p-0.02={p-0.02:.2f})")


def test_criterion_09_urn_convergence():
    # d=4, theta=2, 1e5 draws, 100 repetitions: striped/solid near 1/2.
    devs = []
    for rep in range(100):
        traj = urn_simulate(4, 2, 100_000, random.Random(10_900 + rep))
        solid, striped = traj[-1]
        devs.append(abs(striped / solid - 0.5))
    mean_dev = sum(devs) / len(devs)
    assert mean_dev <= 0.01, mean_dev
    print(f"ACCEPTANCE 09 PASS: mean |striped/solid - 1/2| = {mean_dev:.5f}")


def test_criterion_10_special_functions_vs_quadrature():
    # Log-spaced grids, both signs for Ei: 1e-8 relative; the regularized
    # incomplete beta at 1/2: 1e-10 absolute.
    grid = [10.0 ** e for e in (-4, -3, -2, -1, -0.5, 0, 0.5, 1, 1.3, 1.6)]
    worst_ei = 0.0
    for x in grid + [-x for x in grid]:
        mine = exponential_integral(x)
        oracle = ei_quadrature(x)
        rel = abs(mine - oracle) / abs(oracle)
        worst_ei = max(worst_ei, rel)
        assert rel <= 1e-8, (x, mine, oracle)
    beta_grid = [10.0 ** e for e in (-3, -2, -1, 0, 0.5, 1)]
    worst_beta = 0.0
    for a in beta_grid:
        for b in beta_grid:
            mine = reg_inc_beta_half(a, b)
            oracle = reg_inc_beta_half_quadrature(a, b)
            err = abs(mine - oracle)
            worst_beta = max(worst_beta, err)
            assert err <= 1e-10, (a, b, mine, oracle)
    print(f"ACCEPTANCE 10 PASS: Ei worst rel={worst_ei:.2e}, "
          f"I_1/2 worst abs={worst_beta:.2e}")


def test_criterion_11_random_graph_theta_sweep():
    # 8-regular random graph on 2,000 nodes, theta = 1..8, 5,000 first-report
    # trials per point: both protocols strictly increase in theta, diffusion
    # never beats trickle by more than 0.03, and the trickle-diffusion gap at
    # theta=8 is at most the gap at theta=1 plus 0.03.
    trials = 5_000
    curves = {}
    for protocol in ("trickle", "diffusion"):
        phats = []
        for theta in range(1, 9):
            spec = ExperimentSpec(
                graph=GraphSpec(kind="random-regular", d=8, n=2_000),
                params=SpreadParams(protocol, theta=float(theta)),
                adversary=AdversarySpec("eavesdropper"),
                estimator="first-timestamp",
                trials=trials,
                master_seed=111,
            )
            phats.append(run_experiment(spec).p_hat)
        curves[protocol] = phats
        assert all(b > a for a, b in zip(phats, phats[1:])), (protocol, phats)
    for tr, df in zip(curves["trickle"], curves["diffusion"]):
        assert df <= tr + 0.03, (tr, df)
    gap_1 = curves["trickle"][0] - curves["diffusion"][0]
    gap_8 = curves["trickle"][7] - curves["diffusion"][7]
    assert gap_8 <= gap_1 + 0.03, (gap_1, gap_8)
    print("ACCEPTANCE 11 PASS: trickle "
          + " ".join(f"{x:.3f}" for x in curves["trickle"])
          + " | diffusion "
          + " ".join(f"{x:.3f}" for x in curves["diffusion"])
          + f" | gaps {gap_1:.3f} -> {gap_8:.3f}")
