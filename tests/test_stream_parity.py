"""The simulators' inline draws, the configuration model's inline shuffle
and adjacency-list pairing, the parent-free first-report path and the
parent-id Steiner build against the stdlib-wrapper and traced references,
bit for bit.

The simulators and build_random_regular draw straight from random.Random's
generator, relying on how CPython's expovariate, randrange and shuffle use
random() and getrandbits().
So this module needs neither pytest nor scipy: besides the Tier-1 run it
runs as a plain script on any interpreter,

    PYTHONPATH=src:tests python tests/test_stream_parity.py

which calls every test function here and exits 1 if one fails.
"""

import hashlib
import random
import sys
from functools import partial
from math import log

from oracles import (
    path_steiner_parents,
    reference_random_regular,
    stdlib_simulate_diffusion,
    stdlib_simulate_trickle,
)

from rumorlab import graphs
from rumorlab.estimators import _steiner_parents
from rumorlab.graphs import ExplicitGraph, _shuffle, build_random_regular, lazy_regular_tree
from rumorlab.spreading import (
    FirstReport,
    SpreadParams,
    first_report_trial,
    simulate_diffusion,
    simulate_trickle,
    trial_stream,
)


def _graphs():
    return [
        ("tree d=5", lazy_regular_tree(5)),
        ("tree d=3 root 1", lazy_regular_tree(3, root_degree=1)),
        ("cut tree d=3 depth 4", lazy_regular_tree(3, depth=4)),
        ("random-regular n=200 d=4", build_random_regular(200, 4, seed=1)),
        ("tree d=2", lazy_regular_tree(2)),
        ("cut tree d=3 depth 0", lazy_regular_tree(3, depth=0)),
        ("cut tree d=4 depth 1", lazy_regular_tree(4, depth=1)),
    ]


def _horizons(protocol, finite):
    """(max_time, max_infections) pairs; the infinite tree needs one."""
    cases = [(2.0 if protocol == "diffusion" else 4, None), (None, 60), (1.5, 25)]
    return cases + [(None, None)] * finite


def test_exponential_draw_equals_expovariate():
    for seed in range(20):
        a, b = random.Random(seed), random.Random(seed)
        for rate in (1.0, 0.25, 3.0, 7 * 0.5, 1e-3, 4096.0):
            for _ in range(50):
                assert -log(1.0 - a.random()) / rate == b.expovariate(rate)
        assert a.getstate() == b.getstate()


def test_rejection_pick_equals_randrange():
    for seed in range(20):
        a, b = random.Random(seed), random.Random(seed)
        for n in [*range(1, 70), 2**31 - 1, 2**31 + 1, 10**12, 2**64 + 3]:
            k = n.bit_length()
            i = a.getrandbits(k)
            while i >= n:
                i = a.getrandbits(k)
            assert i == b.randrange(n)
        assert a.getstate() == b.getstate()


def test_inline_shuffle_equals_random_shuffle():
    for seed in range(20):
        a, b = random.Random(seed), random.Random(seed)
        for n in [*range(71), 16_000]:
            x, y = list(range(n)), list(range(n))
            _shuffle(x, a.getrandbits)
            b.shuffle(y)
            assert x == y, (seed, n)
            assert a.getstate() == b.getstate(), (seed, n)


def _small_builds(restarts):
    """Build every feasible (n, d) below 16 nodes at 30 seeds each, by the
    generator and the edge-set reference, both with the given number of
    restarts; return how many were built and how many failed."""
    outcomes = {"built": 0, "failed": 0}

    def adj(build, n, d, seed):
        try:
            return build(n, d, seed)._adj
        except RuntimeError:
            return "failed"

    saved, graphs._RR_RESTARTS = graphs._RR_RESTARTS, restarts
    try:
        for n in range(1, 16):
            for d in range(n):
                if n * d % 2:
                    continue
                for seed in range(30):
                    got = adj(build_random_regular, n, d, seed)
                    want = adj(partial(reference_random_regular, restarts=restarts), n, d, seed)
                    assert got == want, (n, d, seed, restarts)
                    outcomes["failed" if got == "failed" else "built"] += 1
    finally:
        graphs._RR_RESTARTS = saved
    assert sum(outcomes.values()) == 92 * 30, outcomes
    return outcomes


def test_random_regular_equals_edge_set_reference():
    # At the generator's own restart count thousands of tries restart and
    # no build fails.
    assert _small_builds(graphs._RR_RESTARTS)["failed"] == 0


def test_random_regular_fails_where_the_reference_fails():
    # With one try, a build fails where the first pairing gets stuck.
    outcomes = _small_builds(1)
    assert min(outcomes.values()) > 0, outcomes


def test_random_regular_hashes_unchanged():
    # The lists of the edge-set build this generator replaced, seeds 0-14.
    want = {
        (2000, 8): "090ef889514de0230fb52428f964c49f2e277277e42ecfc7bf048ab77f3ec428",
        (200, 4): "97fe17004db9501bd625f35312944185fef83c28109e6b1aeb28a98d176fc1fc",
    }
    for (n, d), digest in want.items():
        h = hashlib.sha256()
        for seed in range(15):
            h.update(repr(build_random_regular(n, d, seed)._adj).encode())
        assert h.hexdigest() == digest, (n, d)


def test_generated_graph_passes_the_public_constructor():
    for n, d, seed in ((200, 4, 1), (2000, 8, 3), (15, 14, 0), (12, 5, 7)):
        g = build_random_regular(n, d, seed)
        checked = ExplicitGraph(g._adj)
        assert checked._adj == g._adj
        assert g.node_labels is None


def test_diffusion_equals_stdlib_reference():
    # Spreads from the root of a tree add child id ranges and test no fired
    # relay for infection; the rest filter neighbors and test.  Both
    # branches of the one relay loop must meet the one reference, with and
    # without report draws.
    runs = {"root": 0, "general": 0}
    for name, g in _graphs():
        finite = g.node_count != float("inf")
        for max_time, max_inf in _horizons("diffusion", finite):
            for theta in (1.0, 0.6):
                params = SpreadParams("diffusion", theta=theta,
                                      max_time=max_time, max_infections=max_inf)
                for first_report, reports in ((False, True), (True, True), (False, False)):
                    for i, source in enumerate((0, 0, 0, 1, 2, 9)):
                        source = min(source, g.node_count - 1)
                        a, b = trial_stream(11, i), trial_stream(11, i)
                        got = simulate_diffusion(g, params, a, source=source,
                                                 first_report=first_report, reports=reports)
                        want = stdlib_simulate_diffusion(g, params, b, source=source,
                                                         first_report=first_report,
                                                         reports=reports)
                        case = (name, params, first_report, reports, i)
                        assert got == want, case
                        assert list(got.X) == list(want.X)
                        assert list(got.parent.items()) == list(want.parent.items())
                        assert a.getstate() == b.getstate(), case
                        assert reports or got.reports == {}, case
                        runs["root" if g.is_lazy and source == 0 else "general"] += 1
    # 2 thetas x 3 draw settings per horizon.  The five trees of more than
    # one node (17 horizons) start 3 of 6 runs at the root; all 6 runs start
    # at the root of the one-node tree and off any tree on the random graph
    # (4 horizons each).
    assert runs == {"root": 2 * 3 * (17 * 3 + 4 * 6), "general": 2 * 3 * (17 * 3 + 4 * 6)}


def test_trickle_equals_stdlib_reference():
    for name, g in _graphs():
        finite = g.node_count != float("inf")
        for max_time, max_inf in _horizons("trickle", finite):
            for theta in (1, 3):
                params = SpreadParams("trickle", theta=theta, max_time=max_time,
                                      max_infections=max_inf)
                for first_report in (False, True):
                    for i in range(6):
                        a, b = trial_stream(12, i), trial_stream(12, i)
                        got = simulate_trickle(g, params, a, first_report=first_report)
                        want = stdlib_simulate_trickle(g, params, b, first_report=first_report)
                        assert got == want, (name, params, first_report, i)
                        assert list(got.X) == list(want.X)
                        assert a.getstate() == b.getstate(), (name, params, i)
    # A node with one slot serves it without a draw.
    a = trial_stream(0, 0)
    state = a.getstate()
    tr = simulate_trickle(ExplicitGraph([[]]), SpreadParams("trickle", theta=1), a)
    assert tr.reports == {0: [1]} and a.getstate() == state


def test_first_report_trial_equals_the_traced_run():
    # first_report_trial keeps no parents and builds no trace.  It must give
    # the reporters and time of the traced run under the same stop rule, and
    # leave the stream where that run leaves it.
    outcomes = {"reported": 0, "silent": 0}
    for name, g in _graphs():
        finite = g.node_count != float("inf")
        sources = [s for s in (0, 3) if s < g.node_count]
        for protocol, sim in (("trickle", simulate_trickle), ("diffusion", simulate_diffusion)):
            for max_time, max_inf in _horizons(protocol, finite):
                for theta in (1, 3):
                    params = SpreadParams(protocol, theta=theta, max_time=max_time,
                                          max_infections=max_inf)
                    for source in sources:
                        for i in range(6):
                            a, b = trial_stream(15, i), trial_stream(15, i)
                            got = first_report_trial(g, params, a, source=source)
                            trace = sim(g, params, b, source=source, first_report=True)
                            reporters = frozenset(trace.reports)
                            want = FirstReport(reporters, trace.stop_time if reporters else None)
                            case = (name, params, source, i)
                            assert type(got) is FirstReport, case
                            assert type(got.reporters) is frozenset, case
                            assert got == want, case
                            assert a.getstate() == b.getstate(), case
                            outcomes["reported" if reporters else "silent"] += 1
    assert min(outcomes.values()) > 0, outcomes


def _terminal_sets(g, rng):
    """Infected sets of diffusion spreads, random subsets of them (as the
    reporters and spies are), and scattered node sets."""
    finite = g.node_count != float("inf")
    params = SpreadParams("diffusion", max_infections=120)
    for i in range(12):
        trace = simulate_diffusion(g, params, trial_stream(13, i),
                                   source=i if finite else 0)
        infected = list(trace.X)
        yield infected
        yield rng.sample(infected, max(1, len(infected) // 3))
        yield rng.sample(infected, 2)
    top = g.node_count if finite else 5000
    for size in (1, 2, 5, 40):
        yield rng.sample(range(top), size)


def test_steiner_parents_equal_path_reference():
    rng = random.Random(14)
    graphs = [g for _, g in _graphs()[:3]]
    graphs += [lazy_regular_tree(4), lazy_regular_tree(2), lazy_regular_tree(5, depth=3)]
    for g in graphs:
        for terminals in _terminal_sets(g, rng):
            got = _steiner_parents(g, terminals)
            want = path_steiner_parents(g, terminals)
            assert list(got.items()) == list(want.items()), (g, sorted(terminals))


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception as exc:  # report every test, then fail the run
            failed += 1
            print(f"FAIL {name}: {exc!r}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed} passed, {failed} failed on Python {sys.version.split()[0]}")
    sys.exit(1 if failed else 0)
