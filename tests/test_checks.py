"""Inputs that would make an experiment or a closed form meaningless are
rejected with ValueError when they are passed in: an integer input that is
infinite, NaN, fractional or below its least value, a real rate or time that
is not finite, and a worker count below one."""

import math
import random

import pytest

from rumorlab.analytics import (
    diffusion_ft,
    reporting_centrality_constant,
    trickle_ft_asymptotic,
    trickle_ft_lower_bound,
    trickle_ml_lower,
)
from rumorlab.graphs import lazy_regular_tree
from rumorlab.harness import AdversarySpec, ExperimentSpec, GraphSpec
from rumorlab.spreading import SpreadParams
from rumorlab.trc import check_setting

from oracles import enumerate_histories, urn_simulate

TREE = lazy_regular_tree(3, depth=2)


def _spec(trials=10, workers=1):
    return ExperimentSpec(GraphSpec("tree", d=4), SpreadParams("diffusion"),
                          AdversarySpec("eavesdropper"), "first-timestamp",
                          trials=trials, master_seed=0, workers=workers)


# Each integer input: a call with x in its place, and the least value it takes.
INTEGER_INPUTS = {
    "trickle_ft_lower_bound-d": (lambda x: trickle_ft_lower_bound(x, 1), 2),
    "trickle_ft_lower_bound-theta": (lambda x: trickle_ft_lower_bound(4, x), 1),
    "trickle_ft_asymptotic-d": (trickle_ft_asymptotic, 2),
    "reporting_centrality_constant-d": (reporting_centrality_constant, 3),
    "urn_simulate-d": (lambda x: urn_simulate(x, 1, 5, random.Random(0)), 3),
    "urn_simulate-theta": (lambda x: urn_simulate(4, x, 5, random.Random(0)), 1),
    "enumerate_histories-theta": (lambda x: enumerate_histories(TREE, 0, x, 2), 1),
    "enumerate_histories-t": (lambda x: enumerate_histories(TREE, 0, 1, x), 0),
    "SpreadParams-trickle-theta": (lambda x: SpreadParams("trickle", theta=x), 1),
    "check_setting-theta": (lambda x: check_setting(4, x), 1),
    "SpreadParams-max_infections": (lambda x: SpreadParams("diffusion", max_infections=x), 1),
    "GraphSpec-d": (lambda x: GraphSpec("tree", d=x), 2),
    "GraphSpec-n": (lambda x: GraphSpec("random-regular", d=2, n=x), 3),
    "GraphSpec-depth": (lambda x: GraphSpec("balanced-tree", d=3, depth=x), 0),
    "GraphSpec-root_degree": (lambda x: GraphSpec("tree", d=4, root_degree=x), 1),
    "ExperimentSpec-trials": (lambda x: _spec(trials=x), 1),
    "ExperimentSpec-workers": (lambda x: _spec(workers=x), 1),
}


@pytest.mark.parametrize("bad", ["inf", "nan", "2.5", "below"])
@pytest.mark.parametrize("name", INTEGER_INPUTS)
def test_integer_input_rejects(name, bad):
    call, least = INTEGER_INPUTS[name]
    x = {"inf": math.inf, "nan": math.nan, "2.5": 2.5, "below": least - 1}[bad]
    with pytest.raises(ValueError):
        call(x)


@pytest.mark.parametrize("name", INTEGER_INPUTS)
def test_integer_input_takes_its_least_value_as_a_float(name):
    call, least = INTEGER_INPUTS[name]
    call(float(least))


@pytest.mark.parametrize("x", [math.inf, math.nan])
def test_closed_forms_reject_non_finite_reals(x):
    with pytest.raises(ValueError):
        diffusion_ft(4, x)
    with pytest.raises(ValueError):
        trickle_ml_lower(4, 1, x)


@pytest.mark.parametrize("x", [math.inf, math.nan])
def test_spread_params_reject_non_finite_reals(x):
    with pytest.raises(ValueError):
        SpreadParams("diffusion", theta=x)
    for protocol in ("trickle", "diffusion"):
        with pytest.raises(ValueError):
            SpreadParams(protocol, max_time=x)
    SpreadParams("diffusion", theta=0.5, max_time=None)


@pytest.mark.parametrize("t", [math.inf, math.nan, -1.0])
def test_estimation_time_is_finite_and_nonnegative(t):
    with pytest.raises(ValueError):
        AdversarySpec("eavesdropper", estimation_time=t)
    assert AdversarySpec("eavesdropper", estimation_time=0.0).estimation_time == 0.0


def test_experiment_needs_a_worker():
    with pytest.raises(ValueError, match="workers"):
        _spec(workers=0)
    assert _spec(workers=1).workers == 1
