"""Monte Carlo experiment orchestration.

An ExperimentSpec bundles a graph recipe, spreading parameters, an adversary,
one of five estimator ids, a trial count, and a master seed.  METHODS says
which estimator runs with which adversary (first-timestamp in eavesdropper and
spy forms), protocol and graph, and with which closed form.  run_experiment
runs the trials in blocks of _BLOCK = 64: block b draws from one rng stream,
trial_stream(master_seed, b), on which its trials simulate, observe and
estimate in order.  Beside its stream, each block opens one memo of
timestamp-rumor-centrality count rows, which its trials share and which is
dropped when the block ends (rumorlab.trc).  run_experiment aggregates hits
into a DetectionReport with a Wilson 95% interval, a theory overlay where a
closed form applies, and the strict-win rate where that form is the trickle
strict-win bound.
sweep runs one spec per axis value and run_experiment is its one-point case:
each distinct (GraphSpec, master_seed) graph is built once, by the caller or
in the calling process, and shared by every point and worker.  A point's
trials split into at most spec.workers chunks of whole blocks, and the
chunks of a call run on W = min(max spec.workers, chunks in the call)
processes: the calling process and W - 1 children forked once the graphs
exist, which inherit them without pickling.  The chunks are dealt to the
processes snake-wise (0..W-1, then W-1..0, ...), so each gets about the
same share of every point.  Each child sends its results back on a pipe
and exits; every child has exited and been reaped before the call returns
or raises.  Where os.fork does not exist, every chunk runs in the calling
process.

Reports are reproducible bit-for-bit: streams and memos belong to a block,
not a worker, each worker runs whole blocks, and a memo row is reused only
where all it depends on is equal, so the result is independent of the
worker count, and the first n trials of a run are the trials of a run of n.
All tie-break draws happen on the block's stream after the trial's
simulation draws, so one trial's draw count shifts the later trials of its
block, but no other block.
"""

import math
import os
import pickle
import signal
from dataclasses import dataclass, replace

from . import analytics
from ._checks import integer
from .adversary import (
    first_spy_position,
    observe_eavesdropper,
    observe_first_spy,
    observe_snapshot,
    observe_spy,
)
from .estimators import (
    EstimateResult,
    _pick_uniform,
    ball_centrality,
    first_timestamp,
    reporting_centrality,
    rumor_centers,
    spy_first_timestamp,
)
from .graphs import build_random_regular, check_random_regular, lazy_regular_tree, load_edge_list
from .spreading import (
    SpreadParams,
    first_report_trial,
    simulate_diffusion,
    simulate_trickle,
    trial_stream,
)
from .trc import check_setting, timestamp_rumor_centrality


@dataclass(frozen=True)
class Method:
    """How one (estimator, adversary) pair runs.

    theory maps each protocol the pair runs on to the analytics.FORMULAS id of
    its closed form there, or None.  estimate(obs, g, t, rng, theta, memo)
    returns an EstimateResult; memo is the block's dict of count rows, which
    only timestamp rumor centrality reads.  estimate looks the layer
    functions up in this module when the trial runs.  trees_only rejects
    graphs with cycles; keep_all keeps every eavesdropper tap; stop is where
    a trial ends when t = infinity (_stop): "report" at the first report,
    "spy" at the first spy, since nothing after it can change the estimate,
    or None for the full spread.
    """

    theory: dict
    estimate: object
    trees_only: bool = False
    keep_all: bool = False
    stop: str | None = None


def _rumor_center(obs, g, t, rng, theta, memo):
    """The snapshot baseline: a uniform pick among the rumor centers."""
    centers = frozenset(rumor_centers(g, obs.snapshot))
    return EstimateResult(_pick_uniform(centers, rng), centers)


_RC = Method({"trickle": None, "diffusion": "rc_constant"},
             lambda obs, g, t, rng, theta, memo: reporting_centrality(obs, g, rng),
             trees_only=True)

METHODS = {
    ("first-timestamp", "eavesdropper"): Method(
        {"trickle": "trickle_ft_lb", "diffusion": "diffusion_ft"},
        lambda obs, g, t, rng, theta, memo: first_timestamp(obs, rng), stop="report"),
    ("first-timestamp", "spy"): Method(
        {"trickle": "spy_ft_lb", "diffusion": "spy_ft_lb"},
        lambda obs, g, t, rng, theta, memo: spy_first_timestamp(obs, rng), stop="spy"),
    ("ball-centrality", "eavesdropper"): Method(
        {"trickle": "trickle_ml_lb"},
        lambda obs, g, t, rng, theta, memo: ball_centrality(obs, g, rng)),
    ("timestamp-rumor-centrality", "eavesdropper"): Method(
        {"trickle": "trickle_ml_ub"},
        lambda obs, g, t, rng, theta, memo: timestamp_rumor_centrality(obs, g, int(t), rng, theta,
                                                                      memo=memo),
        trees_only=True, keep_all=True),
    ("reporting-centrality", "eavesdropper"): _RC,
    ("reporting-centrality", "spy"): _RC,
    ("rumor-centers", "snapshot"): Method(
        {"trickle": None, "diffusion": None}, _rumor_center, trees_only=True),
}

ESTIMATORS = tuple(dict.fromkeys(est for est, _ in METHODS))

ADVERSARIES = tuple(dict.fromkeys(adv for _, adv in METHODS))

GRAPH_KINDS = ("tree", "balanced-tree", "random-regular", "file")


# The one graph kind that reads each optional GraphSpec field.
_FIELD_KIND = {"root_degree": "tree", "depth": "balanced-tree", "n": "random-regular",
               "path": "file"}


@dataclass(frozen=True)
class GraphSpec:
    """Recipe for the trial topology.

    kind: 'tree' (infinite regular tree, numbered breadth first),
    'balanced-tree' (the same tree cut at depth hops, needs depth),
    'random-regular' (needs n; seeded by the master seed), or 'file' (edge
    list path).  Every graph is immutable: it is built once per sweep, in the
    calling process, and shared by every point and worker.
    root_degree modifies only the infinite tree's root (the diffusion
    first-timestamp closed form is exact for root_degree = d - 2).  A kind
    rejects the fields it would ignore: root_degree, depth, n and path each
    belong to one kind.  A spec names only graphs that can be built: a tree
    needs d >= 2, a random-regular graph an even n*d and d < n.
    """

    kind: str
    d: int | None = None
    n: int | None = None
    depth: int | None = None
    path: str | None = None
    root_degree: int | None = None

    def __post_init__(self):
        if self.kind not in GRAPH_KINDS:
            raise ValueError(f"unknown graph kind {self.kind!r}")
        for field, least in (("d", 1), ("n", 1), ("depth", 0), ("root_degree", 1)):
            if getattr(self, field) is not None:
                object.__setattr__(self, field, integer(field, getattr(self, field), least))
        if self.kind in ("tree", "balanced-tree", "random-regular") and self.d is None:
            raise ValueError(f"graph kind {self.kind!r} needs d")
        if self.kind in ("tree", "balanced-tree") and self.d < 2:
            raise ValueError(f"regular tree degree must be >= 2, got {self.d}")
        if self.kind == "balanced-tree" and self.depth is None:
            raise ValueError("balanced-tree needs depth")
        if self.kind == "random-regular":
            if self.n is None:
                raise ValueError("random-regular needs n")
            check_random_regular(self.n, self.d)
        if self.kind == "file" and not self.path:
            raise ValueError("file graph needs path")
        for field, kind in _FIELD_KIND.items():
            if getattr(self, field) is not None and self.kind != kind:
                raise ValueError(f"{field} belongs to the {kind} graph; "
                                 f"the {self.kind} graph takes none")


@dataclass(frozen=True)
class AdversarySpec:
    """model + its parameters; estimation_time is a finite t >= 0, or None
    for the realized horizon (stop_time) of full simulations and t = infinity
    for first-report experiments."""

    model: str = "eavesdropper"
    p: float | None = None
    estimation_time: float | None = None

    def __post_init__(self):
        if self.model not in ADVERSARIES:
            raise ValueError(f"unknown adversary model {self.model!r}")
        if self.model == "spy" and (self.p is None or not 0 <= self.p <= 1):
            raise ValueError("spy adversary needs p in [0, 1]")
        if self.model != "spy" and self.p is not None:
            raise ValueError(f"p is the spy probability; the {self.model} adversary takes none")
        t = self.estimation_time
        if t is not None and not 0 <= t < math.inf:
            raise ValueError(f"estimation time must be finite and >= 0, got {t}")


@dataclass(frozen=True)
class ExperimentSpec:
    graph: GraphSpec
    params: SpreadParams
    adversary: AdversarySpec
    estimator: str
    trials: int
    master_seed: int
    workers: int = 1

    def __post_init__(self):
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"unknown estimator {self.estimator!r}")
        object.__setattr__(self, "trials", integer("trials", self.trials, 1))
        object.__setattr__(self, "workers", integer("workers", self.workers, 1))
        _check_compatible(self)


def _check_compatible(spec):
    est, adv, proto = spec.estimator, spec.adversary.model, spec.params.protocol
    method = METHODS.get((est, adv))
    if method is None:
        adversaries = " or ".join(a for e, a in METHODS if e == est)
        raise ValueError(f"{est} runs with the {adversaries} adversary")
    if proto not in method.theory:
        raise ValueError(f"{est} with the {adv} runs on {' or '.join(method.theory)} only")
    if method.trees_only and spec.graph.kind in ("random-regular", "file"):
        raise ValueError(f"{est} is defined on trees only (graph kind tree or balanced-tree)")
    p = spec.params
    if (spec.graph.kind == "tree" and p.max_time is None and p.max_infections is None
            and _stop(method, spec.adversary) != "report"):
        raise ValueError("a full simulation on the infinite tree needs a horizon: "
                         "max_time (--t) or max_infections (--max-infections)")
    if est == "timestamp-rumor-centrality":
        t = spec.adversary.estimation_time
        if t is None:
            t = p.max_time
        if t is None:
            raise ValueError("timestamp rumor centrality needs an estimation time (--t)")
        if p.max_infections is not None or (p.max_time is not None and p.max_time < t):
            raise ValueError(f"timestamp rumor centrality counts a spread run through the "
                             f"estimation time {t}: it takes no max_infections "
                             "(--max-infections) and no max_time below t")
        if spec.graph.d > 6:
            raise ValueError(f"degree {spec.graph.d} exceeds the timestamp rumor "
                             "centrality guardrail of 6")
        check_setting(spec.graph.d, p.theta, t, spec.graph.root_degree)


@dataclass
class DetectionReport:
    spec: ExperimentSpec
    hits: int
    trials: int
    p_hat: float
    ci_low: float
    ci_high: float
    strict_win_rate: float | None = None
    theory: float | None = None
    mean_stop_time: float | None = None

    def csv_fields(self):
        g, a, p = self.spec.graph, self.spec.adversary, self.spec.params
        t_or_k = (
            p.max_infections
            if p.max_infections is not None
            else (a.estimation_time if a.estimation_time is not None else p.max_time)
        )
        return {
            "protocol": p.protocol,
            "estimator": self.spec.estimator,
            "adversary": a.model,
            "d": g.d if g.d is not None else "",
            "theta": p.theta,
            "t_or_K": t_or_k if t_or_k is not None else "inf",
            "p": a.p if a.p is not None else "",
            "trials": self.trials,
            "hits": self.hits,
            "p_hat": repr(self.p_hat),
            "ci_low": repr(self.ci_low),
            "ci_high": repr(self.ci_high),
            "strict_win_rate": "" if self.strict_win_rate is None else repr(self.strict_win_rate),
            "theory": "" if self.theory is None else repr(self.theory),
            "seed": self.spec.master_seed,
        }


CSV_COLUMNS = (
    "protocol", "estimator", "adversary", "d", "theta", "t_or_K", "p",
    "trials", "hits", "p_hat", "ci_low", "ci_high", "strict_win_rate",
    "theory", "seed",
)


_Z95 = 1.959963984540054  # standard normal quantile at 0.975


def wilson_interval(hits, trials):
    """95% Wilson score interval for a binomial proportion."""
    if trials == 0:
        return (0.0, 1.0)
    p = hits / trials
    z2 = _Z95 * _Z95
    denom = 1 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = _Z95 * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


# Trials per random stream: the trials of a block run in order on the stream
# trial_stream(master_seed, block index), so seeding costs one trial in 64.
_BLOCK = 64


def build_graph(gspec, master_seed):
    """The graph gspec describes; a random-regular graph is seeded by master_seed."""
    if gspec.kind == "balanced-tree":
        return lazy_regular_tree(gspec.d, depth=gspec.depth)
    if gspec.kind == "random-regular":
        return build_random_regular(gspec.n, gspec.d, seed=master_seed)
    if gspec.kind == "file":
        return load_edge_list(gspec.path)
    return lazy_regular_tree(gspec.d, root_degree=gspec.root_degree)


def _source(spec, g, rng):
    """Generated graphs carry the source at node 0; loaded snapshots draw a
    uniform source first, on the trial's stream."""
    return rng.randrange(g.node_count) if spec.graph.kind == "file" else 0


def _stop(method, adversary):
    """Where a trial of method against adversary ends early: method.stop at
    t = infinity, else None."""
    return method.stop if adversary.estimation_time is None else None


def _spread(spec, g, rng, source, stop):
    """(j, trace): the trial's spread, run to the first report if stop is
    "report".  If stop is "spy", j is the position of the first spy, drawn
    before the spread (None for no spy), and the spread runs to the (j+1)-th
    infection or the spec's own horizon, whichever comes first; a run to
    fewer infections is, draw for draw, a prefix of the longer run, so X[j]
    is the first spy if len(X) > j, and otherwise the trial has none
    (observe_first_spy).  Otherwise j is None.  Trickle taps shape the
    spread and are always drawn; a diffusion run draws report times only
    for the eavesdropper, since the spy and snapshot observers read none."""
    params, j = spec.params, None
    if stop == "spy":
        j = first_spy_position(spec.adversary.p, rng)
        if j is not None and (params.max_infections is None or j + 1 < params.max_infections):
            params = replace(params, max_infections=j + 1)
    if params.protocol == "trickle":
        return j, simulate_trickle(g, params, rng, source=source, first_report=stop == "report")
    return j, simulate_diffusion(g, params, rng, source=source, first_report=stop == "report",
                                 reports=spec.adversary.model == "eavesdropper")


def trial_trace(spec, g):
    """The spread of the spec's trial 0 on g, the run's own graph, as run_trial
    simulates it: the first draws of block 0's stream, stopping at the first
    report or the first spy where the trial does."""
    rng = trial_stream(spec.master_seed, 0)
    stop = _stop(METHODS[spec.estimator, spec.adversary.model], spec.adversary)
    return _spread(spec, g, rng, _source(spec, g, rng), stop)[1]


def run_trial(spec, g, rng, memo):
    """One trial on graph g, drawing from rng: (hit, strict_win, stop_time or
    None), where strict_win means the source alone is the tie set.

    memo is the block's dict of timestamp-rumor-centrality count rows, which
    the estimator reads and fills; each row is keyed by all it depends on, so
    sharing it changes no result.  A trial in which the adversary observed
    nothing is a counted miss.
    """
    source = _source(spec, g, rng)
    adv = spec.adversary
    method = METHODS[spec.estimator, adv.model]
    stop = _stop(method, adv)

    if stop == "report":
        res = first_report_trial(g, spec.params, rng, source=source)
        if not res.reporters:
            return (False, False, None)
        return (_pick_uniform(res.reporters, rng) == source, res.reporters == {source}, res.time)

    j, trace = _spread(spec, g, rng, source, stop)
    t = adv.estimation_time if adv.estimation_time is not None else trace.stop_time
    if stop == "spy":
        obs = observe_first_spy(trace, j, adv.p, rng)
    elif adv.model == "eavesdropper":
        obs = observe_eavesdropper(trace, t, keep_all=method.keep_all)
    elif adv.model == "spy":
        obs = observe_spy(trace, adv.p, t, rng)
    else:
        obs = observe_snapshot(trace, t)
    if not (obs.first_reports or obs.spy_times or obs.snapshot):
        return (False, False, trace.stop_time)
    result = method.estimate(obs, g, t, rng, spec.params.theta, memo)
    return (result.chosen == source, result.candidates == {source}, trace.stop_time)


def _run_block(spec, g, lo, hi):
    """Trials lo..hi-1 on graph g; lo is a multiple of _BLOCK.  Each block
    opens its stream and a memo of count rows, and drops both when it ends."""
    hits = strict = 0
    stops = []
    for i in range(lo, hi):
        if i % _BLOCK == 0:
            rng = trial_stream(spec.master_seed, i // _BLOCK)
            memo = {}
        hit, s, stop = run_trial(spec, g, rng, memo)
        hits += bool(hit)
        strict += bool(s)
        if stop is not None:
            stops.append(stop)
    return hits, strict, stops


def run_points(specs, graphs=None):
    """One report per spec, in order (see the module docstring).  graphs maps
    (GraphSpec, master_seed) to a graph the caller already built; run_points
    builds the others.  The reports are the same whether the chunks run in
    one process or several, with os.fork or without."""
    graphs, chunks = dict(graphs or {}), []
    for p, spec in enumerate(specs):
        key = (spec.graph, spec.master_seed)
        if key not in graphs:
            graphs[key] = build_graph(spec.graph, spec.master_seed)
        # Whole blocks per chunk, so no block's stream is split across workers.
        size = -(-spec.trials // (spec.workers * _BLOCK)) * _BLOCK
        chunks += [(p, spec, graphs[key], lo, min(lo + size, spec.trials))
                   for lo in range(0, spec.trials, size)]
    # No more processes than chunks: one with no chunk would only fork and exit.
    workers = min(max((spec.workers for spec in specs), default=1), len(chunks))
    if not hasattr(os, "fork"):
        workers = 1
    # Snake-wise: process k runs chunks k, 2W-1-k, 2W+k, 4W-1-k, ...
    shares = [[] for _ in range(workers)]
    for i in range(len(chunks)):
        k = i % (2 * workers)
        shares[min(k, 2 * workers - 1 - k)].append(i)

    def run_share(share):
        return [(i, _run_block(*chunks[i][1:])) for i in share]

    parts = [[] for _ in specs]
    for i, part in _run_shares(shares, run_share):
        parts[chunks[i][0]].append(part)
    return [_aggregate(spec, point) for spec, point in zip(specs, parts)]


def _run_shares(shares, run_share):
    """Every share's (chunk index, result) pairs, in chunk order.

    shares[0] runs in this process, after each other share is handed to a
    child forked for it.  A child writes one pickled list of pairs, or the
    exception its share raised, to its pipe and exits.  This raises what a
    share raised, or RuntimeError for a child that exited without writing a
    whole report; either way every child is reaped first, and killed if its
    report is not read."""
    children = []  # (pid, read end of its pipe), in share order
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child(run_share, share, read, write)
            os.close(write)
            children.append((pid, os.fdopen(read, "rb")))
        results = run_share(shares[0])
        while children:
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            children.pop(0)
            status = os.waitpid(pid, 0)[1]
            try:
                report = pickle.loads(data)
            except Exception:
                raise RuntimeError(f"worker process {pid} exited with wait status {status} "
                                   f"after writing {len(data)} bytes, not a whole report")
            if isinstance(report, BaseException):
                raise report
            results += report
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return sorted(results)


def _child(run_share, share, read, write):
    """A forked child's whole life: run the share, write its report, exit."""
    code = 1
    try:
        os.close(read)
        try:
            report = run_share(share)
        except BaseException as exc:
            report = exc
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                report = RuntimeError(f"worker process raised {exc!r}")
        with os.fdopen(write, "wb") as pipe:
            pickle.dump(report, pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _aggregate(spec, parts):
    hits, strict, stops = zip(*parts)
    hits, strict = sum(hits), sum(strict)
    stops = [stop for block in stops for stop in block]
    # fsum is exact, so the mean does not depend on how blocks split the trials.
    mean_stop = math.fsum(stops) / len(stops) if stops else None
    formula = METHODS[spec.estimator, spec.adversary.model].theory[spec.params.protocol]
    return DetectionReport(
        spec, hits, spec.trials, hits / spec.trials, *wilson_interval(hits, spec.trials),
        strict_win_rate=strict / spec.trials if formula == "trickle_ft_lb" else None,
        theory=theory_overlay(spec), mean_stop_time=mean_stop,
    )


def run_experiment(spec):
    """Execute every trial of the spec and aggregate a DetectionReport."""
    return run_points([spec])[0]


def theory_overlay(spec):
    """Matching closed-form value, where one exists for the spec."""
    formula = METHODS[spec.estimator, spec.adversary.model].theory[spec.params.protocol]
    if formula is None:
        return None
    evaluate = analytics.FORMULAS[formula]  # a misspelled id is a KeyError
    try:
        return evaluate(spec.graph.d, spec.params.theta,
                        spec.adversary.estimation_time, spec.adversary.p).value
    except ValueError:
        return None


SWEEP_AXES = ("d", "theta", "t", "p", "trials")


def sweep(base, axis, values):
    """One report per axis value; theory overlay attached where applicable.

    The points share one graph build per distinct graph, and one set of
    worker processes.
    """
    return run_points(sweep_specs(base, axis, values))


def sweep_specs(base, axis, values):
    """The spec of every sweep point; raises ValueError, before anything
    runs, if any point is rejected."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; valid: {SWEEP_AXES}")
    if not values:
        raise ValueError(f"a {axis} sweep needs at least one value")
    if axis == "d" and base.graph.kind == "file":
        raise ValueError("a file graph is built without reading d, so every d point "
                         "would run the same trials")
    if axis in ("d", "trials"):
        for value in values:
            if not float(value).is_integer():
                raise ValueError(f"a {axis} sweep takes integer values, got {value}")
    return [_with_axis(base, axis, value) for value in values]


def _with_axis(spec, axis, value):
    if axis == "d":
        return replace(spec, graph=replace(spec.graph, d=int(value)))
    if axis == "theta":
        return replace(spec, params=replace(spec.params, theta=value))
    if axis == "t":
        return replace(spec, adversary=replace(spec.adversary, estimation_time=value),
                       params=replace(spec.params, max_time=value))
    if axis == "p":
        return replace(spec, adversary=replace(spec.adversary, p=value))
    return replace(spec, trials=int(value))
