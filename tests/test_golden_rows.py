"""Every (estimator, adversary, protocol, graph kind) combination, at one
seed and under each kind of horizon, gives the report rows recorded in
golden_rows.json, and every combination recorded as rejected is still
rejected when its spec is built.

The rows hold hits, p_hat, the interval, the theory overlay and the mean
stop time (an exact float sum over the trials), so a change to any draw or
tie-break shows.  Re-record only for a change meant to alter rows, and say
so where the change is described:

    PYTHONPATH=src:tests python tests/test_golden_rows.py --write
"""

import dataclasses
import itertools
import json
import sys
import tempfile
from pathlib import Path

from rumorlab.harness import (
    ADVERSARIES,
    ESTIMATORS,
    GRAPH_KINDS,
    AdversarySpec,
    ExperimentSpec,
    GraphSpec,
    run_points,
)
from rumorlab.spreading import SpreadParams

GOLDEN = Path(__file__).with_name("golden_rows.json")
SEED = 2026
TRIALS = 40
PROTOCOLS = ("trickle", "diffusion")
# name -> (max_time, max_infections) per protocol; the estimation time is
# max_time.  "none" runs to the first report or to exhaustion.
HORIZONS = {
    "t": {"trickle": (5, None), "diffusion": (2.5, None)},
    "K": {"trickle": (None, 40), "diffusion": (None, 40)},
    "none": {"trickle": (None, None), "diffusion": (None, None)},
}


def write_edge_list(path):
    """A 60-node circulant graph (offsets 1 and 7): 4-regular, with cycles."""
    n = 60
    path.write_text("".join(f"{v} {(v + k) % n}\n" for v in range(n) for k in (1, 7)))
    return str(path)


def _graph(kind, edge_file):
    return {
        "tree": GraphSpec("tree", d=3),
        "balanced-tree": GraphSpec("balanced-tree", d=3, depth=5),
        "random-regular": GraphSpec("random-regular", d=4, n=100),
        "file": GraphSpec("file", path=edge_file),
    }[kind]


def combinations(edge_file):
    """{key: spec, or None where building the spec raises ValueError}."""
    out = {}
    for est, adv, proto, kind, horizon in itertools.product(
            ESTIMATORS, ADVERSARIES, PROTOCOLS, GRAPH_KINDS, HORIZONS):
        max_time, max_inf = HORIZONS[horizon][proto]
        try:
            spec = ExperimentSpec(
                graph=_graph(kind, edge_file),
                params=SpreadParams(proto, theta=1, max_time=max_time,
                                    max_infections=max_inf),
                adversary=AdversarySpec(adv, p=0.5 if adv == "spy" else None,
                                        estimation_time=max_time),
                estimator=est,
                trials=TRIALS,
                master_seed=SEED,
            )
        except ValueError:
            spec = None
        out["|".join((est, adv, proto, kind, horizon))] = spec
    return out


def rows(edge_file):
    """{key: report row with the mean stop time, or None if rejected}."""
    specs = combinations(edge_file)
    valid = [key for key, spec in specs.items() if spec is not None]
    out = dict.fromkeys(specs)
    for key, report in zip(valid, run_points([specs[key] for key in valid])):
        row = report.csv_fields()
        row["mean_stop_time"] = repr(report.mean_stop_time)
        out[key] = row
    return out


def test_rows_and_rejections_match_the_recording(tmp_path):
    recorded = json.loads(GOLDEN.read_text())
    got = rows(write_edge_list(tmp_path / "circulant.edges"))
    assert got.keys() == recorded.keys()
    rejected = {key for key, row in recorded.items() if row is None}
    assert {key for key, row in got.items() if row is None} == rejected
    # Every estimator, adversary, protocol and graph kind has a valid row.
    valid = [key.split("|") for key in recorded if key not in rejected]
    for i, names in enumerate((ESTIMATORS, ADVERSARIES, PROTOCOLS, GRAPH_KINDS)):
        assert {key[i] for key in valid} == set(names)
    for key, row in recorded.items():
        assert got[key] == row, key


def test_every_combination_gives_the_same_report_at_two_workers(tmp_path):
    # 129 trials: three blocks of 64, split over two chunks at two workers,
    # so each worker starts from the pool's initializer.
    specs = combinations(write_edge_list(tmp_path / "circulant.edges")).values()
    specs = [spec for spec in specs if spec is not None]

    def reports(workers):
        points = [dataclasses.replace(spec, trials=129, workers=workers) for spec in specs]
        return [(r.hits, r.strict_win_rate, r.mean_stop_time, r.theory)
                for r in run_points(points)]

    assert reports(1) == reports(2)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        data = rows(write_edge_list(Path(tmp) / "circulant.edges"))
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"{sum(row is not None for row in data.values())} rows and "
          f"{sum(row is None for row in data.values())} rejections written to {GOLDEN}")
