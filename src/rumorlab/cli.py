"""Command-line front end: theory tables, simulations, sweeps, comparisons,
and edge-list ingestion.

Every output embeds its resolved configuration in '#'-prefixed header lines,
so a result file is self-describing and reproducible from its own header.
Exit codes: 0 success, 1 runtime error, 2 usage error.
"""

import argparse
import csv
import io
import itertools
import json
import math
import sys

from . import analytics
from .graphs import load_edge_list
from .harness import (
    ADVERSARIES,
    CSV_COLUMNS,
    ESTIMATORS,
    GRAPH_KINDS,
    METHODS,
    SWEEP_AXES,
    AdversarySpec,
    ExperimentSpec,
    GraphSpec,
    build_graph,
    run_points,
    sweep_specs,
    trial_trace,
)
from .spreading import SpreadParams, trace_to_csv


def _int_list(text):
    return [int(x) for x in text.split(",") if x]


def _float_list(text):
    return [float(x) for x in text.split(",") if x]


def _add_common(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="output path (default stdout)")


def _add_experiment(p, protocol=True):
    if protocol:
        p.add_argument("--protocol", choices=("trickle", "diffusion"), required=True)
    else:  # compare runs both protocols, in turn
        p.set_defaults(protocol="trickle+diffusion")
    p.add_argument("--estimator", default="first-timestamp", choices=ESTIMATORS)
    p.add_argument("--adversary", default="eavesdropper", choices=ADVERSARIES)
    p.add_argument("--graph", default="tree", choices=GRAPH_KINDS)
    p.add_argument("--graph-file", help="edge list path for --graph file")
    p.add_argument("--d", type=int, help="tree degree")
    p.add_argument("--n", type=int, help="node count for random-regular")
    p.add_argument("--depth", type=int, help="depth for balanced-tree")
    p.add_argument("--root-degree", type=int,
                   help="lazy-tree root degree override (d-2 reproduces the "
                        "diffusion first-timestamp closed form's setting)")
    p.add_argument("--theta", type=float, default=1)
    p.add_argument("--t", type=float, help="estimation time / max time")
    p.add_argument("--max-infections", type=int,
                   help="infection-count horizon (K); stop_time is logged")
    p.add_argument("--spy-p", type=float, help="spy corruption probability")
    _add_common(p)


class UsageError(Exception):
    """The flags describe an experiment that is rejected before it runs."""


def _spec_from_args(args):
    try:
        graph = GraphSpec(
            kind=args.graph,
            d=args.d,
            n=args.n,
            depth=args.depth,
            path=args.graph_file,
            root_degree=args.root_degree,
        )
        params = SpreadParams(
            protocol=args.protocol,
            theta=args.theta,
            max_time=args.t,
            max_infections=args.max_infections,
        )
        adversary = AdversarySpec(
            model=args.adversary,
            p=args.spy_p,
            estimation_time=args.t,
        )
        return ExperimentSpec(
            graph=graph,
            params=params,
            adversary=adversary,
            estimator=args.estimator,
            trials=args.trials,
            master_seed=args.seed,
            workers=args.workers,
        )
    except ValueError as exc:
        raise UsageError(exc) from exc


def _json_value(v):
    """v with each non-finite float as the string float() reads back."""
    if isinstance(v, list):
        return [_json_value(x) for x in v]
    return str(v) if isinstance(v, float) and not math.isfinite(v) else v


def _config_header(args):
    """The flags as one line of strict JSON (no bare Infinity or NaN)."""
    skip = ("func", "out")  # the file's own location is not provenance
    cfg = {k: _json_value(v) for k, v in sorted(vars(args).items())
           if k not in skip and v is not None}
    return "# config " + json.dumps(cfg, sort_keys=True, default=str, allow_nan=False)


def _emit(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rows_to_output(rows, columns, header, fmt):
    if fmt == "json":
        rows = [{k: _json_value(v) for k, v in row.items()} for row in rows]
        return json.dumps({"config": header, "rows": rows}, indent=2, allow_nan=False) + "\n"
    buf = io.StringIO()
    buf.write(header + "\n")
    writer = csv.DictWriter(buf, fieldnames=columns)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


THEORY_COLUMNS = ("formula_id", "d", "theta", "t", "p", "value")


def cmd_theory(args):
    """--formula or --table2 evaluated at every point of the --d x --theta x
    --t x --p grid.  A --formula row shows the inputs its formula read and
    fails where the formula is undefined; a --table2 row shows its grid point
    and leaves such a value blank."""
    if args.table2:
        if not args.d or not args.theta:
            raise ValueError("--table2 needs --d and --theta")
        if args.p is not None:
            raise ValueError("--table2 takes no --p: no eavesdropper closed form reads p")
        cells = [(formula, {"estimator": estimator, "protocol": protocol})
                 for (estimator, adversary), method in METHODS.items()
                 if adversary == "eavesdropper"
                 for protocol, formula in method.theory.items() if formula is not None]
    elif args.formula:
        cells = [(args.formula, {})]
    else:
        raise ValueError("need --formula or --table2")
    rows = []
    for point in itertools.product(args.d or [None], args.theta or [None],
                                   args.t or [None], args.p or [None]):
        for formula, extra in cells:
            try:
                tv = analytics.FORMULAS[formula](*point)
            except ValueError:
                if not args.table2:
                    raise
                tv = None
            d, theta, t, p = point if args.table2 else (tv.d, tv.theta, tv.t, tv.p)
            row = {"formula_id": formula, "d": d, "theta": theta, "t": t, "p": p,
                   "value": None if tv is None else repr(tv.value)}
            rows.append({k: "" if x is None else x for k, x in row.items()} | extra)
    columns = THEORY_COLUMNS + tuple(cells[0][1])
    _emit(_rows_to_output(rows, columns, _config_header(args), args.format), args.out)
    return 0


def cmd_simulate(args):
    spec = _spec_from_args(args)
    graph = build_graph(spec.graph, spec.master_seed)
    if args.dump_trace:
        with open(args.dump_trace, "w", encoding="utf-8") as fh:
            fh.write(trace_to_csv(trial_trace(spec, graph)))
    report = run_points([spec], {(spec.graph, spec.master_seed): graph})[0]
    rows = [report.csv_fields()]
    _emit(_rows_to_output(rows, CSV_COLUMNS, _config_header(args), args.format), args.out)
    return 0


def cmd_sweep(args):
    """Each protocol of --protocol (compare's: trickle, then diffusion) across
    one axis, in long format for external plotting.  Every point spec is
    built, and so checked, before any point runs."""
    header = _config_header(args)
    specs = []
    for protocol in args.protocol.split("+"):
        args.protocol = protocol
        spec = _spec_from_args(args)
        try:
            specs += sweep_specs(spec, args.axis, args.values)
        except ValueError as exc:
            raise UsageError(exc) from exc
    rows = [r.csv_fields() for r in run_points(specs)]
    for row, value in zip(rows, itertools.cycle(args.values)):
        row["axis"] = args.axis
        row["axis_value"] = value
    columns = ("axis", "axis_value") + CSV_COLUMNS
    _emit(_rows_to_output(rows, columns, header, args.format), args.out)
    return 0


def cmd_ingest(args):
    g = load_edge_list(args.input)
    lines = [_config_header(args)]
    lines.append(f"# nodes={g.node_count} edges={g.edge_count()}")
    lines.append("dense_id,original_id")
    for i, orig in enumerate(g.node_labels):
        lines.append(f"{i},{orig}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rumorlab",
        description="Source-deanonymization lab for P2P flooding broadcasts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("theory", help="evaluate closed-form detection values")
    p.add_argument("--formula", choices=analytics.FORMULAS)
    p.add_argument("--table2", action="store_true",
                   help="one row per eavesdropper estimator and protocol with a "
                        "closed form, at every (d, theta) and optional t")
    p.add_argument("--d", type=_int_list)
    p.add_argument("--theta", type=_float_list)
    p.add_argument("--t", type=_float_list)
    p.add_argument("--p", type=_float_list)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_theory)

    p = sub.add_parser("simulate", help="run one Monte Carlo experiment")
    _add_experiment(p)
    p.add_argument("--dump-trace", help="write trial 0's trace CSV here")
    p.set_defaults(func=cmd_simulate)

    for name, text in (("sweep", "run an experiment across one axis"),
                       ("compare", "trickle vs diffusion across one axis")):
        p = sub.add_parser(name, help=text)
        _add_experiment(p, protocol=name == "sweep")
        p.add_argument("--axis", required=True, choices=SWEEP_AXES)
        p.add_argument("--values", type=_float_list, required=True)
        p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("ingest", help="load an edge list, emit the id mapping")
    p.add_argument("--input", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_ingest)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError, OSError, RuntimeError) as exc:
        print(f"rumorlab: error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
