"""Command-line interface.

Subcommands: ``fit``, ``rank``, ``check``, ``compare``, ``plotdata``.
Exit codes: 0 success; 1 failed audit criteria (``check`` only);
2 validation problems (unreadable/malformed input, unknown method,
mismatched dimensions, unwritable output); 3 fit failures.  Outputs are
deterministic: identical invocations write byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bezier import evaluate
from .data import (
    BUNDLED_PROVENANCE,
    IndicatorTable,
    apply_transform,
    bundled_data_path,
    csv_text,
    json_text,
    load_rows,
    load_schema,
    load_table,
    write_text,
)
from .errors import (
    DegenerateCurve,
    LoadError,
    RankingError,
    TooFewItems,
)
from .fitting import fit_and_rank, load_curve, rank, save_fit
from .resources import REFERENCE_NAME as REFERENCE_TOKEN

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_VALIDATION = 2
EXIT_FIT_FAILURE = 3

# method token -> pipeline factory over rpcurve.evaluation, in the order the
# help text lists them; only the commands that run a pipeline import it
_PIPELINES = {
    "rpc": lambda ev: ev.rpc_pipeline(),
    "arithmetic": lambda ev: ev.arithmetic_pipeline(variant="raw"),
    "arithmetic-norm": lambda ev: ev.arithmetic_pipeline(variant="normalized"),
    "geometric": lambda ev: ev.geometric_pipeline(variant="normalized"),
    "geometric-raw": lambda ev: ev.geometric_pipeline(variant="raw"),
    "pca": lambda ev: ev.pca_pipeline(),
    "entropy": lambda ev: ev.entropy_pipeline(),
}
PIPELINE_TOKENS = tuple(_PIPELINES)


def _pipeline_for(token: str):
    from . import evaluation

    if token not in _PIPELINES:
        raise RankingError(f"unknown method {token!r}")
    return _PIPELINES[token](evaluation)


def _load_inputs(data_path: str, schema_path: str) -> IndicatorTable:
    schema = load_schema(schema_path)
    provenance = None
    try:
        import os

        if os.path.realpath(data_path) == os.path.realpath(
            str(bundled_data_path())
        ):
            provenance = BUNDLED_PROVENANCE
    except OSError:
        pass
    return load_table(data_path, schema, provenance=provenance)


def cmd_fit(args) -> int:
    table = _load_inputs(args.data, args.schema)
    curve, report, ranking = fit_and_rank(table)
    save_fit(args.out, curve, report, ranking)
    print(
        f"fit: {table.n_items} items, {table.n_indicators} dims, "
        f"{report.iterations} iterations, "
        f"converged={str(report.converged).lower()}, wrote {args.out}"
    )
    if report.stop_reason == "max_iters":
        print(
            "warning: fit stopped at its projection cap before converging "
            f"(last relative change {report.last_rel_change})",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_rank(args) -> int:
    curve = load_curve(args.curve)
    rows = load_rows(args.data, curve.transform.indicator_names)
    ranking = rank(rows, curve)
    if args.format == "csv":
        text = csv_text(
            [("id", "score", "order")]
            + list(zip(ranking.item_ids, ranking.scores, ranking.orders))
        )
    else:
        text = json_text(
            {"method": ranking.method, "items": ranking.json_items()}
        )
    write_text(args.out, text)
    print(f"rank: scored {len(rows.item_ids)} items, wrote {args.out}")
    return EXIT_OK


def cmd_check(args) -> int:
    from . import evaluation

    table = _load_inputs(args.data, args.schema)
    pipeline = _pipeline_for(args.method)
    report = evaluation.audit(pipeline, table)
    print(report.render_text())
    return EXIT_OK if report.all_applicable_pass else EXIT_CHECK_FAILED


def cmd_compare(args) -> int:
    from . import baselines

    table = _load_inputs(args.data, args.schema)
    tokens = [t.strip() for t in args.methods.split(",") if t.strip()]
    if not tokens:
        raise RankingError("no methods given")
    if len(set(tokens)) < len(tokens):
        raise RankingError(f"a method is given twice: {args.methods}")
    pipelines = [_pipeline_for(t) for t in tokens if t != REFERENCE_TOKEN]
    if not pipelines:
        raise RankingError("need at least one computable method")
    reference = None
    if REFERENCE_TOKEN in tokens:
        reference = baselines.elmap_reference_scores()
    results = [pipeline.run(table)[0] for pipeline in pipelines]
    comparison = baselines.compare(results, reference=reference)
    if args.format == "csv":
        corr_path = args.out + ".correlations.csv"
        write_text(args.out, comparison.table_csv())
        write_text(corr_path, comparison.correlations_csv())
        print(f"compare: wrote {args.out} and {corr_path}")
    else:
        write_text(args.out, json_text(comparison.to_dict()))
        print(f"compare: wrote {args.out}")
    return EXIT_OK


def cmd_plotdata(args) -> int:
    import os

    curve = load_curve(args.curve)
    names = curve.transform.indicator_names
    table = load_rows(args.data, names)
    z = apply_transform(table.values, curve.transform)

    os.makedirs(args.out, exist_ok=True)
    if not os.access(args.out, os.W_OK):
        raise LoadError(f"output directory {args.out} is not writable")

    written = []
    for j, name in enumerate(names):
        counts, edges = np.histogram(z[:, j], bins=20, range=(0.0, 1.0))
        path = os.path.join(args.out, f"hist_{name}.csv")
        write_text(path, csv_text(
            [("bin_left", "bin_right", "count")]
            + list(zip(edges[:-1], edges[1:], counts))
        ))
        written.append(path)

    curve_pts = evaluate(curve, np.linspace(0.0, 1.0, 201))
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            path = os.path.join(args.out, f"pair_{names[a]}_{names[b]}.csv")
            write_text(path, csv_text(
                [("series", "id", "x", "y")]
                + [("data", item, row[a], row[b])
                   for item, row in zip(table.item_ids, z)]
                + [("curve", "", pt[a], pt[b]) for pt in curve_pts]
            ))
            written.append(path)
    print(f"plotdata: wrote {len(written)} files to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpcurve",
        description=(
            "Rank items on several indicators with a fitted ranking "
            "principal curve, compare against classical baselines, and "
            "audit objectivity criteria."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--data", required=True, help="input CSV (id,<indicators...>)")
        p.add_argument(
            "--schema", required=True, help="JSON indicator->orientation map"
        )

    p_fit = sub.add_parser("fit", help="fit the ranking curve")
    add_common(p_fit)
    p_fit.add_argument("--out", required=True, help="output JSON path")
    p_fit.set_defaults(func=cmd_fit)

    p_rank = sub.add_parser("rank", help="score a table with a fitted curve")
    p_rank.add_argument("--data", required=True)
    p_rank.add_argument("--curve", required=True, help="fit output JSON")
    p_rank.add_argument("--out", required=True)
    p_rank.add_argument("--format", choices=("csv", "json"), default="csv")
    p_rank.set_defaults(func=cmd_rank)

    p_check = sub.add_parser("check", help="run the objectivity audit")
    add_common(p_check)
    p_check.add_argument(
        "--method", required=True, choices=PIPELINE_TOKENS
    )
    p_check.set_defaults(func=cmd_check)

    p_cmp = sub.add_parser("compare", help="rank with several methods")
    add_common(p_cmp)
    p_cmp.add_argument(
        "--methods",
        required=True,
        help=(
            "comma-separated method tokens: "
            + ", ".join(PIPELINE_TOKENS + (REFERENCE_TOKEN,))
        ),
    )
    p_cmp.add_argument("--out", required=True)
    p_cmp.add_argument("--format", choices=("csv", "json"), default="json")
    p_cmp.set_defaults(func=cmd_compare)

    p_plot = sub.add_parser(
        "plotdata", help="write histogram and scatter/curve panel CSVs"
    )
    p_plot.add_argument("--data", required=True)
    p_plot.add_argument("--curve", required=True)
    p_plot.add_argument("--out", required=True, help="output directory")
    p_plot.set_defaults(func=cmd_plotdata)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TooFewItems, DegenerateCurve) as exc:
        print(f"fit failure: {exc}", file=sys.stderr)
        return EXIT_FIT_FAILURE
    except RankingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except json.JSONDecodeError as exc:
        print(f"malformed JSON input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except UnicodeDecodeError as exc:
        print(f"error: input is not UTF-8 text: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
