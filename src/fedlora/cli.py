"""Command line entry point: `run` executes an experiment and writes the
metrics CSV plus a run summary; `compare` reports rounds-to-target and final
accuracy deltas between two metrics files.

Exit codes: 0 ok, 1 configuration error, 2 runtime failure.
"""

import argparse
import csv
import io
import sys
import time
from pathlib import Path

import yaml

from .config import ConfigError, load_config, parse_config
from .engine import run

CSV_HEADER = ["round", "sampled_ids", "train_loss", "weighted_test_acc",
              "server_view_acc", "bytes_down", "bytes_up"]
NUMERIC_FIELDS = {"round": int, "train_loss": float,
                  "weighted_test_acc": float, "server_view_acc": float,
                  "bytes_down": int, "bytes_up": int}


def _fmt(x):
    return f"{x:.9g}"


def render_metrics_csv(reports):
    """Metrics rows, one per round. They hold no timing, so the file is
    byte-identical across reruns of the same seeded config; measured wall
    times go to the run summary instead."""
    buf = io.StringIO()
    buf.write(",".join(CSV_HEADER) + "\n")
    for r in reports:
        buf.write(",".join([
            str(r.round),
            ";".join(str(k) for k in r.sampled),
            _fmt(r.train_loss),
            _fmt(r.weighted_test_acc),
            _fmt(r.server_view_acc),
            str(r.bytes_down),
            str(r.bytes_up),
        ]) + "\n")
    return buf.getvalue()


def run_experiment(cfg, out_dir):
    """Execute one experiment and write metrics.csv + summary.yaml."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    reports, summary, _, _ = run(cfg)
    summary = dict(summary)
    summary["seed"] = cfg.seed
    summary["rounds"] = cfg.rounds
    summary["total_wall_s"] = round(time.perf_counter() - started, 3)
    summary["round_wall_ms"] = [round(r.wall_ms, 3) for r in reports]

    csv_path = out_dir / "metrics.csv"
    csv_path.write_text(render_metrics_csv(reports), encoding="utf-8")
    (out_dir / "summary.yaml").write_text(
        yaml.safe_dump(summary, sort_keys=True), encoding="utf-8")
    return csv_path, reports, summary


def read_metrics(path):
    """The rows of a metrics CSV, one dict per round, with every field but
    sampled_ids converted to its number. A header other than CSV_HEADER's
    columns, a row whose field count differs from it and a field that does
    not parse raise ValueError naming the file and, for a row, the line."""
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)  # None marks a missing or extra field
        if sorted(reader.fieldnames or ()) != sorted(CSV_HEADER):
            raise ValueError(f"{path}: unexpected metrics schema")
        rows = []
        for row in reader:
            where = f"{path}, line {reader.line_num}"
            if None in row or None in row.values():
                raise ValueError(f"{where}: field count differs from the "
                                 "header")
            for key, kind in NUMERIC_FIELDS.items():
                try:
                    row[key] = kind(row[key])
                except ValueError:
                    raise ValueError(f"{where}: {key} is not a number: "
                                     f"{row[key]!r}") from None
            rows.append(row)
    return rows


def compare_runs(csv_a, csv_b, targets=()):
    """Rounds-to-target and final-accuracy comparison of two metrics files.

    A run that never reaches a target reports None for it (printed as "/").
    """
    rows_a = read_metrics(csv_a)
    rows_b = read_metrics(csv_b)

    def final_acc(rows):
        return rows[-1]["weighted_test_acc"] if rows else None

    def first_reaching(rows, target):
        for row in rows:
            if row["weighted_test_acc"] >= target:
                return row["round"]
        return None

    def payload(rows):
        return sum(r["bytes_down"] + r["bytes_up"] for r in rows)

    return {
        "final_acc_a": final_acc(rows_a),
        "final_acc_b": final_acc(rows_b),
        "final_acc_delta": (None if not rows_a or not rows_b
                            else final_acc(rows_a) - final_acc(rows_b)),
        "rounds_to_target": {
            t: (first_reaching(rows_a, t), first_reaching(rows_b, t))
            for t in targets},
        "total_bytes": (payload(rows_a), payload(rows_b)),
    }


def _print_comparison(result):
    def show(v):
        return "/" if v is None else str(v)

    print(f"final accuracy: a={show(result['final_acc_a'])} "
          f"b={show(result['final_acc_b'])} "
          f"delta={show(result['final_acc_delta'])}")
    for target, (ra, rb) in result["rounds_to_target"].items():
        print(f"rounds to {target}: a={show(ra)} b={show(rb)}")
    ba, bb = result["total_bytes"]
    print(f"total payload bytes: a={ba} b={bb}")


def build_parser():
    parser = argparse.ArgumentParser(prog="fedlora")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("config", help="YAML config path ('-' for defaults)")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--mode", default=None)

    p_cmp = sub.add_parser("compare", help="compare two metrics CSVs")
    p_cmp.add_argument("csv_a")
    p_cmp.add_argument("csv_b")
    p_cmp.add_argument("--targets", default="",
                       help="comma-separated accuracy targets, e.g. 0.6,0.7")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "run":
        try:
            cfg = parse_config("") if args.config == "-" else load_config(args.config)
            overrides = {}
            if args.seed is not None:
                overrides["seed"] = args.seed
            if args.mode is not None:
                overrides["mode"] = args.mode
            if overrides:
                raw = cfg.__dict__ | overrides
                cfg = parse_config(raw)
        except (ConfigError, OSError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 1
        try:
            csv_path, _, summary = run_experiment(cfg, args.out)
        except Exception as exc:  # propagate as runtime failure
            print(f"runtime error: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {csv_path} (GAL {summary['gal_layers']}, "
              f"{summary['total_wall_s']}s)")
        return 0

    try:
        targets = [float(t) for t in args.targets.split(",") if t.strip()]
        _print_comparison(compare_runs(args.csv_a, args.csv_b, targets))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
