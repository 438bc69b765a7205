"""fedlora benchmark: one workload in one process.

    python3 benchmark/run.py --workload desk-fibecfed --seed 0 --seconds 20 --trace 0

Runs seeded experiments of the workload through the public entry point
`fedlora.cli.run_experiment`, at least two and until `--seconds` have
passed, checks every output, and prints one JSON object as its last line:
`correct`, `attempted` and `failed` experiments, and `metrics`. With
`--trace 0` the metrics are the end-to-end ones of BENCHMARK.json; with
`--trace 1` they are the per-layer ones, from experiments run under the
per-function tracer, alternated with untraced ones to measure its overhead.

The program is imported from `src/` of the checkout this file sits in and
nowhere else; without it the benchmark exits with code 1 and prints no
result. BLAS is pinned to one thread by re-executing the process with the
pinning variables set before numpy loads.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_experiment
from instrument import (STATS, TRACED, Patches, RunProbe, Tracer,
                        import_package, trained_samples)
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1"}
SETUP_BUILDS = 11    # set-ups timed before the first and after every
                     # experiment, so that their median spans the run
MIN_EXPERIMENTS = 2  # metrics.csv is compared across experiments

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "round_ms": "ms",
                    "train_samples_per_s": "1/s", "peak_rss_mb": "MiB"}
FED_UNITS = {"fed.bytes_per_round": "bytes", "fed.gal_layers": "count",
             "fed.mask_rows_kept": "count", "fed.train_samples": "count"}
STAT_UNITS = {"calls": "count", "total_s": "s", "self_s": "s"}


def per_layer_units():
    units = {f"{module}.{fn}.{stat}": STAT_UNITS[stat]
             for module, fns in TRACED.items() for fn in fns for stat in STATS}
    units.update(FED_UNITS)
    units.update({"trace.run_s": "s", "trace.overhead_s": "s"})
    return units


def pin_blas():
    """Re-execute with one BLAS thread unless already pinned; BLAS reads
    these variables once, when numpy loads."""
    if any(os.environ.get(k) != v for k, v in BLAS_ENV.items()):
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  {**os.environ, **BLAS_ENV})


def load_program():
    src = ROOT / "src"
    if not (src / "fedlora" / "__init__.py").is_file():
        raise SystemExit(f"error: no fedlora sources under {src}")
    sys.path.insert(0, str(src))
    package = import_package("fedlora")
    if Path(package.__file__).resolve().parent != src / "fedlora":
        raise SystemExit(f"error: fedlora imported from {package.__file__}")
    return package


@dataclass
class Experiment:
    run_s: float
    round_ms: list
    samples_per_s: float
    fed: dict
    trace: dict = field(default_factory=dict)


class Session:
    """Experiments of one workload and seed, with their checks."""

    def __init__(self, package, workload, seed, out):
        self.fl = package
        self.workload = workload
        self.text = workload.config_text(seed)
        self.out = out
        self.attempted = 0
        self.failed = 0
        self.fails = []
        self.first_csv = None

    def setup_times(self, builds):
        """Times of config parse plus engine.build_devices."""
        times = []
        for _ in range(builds):
            start = time.perf_counter()
            cfg = self.fl.config.parse_config(self.text)
            self.fl.engine.build_devices(cfg)
            times.append(time.perf_counter() - start)
        return times

    def experiment(self, tracer=None):
        """One checked experiment; None if it raised."""
        self.attempted += 1
        out_dir = self.out / f"experiment{self.attempted}"
        probe = RunProbe()
        try:
            with Patches(self.fl) as patches:
                if tracer is not None:
                    tracer.install(patches)
                probe.install(patches, self.fl.engine)
                start = time.perf_counter()
                cpu_start = time.process_time()
                cfg = self.fl.config.parse_config(self.text)
                self.fl.cli.run_experiment(cfg, out_dir)
                run_s = time.perf_counter() - start
                cpu_s = time.process_time() - cpu_start
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        self._check(cfg, probe, out_dir)
        print(f"experiment {self.attempted}: run_s {run_s:.4f} "
              f"cpu_s {cpu_s:.4f}{' traced' if tracer else ''}", flush=True)
        reports, summary, _, devices = probe.result
        samples = trained_samples(cfg, probe.local_calls, self.fl.curriculum)
        fed = {
            "fed.bytes_per_round": reports[0].bytes_down + reports[0].bytes_up,
            "fed.gal_layers": len(summary["gal_layers"]),
            "fed.mask_rows_kept": sum(c for dev in devices
                                      for c in dev.mask.popcounts() if c),
            "fed.train_samples": samples,
        }
        return Experiment(run_s, probe.round_ms(), samples / probe.local_s, fed,
                          {} if tracer is None else dict(tracer.stats))

    def _check(self, cfg, probe, out_dir):
        fails = []
        csv_bytes = (out_dir / "metrics.csv").read_bytes()
        if self.first_csv is None:
            self.first_csv = csv_bytes
        elif csv_bytes != self.first_csv:
            fails.append("metrics.csv differs from the first experiment's")
        if not (out_dir / "summary.yaml").is_file():
            fails.append("summary.yaml missing")
        if len(probe.eval_ends) != cfg.rounds:
            fails.append(f"{len(probe.eval_ends)} evaluations, "
                         f"{cfg.rounds} rounds")
        if len(probe.local_calls) != cfg.rounds * cfg.sampled_per_round:
            fails.append(f"{len(probe.local_calls)} local rounds")
        fresh = self.fl.network.build_network(
            cfg.dim, cfg.hidden_dims, cfg.num_classes, rank=cfg.lora_rank,
            seed=cfg.seed)
        fails += check_experiment(cfg, self.workload, probe.result,
                                  probe.frozen_rows, csv_bytes.decode(), fresh)
        self.fails += [f"experiment {self.attempted}: {f}" for f in fails]


def end_to_end(session, seconds):
    setup = session.setup_times(SETUP_BUILDS)
    runs = []
    start = time.perf_counter()
    while (session.attempted < MIN_EXPERIMENTS
           or time.perf_counter() - start < seconds):
        exp = session.experiment()
        if exp is not None:
            runs.append(exp)
        setup += session.setup_times(SETUP_BUILDS)
    if not runs:
        return None
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "run_s": statistics.median(e.run_s for e in runs),
        "setup_s": statistics.median(setup),
        "round_ms": statistics.median(ms for e in runs for ms in e.round_ms),
        "train_samples_per_s": statistics.median(e.samples_per_s for e in runs),
        "peak_rss_mb": peak_kib / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items()}


def per_layer(session, seconds):
    plain, traced = [], []
    absent = set()
    start = time.perf_counter()
    while (session.attempted < MIN_EXPERIMENTS
           or time.perf_counter() - start < seconds):
        exp = session.experiment()
        if exp is not None:
            plain.append(exp)
        tracer = Tracer(session.fl)
        exp = session.experiment(tracer)
        absent.update(tracer.absent)
        if exp is not None:
            traced.append(exp)
    if not plain or not traced:
        return None
    for key in sorted(absent):
        print(f"absent: {key}")
    values = dict(traced[-1].fed)
    for key in traced[-1].trace:
        values[f"{key}.calls"] = traced[-1].trace[key][0]
        for i, stat in ((1, "total_s"), (2, "self_s")):
            values[f"{key}.{stat}"] = statistics.median(
                e.trace[key][i] for e in traced)
    traced_s = statistics.median(e.run_s for e in traced)
    values["trace.run_s"] = traced_s
    values["trace.overhead_s"] = traced_s - statistics.median(
        e.run_s for e in plain)
    units = per_layer_units()
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    pin_blas()
    package = load_program()
    workload = WORKLOADS[args.workload]
    out = OUT / f"{workload.name}-seed{args.seed}"
    shutil.rmtree(out, ignore_errors=True)
    session = Session(package, workload, args.seed, out)
    measure = per_layer if args.trace else end_to_end
    metrics = measure(session, args.seconds)
    if metrics is None:
        print("error: every experiment failed", file=sys.stderr)
        return 3
    for fail in session.fails:
        print(f"check failed: {fail}")
    print(json.dumps({"correct": not session.fails,
                      "attempted": session.attempted,
                      "failed": session.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
