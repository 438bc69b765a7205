"""Golden record of seeded runs: what each config's run writes and leaves.

    PYTHONPATH=src python tests/golden.py

rewrites `tests/golden.json`; `tests/test_golden.py` rebuilds the record
and compares it with the file. Rewrite the file only in a change that
means to alter some output, and say which.

The configs are the benchmark's workloads (`benchmark/workloads.py`) at
fixed seeds, plus the three ablation modes at the desk preset. Per config
the record holds the `metrics.csv` text, the summary `engine.run` returns
(it holds no timings) and per device the mask popcounts, the batch order
and a sha256 of the adapter row, next to the row's norm.

The file also stores the platform it was written on: numpy version, BLAS
and machine architecture. On that platform a rebuilt record must equal the
file exactly. Elsewhere the BLAS may round differently, so the floats must
agree to `REL_TOL`, every discrete field exactly, and the adapter row's
norm stands in for its hash.
"""

import hashlib
import importlib.util
import json
import math
import platform
import sys
from pathlib import Path

import numpy as np

from fedlora.cli import render_metrics_csv
from fedlora.config import parse_config
from fedlora.engine import run

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden.json")
REL_TOL = 1e-6


def _load_workloads():
    path = ROOT / "benchmark" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


_workloads = _load_workloads()
ABLATIONS = ("no-curriculum", "full-sync", "no-mask")
CONFIGS = {  # record key -> config text
    f"{w.name} seed {seed}": w.config_text(seed)
    for w, seed in [(_workloads.WORKLOADS[name], seed)
                    for name in ("desk-fedavg", "desk-fibecfed",
                                 "scale-sparse")
                    for seed in (0, 1)]
    + [(_workloads.WORKLOADS["tiny"], seed) for seed in (0, 3)]
    + [(_workloads.Workload(f"desk-{mode}", f"mode: {mode}\n"), 0)
       for mode in ABLATIONS]}


def platform_fingerprint():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "machine": platform.machine()}


def run_text(text):
    """`engine.run` of a config text: (reports, summary, devices)."""
    reports, summary, _, devices = run(parse_config(text))
    return reports, summary, devices


def config_record(reports, summary, devices):
    return json.loads(json.dumps({
        "metrics_csv": render_metrics_csv(reports),
        "summary": summary,
        "devices": [{"popcounts": dev.mask.popcounts(),
                     "batch_order": list(dev.batch_order),
                     "adapters_sha256":
                         hashlib.sha256(dev.adapters.tobytes()).hexdigest(),
                     "adapters_norm": float(np.linalg.norm(dev.adapters))}
                    for dev in devices]}))


def build_record(run_config=run_text):
    """The record of every config, each run through `run_config(text)`."""
    return {"platform": platform_fingerprint(), "rel_tol": REL_TOL,
            "configs": {key: config_record(*run_config(text))
                        for key, text in CONFIGS.items()}}


def _csv_fields(text):
    """A metrics CSV as rows of fields, numbers parsed."""
    def field(tok):
        for kind in (int, float):
            try:
                return kind(tok)
            except ValueError:
                pass
        return tok
    return [[field(tok) for tok in line.split(",")]
            for line in text.splitlines()]


def differences(want, got, rel_tol, where="record"):
    """Every place where `got` differs from `want`: floats by more than
    `rel_tol` relative, anything else at all. A metrics CSV compares field
    by field, and a hash is skipped: the norm beside it is compared."""
    if isinstance(want, dict) and isinstance(got, dict):
        if set(want) != set(got):
            return [f"{where}: keys {sorted(want)} != {sorted(got)}"]
        return [d for key in want if key != "adapters_sha256"
                for d in differences(
                    _csv_fields(want[key]) if key == "metrics_csv" else want[key],
                    _csv_fields(got[key]) if key == "metrics_csv" else got[key],
                    rel_tol, f"{where}/{key}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{where}: length {len(want)} != {len(got)}"]
        return [d for i, (w, g) in enumerate(zip(want, got))
                for d in differences(w, g, rel_tol, f"{where}[{i}]")]
    if isinstance(want, float) and isinstance(got, float):
        if math.isclose(want, got, rel_tol=rel_tol) or want == got:
            return []
    elif type(want) is type(got) and want == got:
        return []
    return [f"{where}: {want!r} != {got!r}"]


def _holds_dicts(value):
    items = value.values() if isinstance(value, dict) else value
    return any(isinstance(v, dict) or isinstance(v, list) and _holds_dicts(v)
               for v in items)


def render(value, indent=0):
    """JSON text of `value`, one device a line: a dict or list that holds
    dicts takes one line per item, anything else one line."""
    if not isinstance(value, (dict, list)) or not _holds_dicts(value):
        return json.dumps(value, sort_keys=True)
    pad = " " * (indent + 1)
    if isinstance(value, dict):
        items = [f"{json.dumps(k)}: {render(v, indent + 1)}"
                 for k, v in sorted(value.items())]
    else:
        items = [render(v, indent + 1) for v in value]
    opening, closing = "{}" if isinstance(value, dict) else "[]"
    return (f"{opening}\n{pad}" + f",\n{pad}".join(items)
            + f"\n{' ' * indent}{closing}")


def main():
    GOLDEN.write_text(render(build_record()) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
