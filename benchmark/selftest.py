"""Fast self-test of the benchmark on the toy `tiny` workload (~20 s).

    python3 benchmark/selftest.py

Checks that the printed metric names and units match BENCHMARK.json, that
each output check fails on a deliberately corrupted output, and that a
traced function missing from the program is reported as absent.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

from checks import check_experiment
from instrument import Patches, RunProbe, Tracer
from run import ROOT, Session, load_program
from workloads import WORKLOADS

TINY = WORKLOADS["tiny"]


def bench(trace):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")),
         "--workload", TINY.name, "--seed", "0", "--seconds", "0",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class PrintedMetrics(unittest.TestCase):
    def test_names_and_units_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = bench(trace)
            self.assertEqual(set(out), {"correct", "attempted", "failed",
                                        "metrics"})
            self.assertTrue(out["correct"])
            self.assertEqual(out["failed"], 0)
            self.assertGreaterEqual(out["attempted"], 2)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            self.assertEqual(got, want)


class CorruptedOutputs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.fl = load_program()
        cls.tmp = tempfile.TemporaryDirectory()
        cls.cfg = cls.fl.config.parse_config(TINY.config_text(0))

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def setUp(self):
        self.probe = RunProbe()
        out = Path(self.tmp.name) / self.id()
        with Patches(self.fl) as patches:
            self.probe.install(patches, self.fl.engine)
            self.fl.cli.run_experiment(self.cfg, out)
        self.csv = (out / "metrics.csv").read_text()

    def fails(self, csv_text=None):
        cfg = self.cfg
        fresh = self.fl.network.build_network(
            cfg.dim, cfg.hidden_dims, cfg.num_classes, rank=cfg.lora_rank,
            seed=cfg.seed)
        return check_experiment(cfg, TINY, self.probe.result,
                                self.probe.frozen_rows,
                                self.csv if csv_text is None else csv_text,
                                fresh)

    def test_clean_output_passes(self):
        self.assertEqual(self.fails(), [])

    def test_reported_accuracy(self):
        self.probe.result[0][-1].weighted_test_acc += 1e-3
        self.assertTrue(self.fails())

    def test_server_params(self):
        server = self.probe.result[2]
        rng = np.random.default_rng(0)
        for li, (a, b) in server.gal_params.items():
            server.gal_params[li] = (a, b + rng.normal(size=b.shape))
        self.assertTrue(self.fails())

    def test_bytes_in_csv(self):
        lines = self.csv.splitlines(keepends=True)
        cols = lines[1].split(",")
        cols[5] = str(int(cols[5]) + 8)
        lines[1] = ",".join(cols)
        self.assertTrue(self.fails("".join(lines)))

    def test_base_weights(self):
        layer = self.probe.result[3][1].net.layers[0]
        layer.w_base = layer.w_base + 1e-12
        self.assertTrue(self.fails())

    def test_masked_rows(self):
        (k, li), _ = next(iter(self.probe.frozen_rows.items()))
        dev = self.probe.result[3][k]
        dev.net.layers[li].b[~dev.mask.per_layer[li]] += 1e-12
        self.assertTrue(self.fails())

    def test_dense_masks_break_the_sparse_premise(self):
        for dev in self.probe.result[3]:
            dev.mask.per_layer = [None if m is None else np.ones_like(m)
                                  for m in dev.mask.per_layer]
        self.probe.frozen_rows.clear()
        self.assertTrue(self.fails())

    def test_rerun_with_other_csv(self):
        session = Session(self.fl, TINY, 0, Path(self.tmp.name) / "session")
        self.assertIsNotNone(session.experiment())
        self.assertEqual(session.fails, [])
        session.first_csv = b"round\n"
        session.experiment()
        self.assertTrue(session.fails)

    def test_absent_function_is_reported(self):
        network = self.fl.network
        original = network.set_lora_flat
        del network.set_lora_flat
        try:
            session = Session(self.fl, TINY, 0, Path(self.tmp.name) / "absent")
            tracer = Tracer(self.fl)
            self.assertIsNotNone(session.experiment(tracer))
        finally:
            network.set_lora_flat = original
        self.assertEqual(tracer.absent, ["network.set_lora_flat"])
        self.assertEqual(tracer.stats["network.set_lora_flat"], [0, 0.0, 0.0])
        self.assertGreater(tracer.stats["network.backward"][0], 0)


if __name__ == "__main__":
    unittest.main()
