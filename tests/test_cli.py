import math

import numpy as np
import pytest

from fedlora.cli import (CSV_HEADER, compare_runs, main, read_metrics,
                         render_metrics_csv, run_experiment)
from fedlora.config import (MODES, ConfigError, ExperimentConfig,
                            load_config, parse_config)
from fedlora.engine import RoundReport, build_devices


def small_yaml(**overrides):
    base = dict(devices=4, sampled_per_round=2, rounds=2, local_iterations=1,
                lr=0.01, batch_size=4, hidden_dims=[5, 4], num_classes=4,
                per_class=30, dim=6, class_sep=3.0, seed=1,
                mode="fedavg-lora")
    base.update(overrides)
    lines = []
    for k, v in base.items():
        if isinstance(v, list):
            lines.append(f"{k}: [{', '.join(str(x) for x in v)}]")
        else:
            lines.append(f"{k}: {v}")
    return "\n".join(lines) + "\n"


class TestParseConfig:
    def test_empty_document_yields_defaults(self):
        cfg = parse_config("")
        assert cfg == ExperimentConfig()
        assert cfg.devices == 20
        assert cfg.sampled_per_round == 5
        assert cfg.rounds == 60

    def test_reference_hyperparameters_roundtrip(self):
        text = ("beta: 0.6\nalpha: 0.8\nbatch_size: 8\ndevices: 100\n"
                "sampled_per_round: 10\nlocal_iterations: 2\n")
        cfg = parse_config(text)
        assert (cfg.beta, cfg.alpha, cfg.batch_size) == (0.6, 0.8, 8)
        assert (cfg.devices, cfg.sampled_per_round, cfg.local_iterations) == \
            (100, 10, 2)
        # serializing the fields back reproduces the same config
        assert parse_config(dict(cfg.__dict__)) == cfg

    def test_zero_beta_rejected_naming_the_key(self):
        with pytest.raises(ConfigError, match="beta"):
            parse_config("beta: 0\n")

    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(ConfigError, match="warp_speed"):
            parse_config("warp_speed: 9\n")

    def test_type_errors_rejected_by_name(self):
        with pytest.raises(ConfigError, match="devices"):
            parse_config("devices: twenty\n")
        with pytest.raises(ConfigError, match="lr"):
            parse_config("lr: [1, 2]\n")
        with pytest.raises(ConfigError, match="hidden_dims"):
            parse_config("hidden_dims: 16\n")
        with pytest.raises(ConfigError, match="rounds"):
            parse_config("rounds: 1.5\n")

    def test_exponent_floats_are_numbers(self):
        cfg = parse_config("lr: 1e-3\nnoise_budget: 1E-1\nclass_sep: 1.0e150\n"
                           "mu: 2.5e+0\n")
        assert (cfg.lr, cfg.noise_budget, cfg.class_sep, cfg.mu) == \
            (1e-3, 0.1, 1e150, 2.5)
        with pytest.raises(ConfigError, match="rounds"):
            parse_config("rounds: 1e3\n")

    @pytest.mark.parametrize("key, text, value", [
        ("mu", ".inf", math.inf), ("lr", ".inf", math.inf),
        ("lr", "-.inf", -math.inf), ("class_sep", ".nan", math.nan)])
    def test_non_finite_floats_rejected_naming_the_key(self, key, text, value):
        with pytest.raises(ConfigError, match=f"^{key}: expected a finite"):
            parse_config(f"{key}: {text}\n")
        with pytest.raises(ConfigError, match=f"^{key}: expected a finite"):
            parse_config({key: value})

    @pytest.mark.parametrize("key, value", [
        ("noise_budget", 0), ("noise_budget", -0.1), ("p_norm", 1),
        ("p_norm", 0.5), ("dirichlet_alpha", 0), ("dirichlet_alpha", -1.0),
        ("devices", 0)])
    def test_init_phase_settings_rejected_naming_the_key(self, key, value):
        # validate() is the only check of these: the noise and the partition
        # take them as plain arguments
        with pytest.raises(ConfigError, match=f"^{key}: "):
            parse_config(f"{key}: {value}\n")

    def test_negative_seed_rejected_naming_the_key(self):
        with pytest.raises(ConfigError, match="^seed: "):
            parse_config("seed: -1\n")

    def test_cross_field_violations_rejected(self):
        with pytest.raises(ConfigError, match="sampled_per_round"):
            parse_config("devices: 4\nsampled_per_round: 9\n")
        with pytest.raises(ConfigError, match="mode"):
            parse_config("mode: turbo\n")
        with pytest.raises(ConfigError, match="pace"):
            parse_config("pace: cubic\n")

    def test_malformed_yaml_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("{{{:")
        with pytest.raises(ConfigError):
            parse_config("- just\n- a\n- list\n")

    def test_load_config_reads_files(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(small_yaml())
        assert load_config(path).devices == 4


class TestRenderMetricsCsv:
    def reports(self):
        return [RoundReport(round=0, sampled=[1, 3], train_loss=2.25,
                            weighted_test_acc=0.5, server_view_acc=0.4,
                            bytes_down=800, bytes_up=800, wall_ms=12.5)]

    def test_header_and_row_shape(self):
        text = render_metrics_csv(self.reports())
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_HEADER)
        assert lines[1].split(",")[0] == "0"
        assert lines[1].split(",")[1] == "1;3"

    def test_wall_time_column_is_stable_across_reruns(self):
        a = self.reports()
        b = self.reports()
        b[0].wall_ms = 99999.0  # measured time must not leak into the csv
        assert render_metrics_csv(a) == render_metrics_csv(b)


class TestRunExperiment:
    def test_writes_metrics_and_summary(self, tmp_path):
        cfg = parse_config(small_yaml())
        csv_path, reports, summary = run_experiment(cfg, tmp_path / "out")
        assert csv_path.exists()
        assert (tmp_path / "out" / "summary.yaml").exists()
        rows = read_metrics(csv_path)
        assert len(rows) == cfg.rounds
        assert "total_wall_s" in summary

    def test_zero_rounds_leaves_header_only(self, tmp_path):
        cfg = parse_config(small_yaml(rounds=0))
        csv_path, _, _ = run_experiment(cfg, tmp_path / "out")
        assert csv_path.read_text().strip() == ",".join(CSV_HEADER)

    def test_seeded_rerun_is_byte_identical(self, tmp_path):
        cfg = parse_config(small_yaml())
        p1, _, _ = run_experiment(cfg, tmp_path / "a")
        p2, _, _ = run_experiment(cfg, tmp_path / "b")
        assert p1.read_bytes() == p2.read_bytes()


class TestCompareRuns:
    def write_csv(self, path, accs):
        rows = [",".join(CSV_HEADER)]
        for t, acc in enumerate(accs):
            rows.append(f"{t},0,1.0,{acc},{acc},100,100")
        path.write_text("\n".join(rows) + "\n")
        return path

    def test_identical_files_have_zero_delta(self, tmp_path):
        p = self.write_csv(tmp_path / "a.csv", [0.1, 0.5, 0.8])
        out = compare_runs(p, p, targets=(0.5,))
        assert out["final_acc_delta"] == 0.0
        assert out["rounds_to_target"][0.5] == (1, 1)

    def test_unreached_target_reports_none(self, tmp_path):
        a = self.write_csv(tmp_path / "a.csv", [0.1, 0.9])
        b = self.write_csv(tmp_path / "b.csv", [0.1, 0.2])
        out = compare_runs(a, b, targets=(0.8,))
        assert out["rounds_to_target"][0.8] == (1, None)

    def test_first_crossing_on_monotone_fixture(self, tmp_path):
        a = self.write_csv(tmp_path / "a.csv", [0.0, 0.2, 0.4, 0.6, 0.8])
        out = compare_runs(a, a, targets=(0.35, 0.8))
        assert out["rounds_to_target"][0.35] == (2, 2)
        assert out["rounds_to_target"][0.8] == (4, 4)

    def test_schema_mismatch_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("foo,bar\n1,2\n")
        good = self.write_csv(tmp_path / "good.csv", [0.5])
        with pytest.raises(ValueError):
            compare_runs(good, bad)


class TestMainEntryPoint:
    def test_run_and_compare_exit_zero(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(small_yaml())
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", str(cfg_path), "--out", str(out_a)]) == 0
        assert main(["run", str(cfg_path), "--seed", "2",
                     "--out", str(out_b)]) == 0
        code = main(["compare", str(out_a / "metrics.csv"),
                     str(out_b / "metrics.csv"), "--targets", "0.2"])
        assert code == 0
        assert "final accuracy" in capsys.readouterr().out

    def test_bad_config_exits_one(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text("beta: 0\n")
        assert main(["run", str(cfg_path)]) == 1
        assert main(["run", str(tmp_path / "missing.yaml")]) == 1

    @pytest.mark.parametrize("key", ["mu", "lr"])
    def test_non_finite_float_exits_one(self, tmp_path, capsys, key):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(f"{key}: .inf\n")
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        assert f"{key}: expected a finite number" in capsys.readouterr().err

    def test_negative_seed_exits_one_naming_the_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(small_yaml(seed=-1))
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        assert "config error: seed: " in capsys.readouterr().err
        assert main(["run", "-", "--seed", "-3",
                     "--out", str(tmp_path / "o")]) == 1
        assert "config error: seed: " in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("key, value", [("p_norm", 1.0000001),
                                            ("noise_budget", 1.0e200)])
    def test_non_finite_layer_scores_exit_two(self, tmp_path, capsys, key,
                                              value):
        # the noise probes give NaN (p_norm) or infinite (noise_budget)
        # scores on every device; the GAL is not chosen from them
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(small_yaml(mode="fibecfed", mu=0.5,
                                       lipschitz_points=8, hessian_samples=2,
                                       **{key: value}))
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert "non-finite layer score on device 0" in capsys.readouterr().err

    def test_mode_override_applies(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(small_yaml(mode="fedavg-lora"))
        out = tmp_path / "o"
        assert main(["run", str(cfg_path), "--mode", "no-curriculum",
                     "--out", str(out)]) == 0

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("fraction", [0.05, 0.1])
    def test_shards_smaller_than_one_batch_run_in_every_mode(
            self, tmp_path, capsys, mode, fraction):
        # the CI smoke config with 1-5 training rows per device: a device
        # with fewer than batch_size rows trains on one short batch
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(
            "devices: 4\nsampled_per_round: 2\nrounds: 3\nper_class: 30\n"
            "num_classes: 4\ndim: 6\nhidden_dims: [5, 4]\nbatch_size: 4\n"
            "lipschitz_points: 8\nhessian_samples: 2\nseed: 1\n"
            f"train_fraction: {fraction}\n")
        cfg = load_config(cfg_path)
        assert any(dev.n_k < cfg.batch_size for dev in build_devices(cfg))
        code = main(["run", str(cfg_path), "--mode", mode,
                     "--out", str(tmp_path / "o")])
        assert code == 0, capsys.readouterr().err

    def test_too_many_devices_for_the_partition_exits_one(self, tmp_path,
                                                          capsys):
        # 200 devices * max(2 * batch_size, 4) = 3200 > 2000 samples
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text("devices: 200\n")
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        assert "devices" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("mode, where", [
        ("fibecfed", "device 0, warmup epoch 0"),
        ("fedavg-lora", "device 4, round 0")])
    def test_diverging_run_exits_two_naming_device_and_phase(
            self, tmp_path, capsys, mode, where):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(f"lr: 5\nmode: {mode}\n")
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"non-finite loss or gradient on {where}" in err

    def test_compare_with_missing_file_exits_two(self, tmp_path):
        assert main(["compare", str(tmp_path / "x.csv"),
                     str(tmp_path / "y.csv")]) == 2

    def test_compare_with_a_wrong_field_count_exits_two(self, tmp_path,
                                                        capsys):
        good = tmp_path / "good.csv"
        good.write_text(",".join(CSV_HEADER) + "\n0,0,1.0,0.5,0.5,100,100\n")
        for name, row in (("short.csv", "1,0,1.0,0.6"),
                          ("long.csv", "1,0,1.0,0.6,0.6,100,100,7")):
            bad = tmp_path / name
            bad.write_text(good.read_text() + row + "\n")
            assert main(["compare", str(good), str(bad)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {bad}, line 3: field count")

    def test_compare_with_a_wrong_header_and_no_rows_exits_two(self,
                                                               tmp_path,
                                                               capsys):
        good = tmp_path / "good.csv"
        good.write_text(",".join(CSV_HEADER) + "\n0,0,1.0,0.5,0.5,100,100\n")
        # old.csv has the schema that carried a wall_ms column
        for name, text in (("hdr.csv", "foo,bar\n"), ("empty.csv", ""),
                           ("twice.csv", ",".join(CSV_HEADER * 2) + "\n"),
                           ("old.csv", ",".join(CSV_HEADER + ["wall_ms"])
                            + "\n0,0,1.0,0.5,0.5,100,100,0\n")):
            bad = tmp_path / name
            bad.write_text(text)
            assert main(["compare", str(good), str(bad)]) == 2
            err = capsys.readouterr().err
            assert err == f"error: {bad}: unexpected metrics schema\n"

    def test_compare_with_a_non_numeric_field_exits_two(self, tmp_path,
                                                        capsys):
        good = tmp_path / "good.csv"
        good.write_text(",".join(CSV_HEADER) + "\n0,0,1.0,0.5,0.5,100,100\n")
        for row, key in (("1,0,1.0,abc,0.6,100,100", "weighted_test_acc"),
                         ("1.5,0,1.0,0.6,0.6,100,100", "round"),
                         ("1,0,1.0,0.6,0.6,100,", "bytes_up")):
            bad = tmp_path / "bad.csv"
            bad.write_text(good.read_text() + row + "\n")
            assert main(["compare", str(good), str(bad)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {bad}, line 3: {key} is not a "
                                  "number")

    def test_read_metrics_converts_the_numeric_fields(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(",".join(CSV_HEADER)
                        + "\n2,1;3,1.5,0.25,0.125,800,800\n")
        [row] = read_metrics(path)
        assert row == {"round": 2, "sampled_ids": "1;3", "train_loss": 1.5,
                       "weighted_test_acc": 0.25, "server_view_acc": 0.125,
                       "bytes_down": 800, "bytes_up": 800}
        assert [type(row[k]) for k in CSV_HEADER] == [
            int, str, float, float, float, int, int]


def test_smaller_aggregation_payload_when_not_all_layers_sync(tmp_path):
    # a model with more layers gives the gap rule room to exclude some; the
    # partial-sync run must then move strictly fewer bytes per round
    common = dict(devices=4, sampled_per_round=2, rounds=1,
                  local_iterations=1, lr=0.01, batch_size=4,
                  hidden_dims=[6, 5, 4], num_classes=4, per_class=30,
                  dim=6, class_sep=3.0, seed=1, mu=0.5)
    full = parse_config(dict(common, mode="fedavg-lora"))
    partial = parse_config(dict(common, mode="fibecfed"))
    p_full, _, s_full = run_experiment(full, tmp_path / "full")
    p_part, _, s_part = run_experiment(partial, tmp_path / "part")
    assert len(s_part["gal_layers"]) < len(s_full["gal_layers"])
    rows_full = read_metrics(p_full)
    rows_part = read_metrics(p_part)
    assert int(rows_part[0]["bytes_down"]) < int(rows_full[0]["bytes_down"])
