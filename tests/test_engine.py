import math

import numpy as np
import pytest

from fedlora.config import ConfigError, ExperimentConfig
from fedlora.engine import (ServerState, build_devices, comm_bytes, evaluate,
                            fedavg_gal, gal_payload_params, init_phase,
                            local_round, make_batches, run, sample_devices)
from fedlora.gal import GalDecision
from fedlora.linalg import make_rng
from fedlora.network import apply_update, backward, build_network


def small_cfg(**overrides):
    base = dict(devices=4, sampled_per_round=2, rounds=3, local_iterations=1,
                lr=0.01, batch_size=4, hidden_dims=[5, 4], num_classes=4,
                per_class=30, dim=6, class_sep=3.0, seed=1, mode="fibecfed")
    base.update(overrides)
    return ExperimentConfig(**base).validate()


class TestMakeBatches:
    def test_even_chunks(self):
        batches = make_batches(12, 4)
        assert [len(b) for b in batches] == [4, 4, 4]
        assert np.array_equal(np.concatenate(batches), np.arange(12))

    def test_short_tail_is_its_own_batch(self):
        batches = make_batches(10, 4)
        assert [len(b) for b in batches] == [4, 4, 2]


class TestBuildDevices:
    def test_devices_share_frozen_weights_but_not_adapters(self):
        cfg = small_cfg()
        devices = build_devices(cfg)
        first, second = devices[0].net.layers[0], devices[1].net.layers[0]
        assert first.w_base is second.w_base
        b_before = second.b.copy()
        a_before = second.a.copy()
        first.a += 1.0
        first.b += 1.0
        assert np.array_equal(second.a, a_before)
        assert np.array_equal(second.b, b_before)
        assert not first.w_base.flags.writeable

    def test_every_device_starts_from_the_same_fresh_network(self):
        cfg = small_cfg()
        fresh = build_network(cfg.dim, cfg.hidden_dims, cfg.num_classes,
                              rank=cfg.lora_rank, seed=cfg.seed)
        for dev in build_devices(cfg):
            for mine, ref in zip(dev.net.layers, fresh.layers):
                for name in ("w_base", "a", "b", "bias"):
                    assert getattr(mine, name).tobytes() == \
                        getattr(ref, name).tobytes()

    def test_partition_minimum_is_the_validated_one(self):
        # 125 devices * max(2 * 8, 4) = 2000 samples: the most that validate
        cfg = ExperimentConfig(devices=125).validate()
        assert min(len(d.train) + len(d.test)
                   for d in build_devices(cfg)) == cfg.min_shard
        with pytest.raises(ConfigError, match="devices"):
            ExperimentConfig(devices=126).validate()


class TestSampleDevices:
    def test_full_sample_returns_everyone(self):
        assert sample_devices(5, 5, make_rng(0)) == [0, 1, 2, 3, 4]

    def test_singleton(self):
        got = sample_devices(8, 1, make_rng(1))
        assert len(got) == 1 and 0 <= got[0] < 8

    def test_deterministic_and_sorted(self):
        a = sample_devices(20, 7, make_rng(3, 9))
        b = sample_devices(20, 7, make_rng(3, 9))
        assert a == b == sorted(a)
        assert len(set(a)) == 7

    def test_out_of_range_count_rejected(self):
        with pytest.raises(ValueError):
            sample_devices(4, 5, make_rng(0))
        with pytest.raises(ValueError):
            sample_devices(4, 0, make_rng(0))


class TestFedavgGal:
    def fake_server(self, shapes, rng):
        params = {li: (rng.normal(size=sa), rng.normal(size=sb))
                  for li, (sa, sb) in shapes.items()}
        decision = GalDecision(gal_layers=set(shapes), n_star=len(shapes), mu=1.0)
        return ServerState(gal=decision, gal_params=params)

    def test_matches_brute_force_weighted_mean(self):
        rng = make_rng(42)
        shapes = {0: ((2, 3), (4, 2)), 2: ((2, 5), (3, 2))}
        for _ in range(100):
            server = self.fake_server(shapes, rng)
            updates = []
            for _ in range(int(rng.integers(1, 6))):
                n_k = int(rng.integers(1, 50))
                params = {li: (rng.normal(size=sa), rng.normal(size=sb))
                          for li, (sa, sb) in shapes.items()}
                updates.append((n_k, params))
            fedavg_gal(server, updates)
            m = sum(n for n, _ in updates)
            for li in shapes:
                want_a = sum(n / m * p[li][0] for n, p in updates)
                want_b = sum(n / m * p[li][1] for n, p in updates)
                assert np.allclose(server.gal_params[li][0], want_a, atol=1e-12)
                assert np.allclose(server.gal_params[li][1], want_b, atol=1e-12)

    def test_identical_updates_leave_values_unchanged(self):
        rng = make_rng(1)
        shapes = {0: ((2, 2), (2, 2))}
        server = self.fake_server(shapes, rng)
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2))
        fedavg_gal(server, [(3, {0: (a, b)}), (7, {0: (a.copy(), b.copy())})])
        assert np.allclose(server.gal_params[0][0], a)
        assert np.allclose(server.gal_params[0][1], b)

    def test_weighted_scalar_case(self):
        server = self.fake_server({0: ((1, 1), (1, 1))}, make_rng(0))
        updates = [(1, {0: (np.zeros((1, 1)), np.zeros((1, 1)))}),
                   (3, {0: (np.full((1, 1), 4.0), np.full((1, 1), 4.0))})]
        fedavg_gal(server, updates)
        assert server.gal_params[0][0][0, 0] == 3.0

    def test_single_participant_verbatim(self):
        rng = make_rng(2)
        server = self.fake_server({1: ((2, 3), (4, 2))}, rng)
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(4, 2))
        fedavg_gal(server, [(9, {1: (a, b)})])
        assert np.allclose(server.gal_params[1][0], a)
        assert np.allclose(server.gal_params[1][1], b)

    def test_empty_and_mismatched_updates_rejected(self):
        server = self.fake_server({0: ((2, 2), (2, 2))}, make_rng(3))
        with pytest.raises(ValueError):
            fedavg_gal(server, [])
        with pytest.raises(ValueError):
            fedavg_gal(server, [(1, {0: (np.zeros((3, 3)), np.zeros((2, 2)))})])
        with pytest.raises(ValueError):
            fedavg_gal(server, [(1, {2: (np.zeros((2, 2)), np.zeros((2, 2)))})])


class TestCommBytes:
    def test_empty_round(self):
        assert comm_bytes(100, 0) == (0, 0)

    def test_doubling_sampled_doubles_traffic(self):
        d1, u1 = comm_bytes(50, 3)
        d2, u2 = comm_bytes(50, 6)
        assert (d2, u2) == (2 * d1, 2 * u1)

    def test_symmetric_and_eight_bytes_per_param(self):
        down, up = comm_bytes(10, 4)
        assert down == up == 4 * 10 * 8


class TestInitPhase:
    def test_single_device_large_mu_selects_every_layer(self):
        cfg = small_cfg(devices=1, sampled_per_round=1, mu=50.0)
        devices = build_devices(cfg)
        server, devices = init_phase(devices, cfg)
        assert server.gal.gal_layers == set(range(len(cfg.hidden_dims) + 1))

    def test_batch_order_is_ascending_difficulty(self):
        cfg = small_cfg(mode="no-mask")  # curriculum on
        devices = build_devices(cfg)
        # scores are computed on the pristine initial model, so grab them
        # before init_phase runs its warmup epochs
        from fedlora import fisher
        expected = {}
        for dev in devices:
            scores = []
            for j, idx in enumerate(dev.batches):
                per = [fisher.sample_score(fisher.sample_fim_diag(
                    dev.net, dev.train.features[i], int(dev.train.labels[i])))
                    for i in idx]
                scores.append((float(sum(per)), j))
            expected[dev.k] = [j for _, j in sorted(scores)]
        _, devices = init_phase(devices, cfg)
        for dev in devices:
            assert dev.batch_order == expected[dev.k]

    def test_gal_choice_identical_across_curriculum_and_mask_modes(self):
        layer_sets = {}
        for mode in ("fibecfed", "no-curriculum", "no-mask"):
            cfg = small_cfg(mode=mode)
            server, _ = init_phase(build_devices(cfg), cfg)
            layer_sets[mode] = server.gal.gal_layers
        assert layer_sets["fibecfed"] == layer_sets["no-curriculum"]
        assert layer_sets["fibecfed"] == layer_sets["no-mask"]

    def test_baseline_mode_skips_analysis_and_masks(self):
        cfg = small_cfg(mode="fedavg-lora")
        server, devices = init_phase(build_devices(cfg), cfg)
        assert server.gal.gal_layers == set(range(3))
        assert all(m is None for m in devices[0].mask.per_layer)
        assert devices[0].momentum_fim is None


class TestLocalRound:
    def test_zero_learning_rate_returns_broadcast_params(self):
        cfg = small_cfg(mode="fedavg-lora")
        server, devices = init_phase(build_devices(cfg), cfg)
        frozen_cfg = ExperimentConfig(**{**cfg.__dict__, "lr": 0.0})
        update, loss = local_round(devices[0], server.gal_params, 0, frozen_cfg)
        assert math.isfinite(loss)
        for li, (a, b) in server.gal_params.items():
            assert np.array_equal(update[li][0], a)
            assert np.array_equal(update[li][1], b)

    def test_update_covers_exactly_the_broadcast_layers(self):
        cfg = small_cfg(mode="fedavg-lora")
        server, devices = init_phase(build_devices(cfg), cfg)
        partial = {0: server.gal_params[0]}
        update, _ = local_round(devices[1], partial, 0, cfg)
        assert set(update) == {0}

    def test_training_changes_the_synced_layers(self):
        cfg = small_cfg(mode="fedavg-lora")
        server, devices = init_phase(build_devices(cfg), cfg)
        update, _ = local_round(devices[0], server.gal_params, 0, cfg)
        moved = any(not np.array_equal(update[li][0], server.gal_params[li][0])
                    for li in update)
        assert moved


def reference_fedavg(cfg):
    """Plain federated LoRA (full sync, no curriculum, no masks), written as
    an independent loop over the same primitives."""
    devices = build_devices(cfg)
    num_layers = len(devices[0].net.layers)
    total_n = sum(d.n_k for d in devices)
    global_params = {}
    for li in range(num_layers):
        a = np.zeros_like(devices[0].net.layers[li].a)
        b = np.zeros_like(devices[0].net.layers[li].b)
        for dev in devices:
            w = dev.n_k / total_n
            a += w * dev.net.layers[li].a
            b += w * dev.net.layers[li].b
        global_params[li] = (a, b)

    trajectory = []
    for t in range(cfg.rounds):
        sampled = sample_devices(cfg.devices, cfg.sampled_per_round,
                                 make_rng(cfg.seed, 0x5E, t))
        updates = []
        for k in sampled:
            dev = devices[k]
            for li, (a, b) in global_params.items():
                dev.net.layers[li].a = a.copy()
                dev.net.layers[li].b = b.copy()
            for _ in range(cfg.local_iterations):
                for idx in dev.batches:
                    apply_update(dev.net, backward(dev.net, dev.train.features[idx],
                                                   dev.train.labels[idx]), cfg.lr)
            updates.append((dev.n_k, {li: (dev.net.layers[li].a.copy(),
                                           dev.net.layers[li].b.copy())
                                      for li in range(num_layers)}))
        m = sum(n for n, _ in updates)
        fresh = {}
        for li, (a0, b0) in global_params.items():
            a = np.zeros_like(a0)
            b = np.zeros_like(b0)
            for n_k, params in updates:
                w = n_k / m
                a += w * params[li][0]
                b += w * params[li][1]
            fresh[li] = (a, b)
        global_params = fresh
        trajectory.append({li: (a.copy(), b.copy())
                           for li, (a, b) in global_params.items()})
    return trajectory


class TestBaselineEquivalence:
    def test_disabled_pipeline_equals_plain_fedavg_exactly(self):
        cfg = small_cfg(mode="fedavg-lora", rounds=3)
        want = reference_fedavg(cfg)

        # replay the engine and capture the server state each round
        devices = build_devices(cfg)
        server, devices = init_phase(devices, cfg)
        for t in range(cfg.rounds):
            sampled = sample_devices(cfg.devices, cfg.sampled_per_round,
                                     make_rng(cfg.seed, 0x5E, t))
            updates = []
            for k in sampled:
                update, _ = local_round(devices[k], server.gal_params, t, cfg)
                updates.append((devices[k].n_k, update))
            fedavg_gal(server, updates)
            for li in server.gal_params:
                assert np.array_equal(server.gal_params[li][0], want[t][li][0])
                assert np.array_equal(server.gal_params[li][1], want[t][li][1])


class TestRun:
    def test_zero_rounds_is_init_only(self):
        cfg = small_cfg(rounds=0, mode="fedavg-lora")
        reports, summary, server, devices = run(cfg)
        assert reports == []
        assert "gal_layers" in summary

    def test_round_reports_are_complete_and_bounded(self):
        cfg = small_cfg(mode="fedavg-lora")
        reports, summary, _, _ = run(cfg)
        assert len(reports) == cfg.rounds
        for i, r in enumerate(reports):
            assert r.round == i
            assert len(r.sampled) == cfg.sampled_per_round
            assert 0.0 <= r.weighted_test_acc <= 1.0
            assert 0.0 <= r.server_view_acc <= 1.0
            assert r.bytes_down == r.bytes_up > 0
            assert math.isfinite(r.train_loss)

    def test_payload_accounting_matches_gal_size(self):
        cfg = small_cfg(mode="fedavg-lora")
        reports, summary, server, devices = run(cfg)
        payload = gal_payload_params(devices[0].net, server.gal.gal_layers)
        assert summary["payload_params_per_device"] == payload
        assert reports[0].bytes_down == cfg.sampled_per_round * payload * 8

    def test_seeded_rerun_identical_reports(self):
        cfg = small_cfg()
        r1, _, _, _ = run(cfg)
        r2, _, _, _ = run(cfg)
        for a, b in zip(r1, r2):
            assert a.sampled == b.sampled
            assert a.train_loss == b.train_loss
            assert a.weighted_test_acc == b.weighted_test_acc

    def test_trainable_and_frozen_partition_all_adapters(self):
        cfg = small_cfg()
        _, summary, _, devices = run(cfg)
        total = devices[0].net.lora_param_count()
        assert summary["trainable_params_device0"] + \
            summary["frozen_params_device0"] == total


class TestEvaluate:
    def test_personalized_view_uses_global_gal_overlay(self):
        cfg = small_cfg(mode="fedavg-lora", rounds=1)
        _, _, server, devices = run(cfg)
        acc, view = evaluate(server, devices)
        assert 0.0 <= acc <= 1.0
        # with every layer global and local snapshots absent, both views agree
        assert acc == view
