import collections
import copy
import math

import numpy as np
import pytest

import fedlora
from fedlora.config import MODES, ConfigError, ExperimentConfig
from fedlora import curriculum, engine, fisher
from fedlora.engine import (DeviceState, ServerState, build_devices,
                            comm_bytes, eval_state, evaluate, fedavg_gal,
                            gal_payload_params, init_phase, local_round,
                            make_batches, pad_test_sets, run, sample_devices)
from fedlora.gal import GalDecision, eigengap_rank
from fedlora.linalg import eigh_symmetric, make_rng
from fedlora.network import (apply_update, backward, build_network,
                             clone_network, flatten_lora, forward_layers,
                             lora_views)
from oracles import (fim_trace, layer_mean, per_device_init_phase,
                     reference_local_round)


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


def assert_one_adapter_owner(devices):
    """Every device's `net` adapters view its `adapters` row and flatten to
    it, and the rows are the consecutive rows of one (D, P) array."""
    first = devices[0].adapters
    size = first.size
    owner = first.base
    assert owner is not None and owner.size == len(devices) * size
    for i, dev in enumerate(devices):
        assert dev.adapters.base is owner and dev.adapters.dtype == np.float64
        assert dev.adapters.ctypes.data == first.ctypes.data + i * size * 8
        for layer in dev.net.layers:
            assert np.shares_memory(layer.a, dev.adapters)
            assert np.shares_memory(layer.b, dev.adapters)
        assert np.array_equal(flatten_lora(dev.net), dev.adapters)


class TestAdapterOwnership:
    """The engine reads and writes only `DeviceState.adapters`; `net`'s
    adapters are views of it. `copy.deepcopy` of a device gives its layers
    and its row separate copies, so the views are gone: tests run the engine
    only on devices that were not deep-copied."""

    def test_build_init_and_run_keep_one_owner(self, monkeypatch):
        cfg = small_cfg(mu=0.5, lipschitz_points=8, hessian_samples=2)
        devices = build_devices(cfg)
        assert_one_adapter_owner(devices)
        seen = []

        def init_hook(*args):
            server, devices = init_phase(*args)
            assert_one_adapter_owner(devices)
            seen.append(server)
            return server, devices

        monkeypatch.setattr(engine, "init_phase", init_hook)
        _, _, server, devices = run(cfg)
        assert seen == [server]
        assert_one_adapter_owner(devices)
        # the step plans kept across rounds step on the rows themselves,
        # write into the one gradient buffer of the run, and read views of
        # the training rows
        trained = [dev for dev in devices if dev.training is not None]
        assert trained
        for dev in trained:
            plan, batches = dev.training
            assert plan.grad is devices[0].grad
            for _, _, _, _, a, _, b, *_ in plan.layers:
                assert np.shares_memory(a, dev.adapters)
                assert np.shares_memory(b, dev.adapters)
            for (x, _), idx in zip(batches, dev.batches, strict=True):
                assert np.shares_memory(x, dev.train.features)
                assert np.array_equal(x, dev.train.features[idx])

    def test_a_deep_copy_has_no_views(self):
        dev = copy.deepcopy(build_devices(small_cfg())[0])
        assert not np.shares_memory(dev.net.layers[0].a, dev.adapters)


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


def fake_server(gal_layers):
    decision = GalDecision(gal_layers=set(gal_layers), n_star=len(gal_layers))
    return ServerState(gal=decision, gal_params={})


def random_devices(rng):
    """`build_devices` of the small config at 8 devices (shards 13, 13, 13,
    14, 14, 10, 12, 7), with a random adapter row on every device."""
    devices = build_devices(small_cfg(devices=8))
    for dev in devices:
        dev.adapters[...] = rng.normal(size=dev.adapters.shape)
    return devices


class TestFedavgGal:
    def test_matches_brute_force_weighted_mean(self):
        rng = make_rng(42)
        for _ in range(100):
            devices = random_devices(rng)
            gal = {li for li in range(3) if rng.random() < 0.6} or {1}
            picked = sorted(rng.choice(len(devices), replace=False,
                                       size=int(rng.integers(1, 9))))
            part = [devices[k] for k in picked]
            server = fake_server(gal)
            fedavg_gal(server, part)
            assert list(server.gal_params) == sorted(gal)
            m = sum(dev.n_k for dev in part)
            for li in gal:
                want_a = sum(d.n_k / m * d.net.layers[li].a for d in part)
                want_b = sum(d.n_k / m * d.net.layers[li].b for d in part)
                assert np.allclose(server.gal_params[li][0], want_a, atol=1e-12)
                assert np.allclose(server.gal_params[li][1], want_b, atol=1e-12)

    def test_identical_updates_leave_values_unchanged(self):
        devices = random_devices(make_rng(1))[2:4]
        devices[1].adapters[...] = devices[0].adapters
        assert devices[0].n_k != devices[1].n_k
        server = fake_server({0})
        fedavg_gal(server, devices)
        assert np.allclose(server.gal_params[0][0], devices[0].net.layers[0].a)
        assert np.allclose(server.gal_params[0][1], devices[0].net.layers[0].b)

    def test_weighted_scalar_case(self):
        # 1x1 adapters, weights 1 and 3 over values 0 and 4
        net = build_network(1, [1], 1, rank=1)
        store = np.array([np.zeros(4), np.full(4, 4.0)])
        devices = [DeviceState(k, clone, row, np.zeros(n), None)
                   for k, (clone, row, n)
                   in enumerate(zip(clone_network(net, store), store, (1, 3)))]
        server = fake_server({0})
        fedavg_gal(server, devices)
        assert server.gal_params[0][0][0, 0] == 3.0

    def test_single_participant_verbatim(self):
        dev = random_devices(make_rng(2))[3]
        server = fake_server({1})
        fedavg_gal(server, [dev])
        assert np.allclose(server.gal_params[1][0], dev.net.layers[1].a)
        assert np.allclose(server.gal_params[1][1], dev.net.layers[1].b)


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
                per = [fim_trace(fisher.sample_fim_diag(
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

    @pytest.mark.parametrize("mode", MODES)
    def test_noise_probes_run_only_with_the_gal_on(self, mode, monkeypatch):
        # one stacked probe per group of equal-sized shards; full-sync keeps
        # every layer global and has no use for the layer scores
        cfg = small_cfg(mode=mode)
        real = engine.gal_mod.device_layer_scores
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(engine.gal_mod, "device_layer_scores", counting)
        devices = build_devices(cfg)
        init_phase(devices, cfg)
        groups = len({dev.n_k for dev in devices})
        want = {"fibecfed": groups, "no-curriculum": groups,
                "no-mask": groups, "full-sync": 0, "fedavg-lora": 0}
        assert len(calls) == want[mode]

    @pytest.mark.parametrize("mode", MODES)
    def test_lockstep_passes_run_once_exactly_with_the_gal_or_masks_on(
            self, mode, monkeypatch):
        # the curriculum's scoring pass runs only inside the lockstep passes,
        # and those run only for the GAL or the masks: a mode with the
        # curriculum alone would silently train without a batch order
        cfg = small_cfg(mode=mode)
        assert not cfg.curriculum_on or cfg.gal_on or cfg.mask_on
        real = engine._lockstep_passes
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(engine, "_lockstep_passes", counting)
        init_phase(build_devices(cfg), cfg)
        assert len(calls) == (1 if cfg.gal_on or cfg.mask_on else 0)

    def test_baseline_mode_skips_analysis_and_masks(self, monkeypatch):
        cfg = small_cfg(mode="fedavg-lora")
        analysed = []
        monkeypatch.setattr(engine, "device_init_analysis",
                            lambda dev, *args: analysed.append(dev.k))
        server, devices = init_phase(build_devices(cfg), cfg)
        assert server.gal.gal_layers == set(range(3))
        assert all(m is None for m in devices[0].mask.per_layer)
        assert analysed == []


class TestStackedPasses:
    """The precondition of the init phase's stacked passes: a (G, n, d)
    stack of device samples with a (G, P) stack of flat adapters gives each
    device the bits of its own 2-D call."""

    def test_stacked_backward_equals_single_calls_bitwise(self):
        rng = make_rng(7)
        g_count = 3
        shards = {dev.n_k for c in (small_cfg(), small_cfg(devices=8))
                  for dev in build_devices(c)}
        for cfg in (ExperimentConfig().validate(), small_cfg()):
            net = build_network(cfg.dim, cfg.hidden_dims, cfg.num_classes,
                                rank=cfg.lora_rank, seed=cfg.seed)
            sizes = sorted(set(range(1, cfg.batch_size + 1)) | shards)
            for n in sizes:
                xs = rng.normal(size=(g_count, n, cfg.dim))
                ys = rng.integers(0, cfg.num_classes, size=(g_count, n))
                flat = rng.normal(0.0, 0.3,
                                  size=(g_count, net.lora_param_count()))
                full = backward(net, xs, ys, params=lora_views(net, flat))
                lean = backward(net, xs, ys, params=lora_views(net, flat),
                                adapters_only=True)
                for i in range(g_count):
                    # the oracle's forms: a device's own adapters for the
                    # Fisher passes, views of its flat vector for training
                    [own] = clone_network(net, flat[i:i + 1].copy())
                    single = backward(own, xs[i], ys[i])
                    p = flat[i].copy()
                    step = backward(net, xs[i], ys[i],
                                    params=lora_views(net, p),
                                    adapters_only=True)
                    for got, want in ((full, single), (lean, step)):
                        assert np.array_equal(got.grad[i], want.grad)
                        assert np.array_equal(got.loss[i], want.loss)
                    for got, want in zip(full.fim_rows, single.fim_rows):
                        assert np.array_equal(got[i], want)


def assert_same_init(got, want):
    """Two `init_phase` results hold the same bits: the GAL decision, the
    server's GAL parameters and every device's batch order, mask and
    adapters."""
    (server, devices), (ref_server, ref_devices) = got, want
    assert server.gal.gal_layers == ref_server.gal.gal_layers
    assert server.gal.n_star == ref_server.gal.n_star
    assert server.gal.per_device == ref_server.gal.per_device
    assert server.gal.global_scores == ref_server.gal.global_scores
    assert server.gal_params.keys() == ref_server.gal_params.keys()
    for li, pair in server.gal_params.items():
        for got_m, want_m in zip(pair, ref_server.gal_params[li]):
            assert np.array_equal(got_m, want_m)
    for dev, ref in zip(devices, ref_devices, strict=True):
        assert dev.batch_order == ref.batch_order
        for keep, ref_keep in zip(dev.mask.per_layer, ref.mask.per_layer,
                                  strict=True):
            assert (keep is None) == (ref_keep is None)
            assert keep is None or np.array_equal(keep, ref_keep)
        for layer, ref_layer in zip(dev.net.layers, ref.net.layers):
            assert np.array_equal(layer.a, ref_layer.a)
            assert np.array_equal(layer.b, ref_layer.b)


class TestLockstepInit:
    """`init_phase` runs the scoring, noise-probe, momentum and warmup
    passes stacked over every device; `per_device_init_phase` is the loop
    over the devices it replaces."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("shape", [
        {}, {"batch_size": 1}, {"lora_rank": 1},
        {"devices": 1, "sampled_per_round": 1},
        {"devices": 8},  # shards 13, 13, 13, 14, 14, 10, 12, 7
    ])
    def test_equals_the_per_device_loop_bitwise(self, mode, shape,
                                                monkeypatch):
        cfg = small_cfg(mode=mode, mu=0.5, lipschitz_points=8,
                        hessian_samples=2, **shape)
        real = fisher.neuron_scores
        # the momentum FIM row sums each mask is built from: layer -> one
        # (d_out, 1) array per device, in device order. The loop asks for one
        # device's FIM at a time, the engine for a (D, d_out, 1) stack.
        fims = []

        def recording(fim, layer):
            rows = fim[layer].reshape((-1,) + fim[layer].shape[-2:])
            fims[-1].setdefault(layer, []).extend(rows.copy())
            return real(fim, layer)

        monkeypatch.setattr(fisher, "neuron_scores", recording)
        results = []
        for init in (per_device_init_phase, init_phase):
            fims.append({})
            results.append(init(build_devices(cfg), cfg))
        want, got = results
        if shape.get("devices") == 8:
            sizes = [dev.n_k for dev in got[1]]
            assert len(set(sizes)) < len(sizes)
        assert_same_init(got, want)
        assert fims[0].keys() == fims[1].keys()
        for layer, rows in fims[0].items():
            assert len(rows) == len(fims[1][layer]) == cfg.devices
            assert all(map(np.array_equal, rows, fims[1][layer]))


class TestLocalRound:
    def test_zero_learning_rate_keeps_broadcast_params(self):
        cfg = small_cfg(mode="fedavg-lora")
        server, devices = init_phase(build_devices(cfg), cfg)
        frozen_cfg = ExperimentConfig(**{**cfg.__dict__, "lr": 0.0})
        loss = local_round(devices[0], server.gal_params, 0, frozen_cfg)
        assert isinstance(loss, float) and math.isfinite(loss)
        for li, (a, b) in server.gal_params.items():
            assert np.array_equal(devices[0].net.layers[li].a, a)
            assert np.array_equal(devices[0].net.layers[li].b, b)

    def test_sync_covers_exactly_the_broadcast_layers(self):
        cfg = small_cfg(mode="fedavg-lora")
        server, devices = init_phase(build_devices(cfg), cfg)
        dev = devices[1]
        dev.adapters[...] = make_rng(4).normal(size=dev.adapters.shape)
        before = lora_views(dev.net, dev.adapters.copy())
        frozen_cfg = ExperimentConfig(**{**cfg.__dict__, "lr": 0.0})
        local_round(dev, {0: server.gal_params[0]}, 0, frozen_cfg)
        for li, layer in enumerate(dev.net.layers):
            want = server.gal_params[0] if li == 0 else before[li]
            assert np.array_equal(layer.a, want[0])
            assert np.array_equal(layer.b, want[1])

    def test_training_changes_the_synced_layers(self):
        cfg = small_cfg(mode="fedavg-lora")
        server, devices = init_phase(build_devices(cfg), cfg)
        local_round(devices[0], server.gal_params, 0, cfg)
        moved = any(not np.array_equal(devices[0].net.layers[li].a, a)
                    for li, (a, _) in server.gal_params.items())
        assert moved


def assert_mean_equals_reference(server, devices, ref):
    """`fedavg_gal` over `devices` gives the bits of the per-layer mean of
    `ref`, their reference copies."""
    want = layer_mean(ref, server.gal.gal_layers)
    fedavg_gal(server, devices)
    assert list(server.gal_params) == list(want)
    for li, pair in want.items():
        for got_m, want_m in zip(server.gal_params[li], pair, strict=True):
            assert np.array_equal(got_m, want_m)


class TestMaskedCurriculumRound:
    def test_local_round_equals_the_per_layer_loop_exactly(self):
        cfg = small_cfg(mu=0.5, lipschitz_points=8, hessian_samples=2,
                        lr=0.03, beta=0.5, rounds=2, local_iterations=2)
        server, devices = init_phase(build_devices(cfg), cfg)
        # a strict-subset GAL and partial masks, so masked layers train
        # locally while the GAL layer is synced
        assert server.gal.gal_layers == {2}
        assert any(m is not None and not m.all()
                   for dev in devices for m in dev.mask.per_layer)
        # the reference runs on deep copies, which own their layers' arrays;
        # the engine runs on the built devices, whose layers view their rows
        ref = copy.deepcopy(devices)
        pacing = curriculum.PacingConfig(cfg.beta, cfg.alpha, cfg.pace,
                                         cfg.batch_size, cfg.rounds)
        subsets = 0
        for t in range(cfg.rounds):
            sampled = sample_devices(cfg.devices, cfg.sampled_per_round,
                                     make_rng(cfg.seed, 0x5E, t))
            for k in sampled:
                want_loss = reference_local_round(ref[k], server.gal_params,
                                                  t, cfg)
                loss = local_round(devices[k], server.gal_params, t, cfg)
                subsets += curriculum.pace_count(
                    pacing, t, devices[k].n_k) < len(devices[k].batches)
                assert loss == want_loss
                for got, want in zip(devices[k].net.layers, ref[k].net.layers):
                    assert np.array_equal(got.a, want.a)
                    assert np.array_equal(got.b, want.b)
            assert_mean_equals_reference(
                server, [devices[k] for k in sampled], [ref[k] for k in sampled])
        assert subsets > 0  # the curriculum left some batches out


# The configs of the benchmark workloads (benchmark/workloads.py) and the
# edge shapes of a round: one-row batches, three local epochs, rank-1
# adapters and a one-row tail batch.
ROUND_SHAPES = {
    "desk-fedavg": ExperimentConfig(mode="fedavg-lora", seed=1),
    "desk-fibecfed": ExperimentConfig(mode="fibecfed", seed=1),
    "scale-sparse": ExperimentConfig(
        mode="fibecfed", devices=100, sampled_per_round=10, beta=0.6,
        alpha=0.8, mu=0.5, lr=0.02, hessian_samples=2, lipschitz_points=16),
    "tiny": ExperimentConfig(
        mode="fibecfed", devices=4, sampled_per_round=2, rounds=6,
        per_class=30, lipschitz_points=8, hessian_samples=2, lr=0.03),
    **{name: small_cfg(mu=0.5, lipschitz_points=8, hessian_samples=2, **shape)
       for name, shape in (("batch-1", {"batch_size": 1}),
                           ("3-epochs", {"local_iterations": 3}),
                           ("rank-1", {"lora_rank": 1}),
                           ("1-row-tail", {"batch_size": 5}))},
}


class TestRoundShapes:
    """`local_round` against the per-layer loop of `reference_local_round`,
    bit for bit, at every shape the benchmark runs: BLAS need not round the
    same way at every matrix size. Every device trains in each of three
    rounds, so every shard size and tail batch of the config is met."""

    @pytest.mark.parametrize("name", ROUND_SHAPES)
    def test_equals_the_per_layer_loop_bitwise(self, name):
        cfg = ROUND_SHAPES[name].validate()
        server, devices = init_phase(build_devices(cfg), cfg)
        sizes = [dev.n_k for dev in devices]
        if name.startswith("desk"):
            assert len(set(sizes)) == 20
        if name in ("scale-sparse", "tiny"):
            assert server.gal.gal_layers < set(range(len(cfg.hidden_dims) + 1))
            assert any(m is not None and not m.all()
                       for dev in devices for m in dev.mask.per_layer)
        if name == "1-row-tail":
            assert 1 in {n % cfg.batch_size for n in sizes}
        ref = copy.deepcopy(devices)  # for the reference only: no views
        for t in range(3):
            for dev, ref_dev in zip(devices, ref):
                want_loss = reference_local_round(ref_dev, server.gal_params,
                                                  t, cfg)
                assert local_round(dev, server.gal_params, t, cfg) == want_loss
                for got, want in zip(dev.net.layers, ref_dev.net.layers):
                    assert np.array_equal(got.a, want.a)
                    assert np.array_equal(got.b, want.b)
            assert_mean_equals_reference(server, devices, ref)


class TestKeptTrainingState:
    """A device's step plan and batches are built at its first
    `local_round` and reused by every later one."""

    @pytest.mark.parametrize("cfg", [ROUND_SHAPES["scale-sparse"],
                                     small_cfg()], ids=["scale-sparse", "small"])
    def test_one_step_plan_per_trained_device(self, monkeypatch, cfg):
        real = engine.StepPlan
        built = collections.Counter()

        def counting(net, *args, **kwargs):
            built[id(net)] += 1
            return real(net, *args, **kwargs)

        monkeypatch.setattr(engine, "StepPlan", counting)
        reports, _, _, devices = run(cfg)
        trained = {id(devices[k].net) for r in reports for k in r.sampled}
        assert len(trained) < cfg.rounds * cfg.sampled_per_round
        assert set(built) <= trained and set(built.values()) == {1}

    def test_later_rounds_build_and_gather_nothing(self, monkeypatch):
        cfg = small_cfg(mu=0.5, lipschitz_points=8, hessian_samples=2,
                        beta=0.5, rounds=4)
        runs = []
        for patched in (False, True):
            server, devices = init_phase(build_devices(cfg), cfg)
            for dev in devices:
                local_round(dev, server.gal_params, 0, cfg)
            if patched:
                def refuse(*args, **kwargs):
                    raise AssertionError("set-up repeated after round 0")

                for name in ("StepPlan", "lora_views", "label_positions"):
                    monkeypatch.setattr(engine, name, refuse)
                for dev in devices:  # no row of the training set is read
                    dev.train = Unreadable(dev.n_k)
            losses = [local_round(dev, server.gal_params, t, cfg)
                      for t in range(1, cfg.rounds) for dev in devices]
            runs.append((losses, np.array([d.adapters for d in devices])))
        (want_losses, want), (losses, got) = runs
        assert losses == want_losses and np.array_equal(got, want)


class Unreadable:
    """A training set of `n` rows whose features and labels raise when
    read."""

    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n

    @property
    def features(self):
        raise AssertionError("training rows gathered again")

    labels = features


class TestNonFiniteGuard:
    """A finite row large enough that the step overflows, in a batch after
    the first, so the guard fires mid-epoch on the arithmetic, not on the
    input."""

    def test_local_round_names_the_device_and_round(self):
        cfg = small_cfg(mode="fedavg-lora")  # every batch, in order
        server, devices = init_phase(build_devices(cfg), cfg)
        dev = devices[2]
        dev.train.features[dev.batches[1][-1]] = -1e308
        with pytest.raises(ArithmeticError,
                           match="non-finite loss or gradient on device 2, "
                                 "round 1$"), np.errstate(all="ignore"):
            local_round(dev, server.gal_params, 1, cfg)

    def test_guard_checks_the_loss_and_every_gradient_entry(self,
                                                            monkeypatch):
        cfg = small_cfg(mode="fedavg-lora")
        real = engine.backprop
        for poison in ("loss", 0, -1):  # the loss, the first or last entry
            dev = build_devices(cfg)[1]
            calls = []

            def poisoned(plan, *args, **kwargs):
                out = real(plan, *args, **kwargs)
                calls.append(poison)
                if len(calls) == 2:  # the second batch of the epoch
                    if poison == "loss":
                        out[0][-1] = np.nan
                    else:
                        plan.grad[poison] = np.inf
                return out

            monkeypatch.setattr(engine, "backprop", poisoned)
            with pytest.raises(ArithmeticError,
                               match="on device 1, round 3$"):
                local_round(dev, {}, 3, cfg)
            assert len(calls) == 2

    def test_init_phase_names_the_device_and_warmup_epoch(self):
        cfg = small_cfg(mode="fibecfed", mu=0.5, lipschitz_points=8,
                        hessian_samples=2)
        devices = build_devices(cfg)
        devices[2].train.features[devices[2].batches[1][-1]] = -1e308
        # the Fisher scoring pass at the initial point, which runs as the
        # momentum window's first epoch, overflows in its Fisher row sums
        with pytest.raises(ArithmeticError,
                           match="non-finite loss or gradient on device 2, "
                                 "warmup epoch 0$"), np.errstate(all="ignore"):
            init_phase(devices, cfg)

    def test_init_phase_checks_the_fisher_row_sums(self):
        cfg = small_cfg(mode="fibecfed", mu=0.5, lipschitz_points=8,
                        hessian_samples=2)
        devices = build_devices(cfg)
        devices[2].train.features[devices[2].batches[1][0]] = 1e308
        # the scoring pass's loss and gradient stay finite and so does
        # training; unchecked, the overflowed row sums made layer 0 the GAL
        # with a NaN score
        with pytest.raises(ArithmeticError,
                           match="non-finite loss or gradient on device 2, "
                                 "warmup epoch 0$"), np.errstate(all="ignore"):
            init_phase(devices, cfg)


    @pytest.mark.parametrize("poison", [np.nan, np.inf])
    def test_init_phase_checks_the_layer_scores(self, monkeypatch, poison):
        # every shard size is distinct, so each probe group is one device
        cfg = small_cfg(mode="fibecfed", mu=0.5, lipschitz_points=8,
                        hessian_samples=2)
        devices = build_devices(cfg)
        sizes = [dev.n_k for dev in devices]
        assert len(set(sizes)) == len(sizes)
        real = engine.gal_mod.device_layer_scores

        def poisoned(net, xs, *args):
            scores = real(net, xs, *args)
            if xs.shape[-2] in (sizes[3], sizes[2]):
                scores[..., -1] = poison
            return scores

        monkeypatch.setattr(engine.gal_mod, "device_layer_scores", poisoned)
        with pytest.raises(ArithmeticError,
                           match="non-finite layer score on device 2$"):
            init_phase(devices, cfg)

    def test_init_phase_names_the_lowest_device_of_the_first_failing_epoch(
            self, monkeypatch):
        cfg = small_cfg(mode="fibecfed", mu=0.5, lipschitz_points=8,
                        hessian_samples=2)
        real = engine.backward

        def failure(poison):
            """The error of an init phase whose warmup step on device k's
            batch j yields a NaN loss in epoch e, for (k, j): e in
            `poison`."""
            devices = build_devices(cfg)  # shards 20, 16, 12, 47
            batches = {(k, j): devices[k].train.features[devices[k].batches[j]]
                       for k, j in poison}
            seen = collections.Counter()

            def poisoned(net, xs, ys, **kwargs):
                g = real(net, xs, ys, **kwargs)
                for i, x in enumerate(xs if kwargs.get("adapters_only")
                                      else ()):
                    for key, rows in batches.items():
                        if np.array_equal(x, rows):
                            if seen[key] == poison[key]:
                                g.loss[i, 0] = np.nan
                            seen[key] += 1
                return g

            monkeypatch.setattr(engine, "backward", poisoned)
            with pytest.raises(ArithmeticError) as err:
                init_phase(devices, cfg)
            return str(err.value)

        # device 3 fails in the group of step 0, device 1 in the later
        # group of step 3: every group runs before the epoch raises
        assert failure({(3, 0): 0, (1, 3): 0}).endswith(
            "on device 1, warmup epoch 0")
        # the first failing epoch wins over the lower device id
        assert failure({(1, 0): 2, (3, 0): 1}).endswith(
            "on device 3, warmup epoch 1")

class TestSpectrumRank:
    """`_spectrum_rank` reads eigenvalues alone; `eigh_symmetric` is the
    reference."""

    @staticmethod
    def oracle(hessian, lipschitz):
        evals, _ = eigh_symmetric(hessian)
        cutoff = engine.RANK_EPS * max(np.max(np.abs(evals)), 1e-300)
        nonzero = evals[np.abs(evals) > cutoff]
        if nonzero.size == 0:
            return 1, 1
        return eigengap_rank(nonzero, lipschitz), nonzero.size

    def test_planted_rank_deficiency_and_gaps(self):
        rng = make_rng(5)
        for _ in range(60):
            n = int(rng.integers(1, 40))
            lip = 10.0 ** rng.uniform(-3, 0)
            # nonzero eigenvalues of one sign, steps below 4*lip but for
            # the planted gaps; the other eigenvalues are exactly 0
            nonzero = int(rng.integers(0, n + 1))
            steps = rng.uniform(0.0, 2.0 * lip, size=max(nonzero - 1, 0))
            steps[rng.random(steps.size) < 0.2] = 10.0 * lip
            planted = rng.uniform(1.0, 2.0) + np.concatenate(
                [[0.0], np.cumsum(steps)])[:nonzero]
            if rng.random() < 0.5:
                planted = -planted[::-1]
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            ev = np.zeros(n)
            ev[rng.permutation(n)[:nonzero]] = planted
            hessian = (q * ev) @ q.T
            hessian = 0.5 * (hessian + hessian.T)
            expect = ((eigengap_rank(np.sort(planted), lip), nonzero)
                      if nonzero else (1, 1))
            assert engine._spectrum_rank(hessian, lip) == expect
            assert self.oracle(hessian, lip) == expect
            assert engine._spectrum_rank(hessian, math.inf) == \
                (expect[1],) * 2

    def test_small_config_hessians(self, monkeypatch):
        cfg = small_cfg(mu=0.5, lipschitz_points=8, hessian_samples=2)
        real = engine._spectrum_rank
        seen = []

        def recording(hessian, lipschitz):
            seen.append((hessian.copy(), lipschitz, real(hessian, lipschitz)))
            return seen[-1][2]

        monkeypatch.setattr(engine, "_spectrum_rank", recording)
        devices = build_devices(cfg)
        init_phase(devices, cfg)
        # the whole model, then every layer block, per device
        assert len(seen) == cfg.devices * (1 + len(devices[0].net.layers))
        for hessian, lip, got in seen:
            assert got == self.oracle(hessian, lip)
        assert any(r < cap for _, _, (r, cap) in seen)


def reference_fedavg(cfg):
    """Plain federated LoRA (full sync, no curriculum, no masks), written as
    an independent loop over the same primitives."""
    devices = build_devices(cfg)
    layers = range(len(devices[0].net.layers))
    global_params = layer_mean(devices, layers)

    trajectory = []
    for t in range(cfg.rounds):
        sampled = sample_devices(cfg.devices, cfg.sampled_per_round,
                                 make_rng(cfg.seed, 0x5E, t))
        for k in sampled:
            dev = devices[k]
            for li, (a, b) in global_params.items():
                dev.net.layers[li].a[...] = a
                dev.net.layers[li].b[...] = b
            for _ in range(cfg.local_iterations):
                for idx in dev.batches:
                    apply_update(dev.net, backward(dev.net, dev.train.features[idx],
                                                   dev.train.labels[idx]), cfg.lr)
        global_params = layer_mean([devices[k] for k in sampled], layers)
        trajectory.append(global_params)
    return trajectory


class TestRun:
    def test_zero_rounds_is_init_only(self):
        cfg = small_cfg(rounds=0, mode="fedavg-lora")
        reports, summary, server, devices = run(cfg)
        assert reports == []
        assert "gal_layers" in summary

    @pytest.mark.parametrize("mode", MODES)
    def test_one_device_runs_in_every_mode(self, mode):
        # `np.tile` of a single row returns a view of a 1-D copy, so a
        # one-device store built that way was not its row's `.base`
        cfg = small_cfg(mode=mode, devices=1, sampled_per_round=1)
        reports, _, _, devices = fedlora.run(cfg)
        assert [r.sampled for r in reports] == [[0]] * cfg.rounds
        assert_one_adapter_owner(devices)

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


class TestRunContract:
    """The engine calls that `engine.run` makes and the benchmark wraps."""

    def test_hooks_are_called_as_the_benchmark_wraps_them(self, monkeypatch):
        cfg = small_cfg(rounds=3, lipschitz_points=8, hessian_samples=2)
        calls = {"init": [], "local": [], "evaluate": []}

        def init_phase_hook(*args, **kwargs):
            out = init_phase(*args, **kwargs)
            calls["init"].append(out)
            return out

        def local_round_hook(dev, gal_params, t, cfg):
            calls["local"].append((dev.k, t, gal_params, cfg))
            return local_round(dev, gal_params, t, cfg)

        def evaluate_hook(server, state, rows):
            calls["evaluate"].append(list(rows))
            return evaluate(server, state, rows)

        monkeypatch.setattr(engine, "init_phase", init_phase_hook)
        monkeypatch.setattr(engine, "local_round", local_round_hook)
        monkeypatch.setattr(engine, "evaluate", evaluate_hook)
        reports, _, server, devices = engine.run(cfg)

        [out] = calls["init"]
        assert isinstance(out, tuple) and len(out) == 2
        assert isinstance(out[0], ServerState) and out[0] is server
        assert out[1] is devices
        assert all(isinstance(dev, DeviceState) for dev in devices)
        assert [(k, t) for k, t, _, _ in calls["local"]] == [
            (k, r.round) for r in reports for k in r.sampled]
        assert len(calls["local"]) == cfg.rounds * cfg.sampled_per_round
        assert all(c is cfg and set(p) == server.gal.gal_layers
                   for _, _, p, c in calls["local"])
        # one call per round, on the ids that round sampled
        assert calls["evaluate"] == [r.sampled for r in reports]


def run_keeping_snapshot(cfg, monkeypatch):
    """`run(cfg)`'s server and devices, and the `EvalState` that `run`
    passes to every `evaluate` call, whose server-view snapshot is one
    stack of every device's non-GAL adapters as `init_phase` returned
    them."""
    post_init = {}
    states = []

    def init_hook(*args):
        server, devices = init_phase(*args)
        num_layers = len(devices[0].net.layers)
        for li in set(range(num_layers)) - server.gal.gal_layers:
            post_init[li] = [(dev.net.layers[li].a.copy(),
                              dev.net.layers[li].b.copy()) for dev in devices]
        return server, devices

    def evaluate_hook(server, state, rows):
        states.append(state)
        return evaluate(server, state, rows)

    monkeypatch.setattr(engine, "init_phase", init_hook)
    monkeypatch.setattr(engine, "evaluate", evaluate_hook)
    _, _, server, devices = run(cfg)
    monkeypatch.setattr(engine, "init_phase", init_phase)
    monkeypatch.setattr(engine, "evaluate", evaluate)
    assert len(states) == cfg.rounds
    assert all(state is states[0] for state in states)
    snapshot = states[0].snapshot
    assert set(snapshot) == set(post_init)
    for li, pairs in post_init.items():
        for i, (a, b) in enumerate(pairs):
            assert np.array_equal(snapshot[li][0][i], a)
            assert np.array_equal(snapshot[li][1][i], b)
    return server, devices, states[0]


def per_device_accuracy(server, devices, snapshot):
    """The two views of `evaluate`, one forward per device and view."""
    hits = [0, 0]
    for i, dev in enumerate(devices):
        own = {li: (a[i], b[i]) for li, (a, b) in snapshot.items()}
        for v, params in enumerate((server.gal_params,
                                    server.gal_params | own)):
            logits = forward_layers(dev.net, dev.test.features,
                                    range(len(dev.net.layers)), params)
            hits[v] += int(np.count_nonzero(
                np.argmax(logits, axis=1) == dev.test.labels))
    total = sum(len(dev.test) for dev in devices)
    return hits[0] / total, hits[1] / total


def randomize_adapters(server, devices, rng):
    """Large random GAL parameters and non-GAL adapters, different per
    device, so that each device's predictions depend on which adapter
    meets which test rows."""
    for li, (a, b) in server.gal_params.items():
        server.gal_params[li] = (rng.normal(size=a.shape),
                                 rng.normal(size=b.shape))
    for dev in devices:  # in place: the layers view the adapter rows
        for li, layer in enumerate(dev.net.layers):
            if li not in server.gal_params:
                layer.a[...] = rng.normal(size=layer.a.shape)
                layer.b[...] = rng.normal(size=layer.b.shape)


class TestEvaluate:
    def test_personalized_view_uses_global_gal_overlay(self):
        cfg = small_cfg(mode="fedavg-lora", rounds=1)
        _, _, server, devices = run(cfg)
        state = eval_state(devices, server.gal.gal_layers)
        assert state.snapshot == {}
        acc, view = evaluate(server, state, range(len(devices)))
        assert 0.0 <= acc <= 1.0
        # with every layer global and local snapshots absent, both views agree
        assert acc == view

    def test_sparse_views_equal_a_per_device_loop(self, monkeypatch):
        cfg = small_cfg(mu=0.5, lipschitz_points=8, hessian_samples=2,
                        lr=0.03)
        server, devices, state = run_keeping_snapshot(cfg, monkeypatch)
        # the case the stack must handle: a strict-subset GAL, partial masks,
        # unequal test-set sizes (so padded rows) and views that differ
        assert server.gal.gal_layers == {2}
        assert any(m is not None and not m.all()
                   for dev in devices for m in dev.mask.per_layer)
        assert len({len(dev.test) for dev in devices}) > 1
        everyone = range(len(devices))
        want = per_device_accuracy(server, devices, state.snapshot)
        assert want[0] != want[1]
        assert evaluate(server, state, everyone) == want
        rng = make_rng(7)
        for _ in range(5):
            # the snapshot keeps the first draw, the live rows the second
            randomize_adapters(server, devices, rng)
            state = eval_state(devices, server.gal.gal_layers)
            randomize_adapters(server, devices, rng)
            assert evaluate(server, state, everyone) == \
                per_device_accuracy(server, devices, state.snapshot)

    def test_full_sync_computes_one_view(self, monkeypatch):
        cfg = small_cfg(mode="full-sync", lipschitz_points=8,
                        hessian_samples=2)
        server, devices, state = run_keeping_snapshot(cfg, monkeypatch)
        assert server.gal.gal_layers == {0, 1, 2}
        assert state.snapshot == {}
        forwards = []

        def counted(*args, **kwargs):
            forwards.append(args[1].shape)
            return forward_layers(*args, **kwargs)

        state = eval_state(devices, server.gal.gal_layers)
        monkeypatch.setattr(engine, "forward_layers", counted)
        tests = pad_test_sets(devices)
        acc, view = evaluate(server, state, range(len(devices)))
        assert forwards == [tests[0].shape]
        assert acc == view
        assert acc == per_device_accuracy(server, devices, state.snapshot)[0]

    def test_padded_rows_match_no_label(self):
        cfg = small_cfg(mu=0.5)
        devices = build_devices(cfg)
        xs, ys = pad_test_sets(devices)
        n_max = max(len(dev.test) for dev in devices)
        assert xs.shape == (len(devices), n_max, cfg.dim)
        for i, dev in enumerate(devices):
            n = len(dev.test)
            assert np.array_equal(xs[i, :n], dev.test.features)
            assert np.array_equal(ys[i, :n], dev.test.labels)
            assert not xs[i, n:].any() and (ys[i, n:] == -1).all()


def smoke_cfg(seed):
    """The CI smoke config with mu 0.5: GAL {0} at seed 0, {1} at seed 1."""
    return ExperimentConfig(
        devices=4, sampled_per_round=2, rounds=3, per_class=30,
        num_classes=4, dim=6, hidden_dims=[5, 4], batch_size=4,
        lipschitz_points=8, hessian_samples=2, mu=0.5, seed=seed).validate()


EVAL_CASES = {  # name -> (config, its GAL)
    "gal-2": (lambda: small_cfg(mu=0.5, lipschitz_points=8,
                                hessian_samples=2, lr=0.03), {2}),
    "gal-0": (lambda: smoke_cfg(0), {0}),
    "gal-1": (lambda: smoke_cfg(1), {1}),
    "full-gal": (lambda: small_cfg(mode="fedavg-lora"), {0, 1, 2}),
}


class TestEvalCache:
    """`run` keeps each view's input to the lowest GAL layer across rounds
    and reruns the layers below it only for the rows a round changed."""

    @pytest.mark.parametrize("case", EVAL_CASES)
    def test_every_round_equals_the_per_device_loop(self, case, monkeypatch):
        make_cfg, gal = EVAL_CASES[case]
        cfg = make_cfg()
        built = []
        seen = []

        def init_hook(*args):
            built.append(init_phase(*args))
            return built[-1]

        def evaluate_hook(server, state, rows):
            [(_, devices)] = built
            got = evaluate(server, state, rows)
            seen.append(got)
            assert got == per_device_accuracy(server, devices, state.snapshot)
            # the kept stacks equal a fresh pass below the GAL, bitwise
            xs, below = state.tests[0], range(state.first)
            assert np.array_equal(
                state.personal, forward_layers(state.net, xs, below,
                                               state.live))
            assert np.array_equal(
                state.server, forward_layers(state.net, xs, below,
                                             state.snapshot))
            return got

        monkeypatch.setattr(engine, "init_phase", init_hook)
        monkeypatch.setattr(engine, "evaluate", evaluate_hook)
        reports, _, server, _ = run(cfg)
        assert server.gal.gal_layers == gal
        assert seen == [(r.weighted_test_acc, r.server_view_acc)
                        for r in reports]
        assert len(seen) == cfg.rounds

    def test_layers_below_the_gal_run_on_the_sampled_rows(self, monkeypatch):
        cfg = small_cfg(mu=0.5, lipschitz_points=8, hessian_samples=2,
                        lr=0.03, rounds=4)
        passes = []

        def counted(net, h, layers, *args, **kwargs):
            passes.append((len(h), layers))
            return forward_layers(net, h, layers, *args, **kwargs)

        monkeypatch.setattr(engine, "forward_layers", counted)
        _, _, server, _ = run(cfg)
        assert server.gal.gal_layers == {2}
        # once per run, the two views' stacks over every device; then per
        # round the sampled devices' rows, after their local rounds
        assert [rows for rows, layers in passes if layers == range(2)] == \
            [cfg.devices] * 2 + [cfg.sampled_per_round] * cfg.rounds
        # evaluate runs only the GAL layer, once per view and round
        assert [rows for rows, layers in passes if layers == range(2, 3)] == \
            [cfg.devices] * 2 * cfg.rounds
        assert len(passes) == 2 + 3 * cfg.rounds
