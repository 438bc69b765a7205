"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single pass/fail line so
the whole gate can be read off a `pytest -s` run at a glance.
"""

import numpy as np

from conftest import flat_loss_fn, random_small_net
from fedlora.cli import run_experiment
from fedlora.config import ExperimentConfig, parse_config
from fedlora.curriculum import PacingConfig, pace_count
from fedlora.engine import (ServerState, build_devices, fedavg_gal,
                            gal_payload_params, init_phase, run)
from fedlora.fisher import sample_fim_diag
from fedlora.gal import (GalDecision, adversarial_noise, eigengap_rank,
                         gal_count)
from fedlora.linalg import make_rng
from fedlora.network import (LoraLayer, LoraNetwork, backward, build_network,
                             flatten_lora, forward, lora_slices)
from oracles import cross_entropy, finite_diff_gradient
from test_engine import reference_fedavg, small_cfg


def report(num, name, ok):
    print(f"\ncriterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def full_weight_grad_oracle(net, li, x, label):
    """Finite-difference gradient of the loss w.r.t. the effective weight of
    layer `li`, probed by rebuilding the layer with a perturbed base copy."""
    layer = net.layers[li]

    def f(flat):
        probe_layers = list(net.layers)
        probe_layers[li] = LoraLayer(flat.reshape(layer.w_base.shape),
                                     layer.a.copy(), layer.b.copy(),
                                     layer.bias.copy(), layer.activation)
        probe = LoraNetwork(probe_layers, net.num_classes)
        return cross_entropy(forward(probe, x).logits, label).sum()

    return finite_diff_gradient(f, layer.w_base.ravel().copy())


def test_criterion_1_gradient_and_fim_oracle():
    rng = make_rng(0xACC1)
    ok = True
    for _ in range(50):
        net, x, label = random_small_net(rng)
        assert net.lora_param_count() <= 200

        g = backward(net, x, label)
        flat = np.zeros(net.lora_param_count())
        for li, (sa, sb) in enumerate(lora_slices(net)):
            flat[sa] = g.da[li].ravel()
            flat[sb] = g.db[li].ravel()
        numeric = finite_diff_gradient(flat_loss_fn(net, x, label),
                                       flatten_lora(net))
        tol = np.maximum(1e-4, 1e-3 * np.abs(numeric))
        ok &= bool(np.all(np.abs(flat - numeric) <= tol))

        fim = sample_fim_diag(net, x[0], label[0])
        for li in range(len(net.layers)):
            gw = full_weight_grad_oracle(net, li, x, label)
            want = gw ** 2
            tol = np.maximum(1e-4, 1e-3 * np.abs(want))
            ok &= bool(np.all(np.abs(fim[li].ravel() - want) <= tol))
    report(1, "gradient and FIM vs finite-difference oracle", ok)


def test_criterion_2_curriculum_schedule():
    cfg = PacingConfig(beta=0.6, alpha=0.8, pace="linear", batch_size=8,
                       total_rounds=100)
    n_k = 80  # ten batches of eight
    ok = pace_count(cfg, 0, n_k) == 6
    ok &= pace_count(cfg, 60, n_k) == 9
    ok &= all(pace_count(cfg, t, n_k) == 10 for t in range(80, 101))

    rng = make_rng(0xACC2)
    for _ in range(1000):
        rcfg = PacingConfig(beta=float(rng.uniform(0.05, 1.0)),
                            alpha=float(rng.uniform(0.05, 1.0)),
                            pace=("linear", "sqrt", "exp")[int(rng.integers(3))],
                            batch_size=int(rng.integers(1, 16)),
                            total_rounds=int(rng.integers(1, 200)))
        n = int(rng.integers(rcfg.batch_size, 20 * rcfg.batch_size))
        counts = [pace_count(rcfg, t, n) for t in range(rcfg.total_rounds + 5)]
        ok &= counts == sorted(counts)
    report(2, "pacing schedule table and monotonicity", ok)


def test_criterion_3_noise_closed_form():
    rng = make_rng(0xACC3)
    ok = True
    wins = 0
    trials = 100
    for _ in range(trials):
        net, x, label = random_small_net(rng)
        budget = float(rng.uniform(0.05, 0.5))
        eps, degenerate = adversarial_noise(net, x, label, budget, 2.0)
        if degenerate[0]:
            wins += 1  # no gradient: nothing to beat
            continue
        ok &= abs(np.linalg.norm(eps[0]) - budget) < 1e-8
        g = backward(net, x, label).d_input[0]
        adv_gain = float(g @ eps[0])  # first-order loss increase
        beat_all = True
        for _ in range(100):
            eta = rng.normal(size=x.size)
            eta *= budget / np.linalg.norm(eta)
            beat_all &= adv_gain >= float(g @ eta)
        wins += beat_all
    ok &= wins / trials >= 0.95
    report(3, "dual-norm noise: exact budget, beats random directions", ok)


def test_criterion_4_eigengap_oracle():
    rng = make_rng(0xACC4)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 50))
        spectrum = np.sort(rng.normal(scale=float(rng.uniform(0.1, 10.0)),
                                      size=n))
        lip = float(rng.uniform(0.0, 5.0))
        expect = n
        for r in range(1, n):
            if spectrum[r] - spectrum[r - 1] > 4.0 * lip:
                expect = r
                break
        ok &= eigengap_rank(spectrum, lip) == expect
    report(4, "eigengap rank vs exhaustive scan", ok)


def test_criterion_5_fedavg_oracle_and_baseline_equivalence():
    rng = make_rng(0xACC5)
    devices = build_devices(small_cfg(devices=8))
    ok = True
    for _ in range(100):
        # random adapters on every device, a random GAL and a random
        # participant subset, in ascending id order
        for dev in devices:
            dev.adapters[...] = rng.normal(size=dev.adapters.shape)
        gal = {li for li in range(3) if rng.random() < 0.6} or {0}
        part = [devices[k] for k in sorted(rng.choice(
            len(devices), size=int(rng.integers(1, 9)), replace=False))]
        server = ServerState(gal=GalDecision(gal_layers=gal, n_star=len(gal)),
                             gal_params={})
        fedavg_gal(server, part)
        ok &= sorted(server.gal_params) == sorted(gal)
        m = sum(dev.n_k for dev in part)
        for li in gal:
            for j, name in enumerate("ab"):
                want = sum(dev.n_k / m * getattr(dev.net.layers[li], name)
                           for dev in part)
                ok &= bool(np.allclose(server.gal_params[li][j], want,
                                       atol=1e-12))

    # with curriculum, layer selection, and masking all disabled the engine
    # must retrace a hand-rolled FedAvg loop bit for bit
    cfg = small_cfg(mode="fedavg-lora", rounds=3)
    want = reference_fedavg(cfg)
    devices = build_devices(cfg)
    server, devices = init_phase(devices, cfg)
    from fedlora.engine import local_round, sample_devices
    for t in range(cfg.rounds):
        sampled = sample_devices(cfg.devices, cfg.sampled_per_round,
                                 make_rng(cfg.seed, 0x5E, t))
        for k in sampled:
            local_round(devices[k], server.gal_params, t, cfg)
        fedavg_gal(server, [devices[k] for k in sampled])
        for li in server.gal_params:
            ok &= bool(np.array_equal(server.gal_params[li][0], want[t][li][0]))
            ok &= bool(np.array_equal(server.gal_params[li][1], want[t][li][1]))
    report(5, "weighted-mean aggregation oracle and exact baseline replay", ok)


def test_criterion_6_communication_ratio():
    # 24 uniform layers; a rank gap of 6 out of 24 keeps 18 of them global
    net = build_network(8, [8] * 23, 8, rank=2, seed=0)
    assert len(net.layers) == 24
    n_star = gal_count([(10, 6, 24)], len(net.layers), 1.0)
    partial = gal_payload_params(net, set(range(n_star)))
    full = gal_payload_params(net, set(range(len(net.layers))))
    ok = n_star == 18 and partial / full == 0.750
    report(6, "payload ratio at 18 of 24 uniform layers", ok)


def test_criterion_7_directional_end_to_end(run_config):
    finals = {"fibecfed": [], "fedavg-lora": []}
    trajs = {"fibecfed": [], "fedavg-lora": []}
    for seed in range(5):
        for mode in finals:
            # the desk preset: ExperimentConfig(seed=seed, mode=mode)
            reports, *_ = run_config(f"mode: {mode}\nseed: {seed}\n")
            accs = [r.weighted_test_acc for r in reports]
            finals[mode].append(accs[-1])
            trajs[mode].append(accs)

    rtts = {"fibecfed": [], "fedavg-lora": []}
    for i in range(5):
        target = finals["fedavg-lora"][i] - 0.02
        for mode in rtts:
            accs = trajs[mode][i]
            rtts[mode].append(next((t for t, a in enumerate(accs)
                                    if a >= target), len(accs)))

    final_gap = np.median(finals["fibecfed"]) - np.median(finals["fedavg-lora"])
    rtt_fibec = np.median(rtts["fibecfed"])
    rtt_plain = np.median(rtts["fedavg-lora"])
    print(f"\n  median final: fibecfed {np.median(finals['fibecfed']):.3f}"
          f" vs fedavg-lora {np.median(finals['fedavg-lora']):.3f};"
          f" median rounds-to-target {rtt_fibec:.0f} vs {rtt_plain:.0f}")
    ok = final_gap >= -0.01 and rtt_fibec < rtt_plain
    report(7, "fibecfed matches accuracy and converges in fewer rounds", ok)


def test_criterion_8_frozen_parameter_audit():
    cfg = ExperimentConfig(devices=4, sampled_per_round=2, rounds=3,
                           local_iterations=1, lr=0.01, batch_size=4,
                           hidden_dims=[6, 5, 4], num_classes=4, per_class=30,
                           dim=6, class_sep=3.0, seed=1, mu=0.5,
                           mode="fibecfed").validate()
    _, summary, server, devices = run(cfg)
    num_layers = len(devices[0].net.layers)
    assert len(server.gal.gal_layers) < num_layers  # audit needs local layers

    # deterministic replay of the init phase gives the reference state that
    # every frozen entry must still match after the full run
    ref_server, ref_devices = init_phase(build_devices(cfg), cfg)
    fresh = build_devices(cfg)

    ok = True
    audited_rows = 0
    for dev, ref, new in zip(devices, ref_devices, fresh):
        for li in range(num_layers):
            ok &= bool(np.array_equal(dev.net.layers[li].w_base,
                                      new.net.layers[li].w_base))
            ok &= bool(np.array_equal(dev.net.layers[li].bias,
                                      new.net.layers[li].bias))
            mask = dev.mask.per_layer[li]
            if li in server.gal.gal_layers or mask is None:
                continue
            frozen_rows = ~mask
            audited_rows += int(frozen_rows.sum())
            ok &= bool(np.array_equal(dev.net.layers[li].b[frozen_rows],
                                      ref.net.layers[li].b[frozen_rows]))
    ok &= audited_rows > 0
    report(8, "base weights and masked-out adapter rows stay bitwise frozen",
           ok)


def test_criterion_9_byte_identical_metrics(tmp_path):
    cfg = parse_config("devices: 4\nsampled_per_round: 2\nrounds: 3\n"
                       "local_iterations: 1\nlr: 0.01\nbatch_size: 4\n"
                       "hidden_dims: [5, 4]\nnum_classes: 4\nper_class: 30\n"
                       "dim: 6\nclass_sep: 3.0\nseed: 7\nmode: fibecfed\n")
    p1, _, _ = run_experiment(cfg, tmp_path / "first")
    p2, _, _ = run_experiment(cfg, tmp_path / "second")
    ok = p1.read_bytes() == p2.read_bytes()
    report(9, "seeded reruns emit byte-identical metrics files", ok)
