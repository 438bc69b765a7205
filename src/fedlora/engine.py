"""Federation orchestration: init phase (scoring, layer selection, masks),
tuning rounds (device sampling, partial sync, curriculum-selected masked
local updates, weighted aggregation over the GAL), and communication
accounting.

Everything is deterministic given the experiment seed: devices are always
iterated in ascending id order and every stochastic choice draws from its
own seeded sub-stream.
"""

import math
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import curriculum, fisher, gal as gal_mod
from .data import dirichlet_partition, generate, split
from .linalg import finite_diff_hessian, make_rng
from .masking import NeuronMask, build_mask, layer_ratio, masked_param_count
from .network import (StepPlan, backprop, backward, build_network,
                      clone_network, dataset_loss_grad_flat, flatten_lora,
                      forward_layers, label_positions, lora_slices,
                      lora_views)

RANK_EPS = 1e-8  # relative eigenvalue cutoff for the numerical Hessian rank

_all = np.logical_and.reduce
_sum = np.add.reduce


@dataclass
class DeviceState:
    """One device. `adapters` is its float64 row, in `flatten_lora` order,
    of the (D, P) store of `build_devices`. `net` shares the frozen base;
    its layers' a, b are views of that row, through which `local_round`
    writes the GAL layers and the step plan trains.
    `training` is what `local_round` keeps across rounds, built the first
    time the device trains (`_training_state`); its step plan writes into
    `grad`, the one gradient buffer of every device of `build_devices`, as
    rounds run one device at a time."""
    k: int
    net: object
    adapters: np.ndarray
    train: object
    test: object
    batches: list = field(default_factory=list)      # index arrays into train
    batch_order: list = field(default_factory=list)  # ascending difficulty
    mask: NeuronMask = None
    training: tuple = None  # (StepPlan, one (features, picks) per batch)
    grad: np.ndarray = None  # flat gradient; None gives the plan its own

    @property
    def n_k(self):
        return len(self.train)


@dataclass
class ServerState:
    gal: gal_mod.GalDecision
    gal_params: dict  # GAL layer index -> (a, b) views of the mean adapters


@dataclass
class RoundReport:
    round: int
    sampled: list
    train_loss: float
    weighted_test_acc: float
    server_view_acc: float
    bytes_down: int
    bytes_up: int
    wall_ms: float


def make_batches(n, batch_size):
    """Consecutive index chunks; a short tail batch counts as one unit."""
    return [np.arange(lo, min(lo + batch_size, n))
            for lo in range(0, n, batch_size)]


def build_devices(cfg):
    """Dataset generation, Dirichlet sharding, and identically-initialized
    devices: one (D, P) adapter store that owns its memory, whose rows all
    start as the base network's flat adapters, and per device a clone of
    the base network that shares its frozen weights and views its row."""
    ds = generate(cfg.num_classes, cfg.per_class, cfg.dim, cfg.class_sep,
                  make_rng(cfg.seed, 0xDA))
    shards = dirichlet_partition(ds, cfg.devices, cfg.dirichlet_alpha,
                                 cfg.min_shard, cfg.seed)
    base = build_network(cfg.dim, cfg.hidden_dims, cfg.num_classes,
                         rank=cfg.lora_rank, seed=cfg.seed)
    store = np.empty((len(shards), base.lora_param_count()))
    store[...] = flatten_lora(base)
    grad = np.empty(store.shape[1])
    devices = []
    for k, (shard, net) in enumerate(zip(shards, clone_network(base, store))):
        train, test = split(shard, cfg.train_fraction, make_rng(cfg.seed, 0x57, k))
        dev = DeviceState(k, net, store[k], train, test, grad=grad)
        dev.batches = make_batches(len(train), cfg.batch_size)
        dev.batch_order = list(range(len(dev.batches)))
        devices.append(dev)
    return devices


def _spectrum_rank(hessian, lipschitz):
    """(r, R) from the eigengap rule over the nonzero part of the spectrum
    of a Hessian that `finite_diff_hessian` made finite and symmetric."""
    evals = np.linalg.eigvalsh(hessian)
    cutoff = RANK_EPS * max(np.max(np.abs(evals)), 1e-300)
    nonzero = evals[np.abs(evals) > cutoff]
    if nonzero.size == 0:
        return 1, 1
    r = gal_mod.eigengap_rank(nonzero, lipschitz)
    return r, nonzero.size


def _groups(devices, rows):
    """The devices' training rows `rows[i]` (an index array, or None for a
    device that sits the pass out) stacked in groups of equal row count: a
    list of (device positions, features (G, n, d), labels (G, n)), in order
    of each group's first device. Rows are never padded: a padded row would
    change the summed gradient and the Fisher row sums."""
    members = {}
    for i, idx in enumerate(rows):
        if idx is not None:
            members.setdefault(len(idx), []).append(i)
    return [(np.array(pos),
             np.array([devices[i].train.features[rows[i]] for i in pos]),
             np.array([devices[i].train.labels[rows[i]] for i in pos]))
            for pos in members.values()]


def _step_groups(devices):
    """The `_groups` of every warmup SGD step, in step order: step j stacks
    batch j of each device that has one, grouped by its size."""
    for j in range(max(len(dev.batches) for dev in devices)):
        yield from _groups(devices, [
            dev.batches[j] if j < len(dev.batches) else None
            for dev in devices])


def _stacked_backward(net, group, vecs, **kwargs):
    """`backward` of a `_groups` group, each device at its row of `vecs`, a
    (G, P) stack of flat adapters; returns the gradients and the positions
    of the devices whose loss, gradient or, where computed, Fisher row sums
    hold a non-finite entry."""
    pos, xs, ys = group
    g = backward(net, xs, ys, params=lora_views(net, vecs), **kwargs)
    finite = (np.isfinite(g.loss).all(axis=-1)
              & np.isfinite(g.grad).all(axis=-1))
    for rows in g.fim_rows or ():
        finite &= np.isfinite(rows).all(axis=(-2, -1))
    return g, pos[~finite]


def _lockstep_passes(devices, cfg):
    """The init phase's device-independent passes, run for every device at
    once: each is one stacked backward per `_groups` group.

    The Fisher scoring pass at the initial point sets each device's batch
    order (curriculum on) and is the momentum window's first epoch. The
    noise probes score the layers at the initial point (GAL on); the
    momentum-FIM and warmup SGD epochs follow, each SGD step j one pass over
    the devices grouped by the size of their batch j (a device leaves once
    it has no batch j). The steps write the store's rows in place: a step's
    groups hold distinct devices, and the noise probes run before any step.
    Each momentum epoch refills one (D, d_out, 1) row-sum stack per layer
    and mixes it in by one `fisher.momentum_update`. Only the masks read the
    momentum FIM, so without them only its first epoch runs. Returns it, a
    list of such stacks, and the layer scores (D, L), None with the GAL off.

    Each epoch runs every group of its passes before it raises: the error
    names the first epoch in which a device failed and the lowest failing
    device id in it. A non-finite layer score raises after the epochs, naming
    the lowest device id whose scores hold one.
    """
    net = devices[0].net
    flat = adapter_store(devices)
    whole = _groups(devices, [np.arange(dev.n_k) for dev in devices])
    fim = scores = None
    # each momentum epoch's device FIM: mean per-sample rows
    fresh = [np.empty((len(devices), l.d_out, 1)) for l in net.layers]
    if cfg.gal_on:
        # every device starts from the adapters of devices[0].net (init_phase)
        scores = np.empty((len(devices), len(net.layers)))
        for pos, xs, ys in whole:
            scores[pos] = gal_mod.device_layer_scores(
                net, xs, ys, cfg.noise_budget, cfg.p_norm)

    window = cfg.momentum_epochs if cfg.mask_on else 1
    for epoch in range(max(cfg.warmup_epochs, window)):
        failed = []
        if epoch < window:
            for group in whole:
                pos = group[0]
                g, bad = _stacked_backward(net, group, flat[pos])
                failed.extend(bad)
                if epoch == 0 and cfg.curriculum_on:
                    # batch difficulty: each sample's FIM trace, summed left
                    # to right (np.sum's pairwise order may reorder near-ties)
                    difficulty = sum(rows.sum(axis=-1) for rows in g.fim_rows)
                    for i, d in zip(pos, difficulty):
                        devices[i].batch_order = curriculum.sort_batches(
                            [sum(d[idx]) for idx in devices[i].batches])
                for f, rows in zip(fresh, g.fim_rows):
                    f[pos] = rows.mean(axis=-2)[..., None]
            fim = fisher.momentum_update(fim, fresh, cfg.gamma_m)
        if epoch < cfg.warmup_epochs:
            for group in _step_groups(devices):
                pos = group[0]
                g, bad = _stacked_backward(net, group, flat[pos],
                                           adapters_only=True)
                failed.extend(bad)
                flat[pos] -= cfg.lr * g.grad
        if failed:
            raise ArithmeticError(
                "non-finite loss or gradient on device "
                f"{min(devices[i].k for i in failed)}, warmup epoch {epoch}")

    for dev, row in zip(devices, () if scores is None else scores):
        if not _all(np.isfinite(row)):  # devices come in ascending id order
            raise ArithmeticError(f"non-finite layer score on device {dev.k}")
    return fim, scores


def device_init_analysis(dev, cfg, p0):
    """The Hessian/Lipschitz eigengap analysis of one post-warmup device;
    returns ((r, R), per-layer-block (r, R), empty with the masks off).

    Computes the whole-model finite-difference Hessian at the device's
    adapters and the Lipschitz constant of the lossless-rule base function
    around the warmup displacement from `p0`, the initial flat adapters.
    Layer-block ranks reuse the Hessian's diagonal blocks.
    """
    p_t = dev.adapters
    sub = min(cfg.hessian_samples, dev.n_k)
    grad_fn = partial(dataset_loss_grad_flat, dev.net,
                      dev.train.features[:sub], dev.train.labels[:sub])
    hessian = finite_diff_hessian(grad_fn, p_t)

    delta = p0 - p_t
    radius = float(np.linalg.norm(delta))
    if radius == 0.0:
        # no warmup displacement: no confident gap, fall back to r = R
        lip = math.inf
    else:  # hessian is symmetric: row i of xs @ hessian is hessian @ xs[i]
        lip = gal_mod.lipschitz_estimate(
            lambda xs: xs @ hessian - grad_fn(xs + p_t), delta, radius,
            cfg.lipschitz_points, make_rng(cfg.seed, 0x11, dev.k))
    return _spectrum_rank(hessian, lip), [
        _spectrum_rank(hessian[sa.start:sb.stop, sa.start:sb.stop], lip)
        for sa, sb in (lora_slices(dev.net) if cfg.mask_on else ())]


def init_phase(devices, cfg):
    """Algorithm init: batch difficulty scoring, warmup + momentum FIM,
    GAL selection from aggregated sensitivity scores, neuron masks, and the
    initial server-side GAL parameters.

    The scoring, noise-probe, momentum and warmup passes run for every
    device at once (`_lockstep_passes`), in every mode but `fedavg-lora`;
    the Hessian analysis runs per device, with the GAL on. Both take the
    devices as `build_devices` makes them: each with at least one training
    row, all starting from the same adapters."""
    num_layers = len(devices[0].net.layers)
    p0 = devices[0].adapters.copy()
    if cfg.curriculum_on or cfg.gal_on:
        fim, scores = _lockstep_passes(devices, cfg)
    # device id -> ((r, R), per-block (r, R))
    analysis = {dev.k: device_init_analysis(dev, cfg, p0)
                for dev in (devices if cfg.gal_on else ())}

    if cfg.gal_on:
        global_scores = gal_mod.aggregate_layer_scores(
            [(dev.n_k, s) for dev, s in zip(devices, scores)])
        n_star = gal_mod.gal_count([(dev.n_k, *analysis[dev.k][0])
                                    for dev in devices], num_layers, cfg.mu)
        gal_layers = gal_mod.select_gal(global_scores, n_star)
    else:
        global_scores = np.zeros(num_layers)
        gal_layers = set(range(num_layers))
        n_star = num_layers

    decision = gal_mod.GalDecision(
        gal_layers=gal_layers, n_star=n_star,
        # a fresh list per device: a shared (r, R) would dump as a YAML alias
        per_device={k: list(ranks) for k, (ranks, _) in analysis.items()},
        global_scores=list(map(float, global_scores)))

    for dev in devices:
        dev.mask = NeuronMask([None] * num_layers)
    for li in range(num_layers) if cfg.mask_on else ():
        if li not in gal_layers:
            importance = fisher.neuron_scores(fim, li)  # (D, d_out)
            for dev, row in zip(devices, importance):
                dev.mask.per_layer[li] = build_mask(
                    row, layer_ratio(*analysis[dev.k][1][li]))

    # the initial GAL parameters: the weighted mean over every device
    server = ServerState(gal=decision, gal_params={})
    fedavg_gal(server, devices)
    return server, devices


def sample_devices(num_devices, count, rng):
    """Uniform sample without replacement, returned in ascending id order."""
    return sorted(rng.choice(num_devices, size=count, replace=False).tolist())


def _training_state(dev):
    """What every local round of `dev` reads, fixed at its first round: an
    unstacked `StepPlan` over `dev.net`'s own adapter pairs, views of
    `dev.adapters`, with the device's mask and `dev.grad`, and per batch,
    in index order, its rows of features and its label positions
    (`label_positions`). A `make_batches` batch is a run of consecutive
    rows, so its features are a view of the training set's."""
    net = dev.net
    plan = StepPlan(net, [(l.a, l.b) for l in net.layers],
                    dev.mask.per_layer if dev.mask is not None else None,
                    grad=dev.grad)
    features, labels = dev.train.features, dev.train.labels
    batches = []
    for idx in dev.batches:
        rows = slice(idx[0], idx[-1] + 1)
        batches.append((features[rows], label_positions(
            labels[rows], idx.shape, net.num_classes)))
    return plan, batches


def local_round(dev, gal_params, t, cfg):
    """Sync the GAL layers from the server, train the device's adapter row in
    place on the curriculum-selected batches, and return the mean loss.

    The device's first round builds its `training` state: the step plan and
    every batch's rows and label positions, reused by every later round, so
    the mask and the training rows are read once. Each round writes the GAL
    layers into `dev.net`'s views of `dev.adapters` and picks the selected
    batches; each of the `local_iterations` epochs then runs one `backprop`
    (the pass every `backward` ends in) per batch and one
    `dev.adapters -= lr * grad`, elementwise the same as `apply_update`. A
    non-finite loss or gradient raises ArithmeticError naming the device
    and round. `dev.net` views the same row, so nothing is written back."""
    for li, (a, b) in gal_params.items():
        layer = dev.net.layers[li]
        layer.a[...] = a
        layer.b[...] = b

    if dev.training is None:
        dev.training = _training_state(dev)
    plan, state = dev.training
    if cfg.curriculum_on:
        pacing = curriculum.PacingConfig(cfg.beta, cfg.alpha, cfg.pace,
                                         cfg.batch_size, cfg.rounds)
        count = curriculum.pace_count(pacing, t, dev.n_k)
        batches = [state[j]
                   for j in curriculum.select_batches(dev.batch_order, count)]
    else:
        batches = state

    p, grad, lr = dev.adapters, plan.grad, cfg.lr
    losses = []
    for _ in range(cfg.local_iterations):
        epoch = []
        for x, picks in batches:
            loss = backprop(plan, x, picks)[0]
            if not (_all(np.isfinite(loss)) and _all(np.isfinite(grad))):
                raise ArithmeticError("non-finite loss or gradient on device "
                                      f"{dev.k}, round {t}")
            p -= lr * grad
            epoch.append(loss)
        epoch = np.concatenate(epoch)
        losses.append(float(_sum(epoch) / epoch.size))  # np.mean, unwrapped
    return float(_sum(losses) / len(losses))


def fedavg_gal(server, devices):
    """Set the server's GAL parameters to the participants' weighted mean:
    the sum of n_k / m * `dev.adapters` over `devices` in the given
    (ascending id) order, m their total sample count. `server.gal_params`
    becomes views of it for the GAL layers, in ascending order."""
    m = sum(dev.n_k for dev in devices)
    mean = np.zeros_like(devices[0].adapters)
    for dev in devices:
        mean += dev.n_k / m * dev.adapters
    views = lora_views(devices[0].net, mean)
    server.gal_params = {li: views[li] for li in sorted(server.gal.gal_layers)}


def gal_payload_params(net, gal_layers):
    return sum(net.layers[li].a.size + net.layers[li].b.size
               for li in gal_layers)


def comm_bytes(payload_params, sampled):
    """Per-round traffic in bytes, symmetric by construction: every sampled
    device moves the GAL adapter payload once down and once up."""
    per_direction = sampled * payload_params * 8
    return per_direction, per_direction


def pad_test_sets(devices):
    """Every device's test set in one zero-padded stack: features
    (D, n_max, d) and labels (D, n_max). Padded rows carry label -1, which
    no prediction equals."""
    n_max = max(len(dev.test) for dev in devices)
    xs = np.zeros((len(devices), n_max, devices[0].net.input_dim))
    ys = np.full((len(devices), n_max), -1)
    for i, dev in enumerate(devices):
        xs[i, :len(dev.test)] = dev.test.features
        ys[i, :len(dev.test)] = dev.test.labels
    return xs, ys


def adapter_store(devices):
    """The (D, P) adapter store of `build_devices`, whose row i is
    `devices[i].adapters`: the array every row views."""
    return devices[0].adapters.base


@dataclass
class EvalState:
    """What `evaluate` reads, kept across rounds.

    Every layer below `first`, the lowest GAL layer, is device-local, so
    what enters layer `first` changes only with those layers' adapters. Per
    view it is held as a (D, n_max, d) stack over the devices' padded test
    sets (`pad_test_sets`, `tests`): `personal` under the live adapters,
    `server` under the post-init `snapshot`. `live` holds the non-GAL
    layers' (A (D, r, d_in), B (D, d_out, r)) stacks as views of the
    adapter store (`adapter_store`), `snapshot` the same layers as views of
    one copy of it, taken by `eval_state`."""
    net: object
    tests: tuple
    first: int
    live: dict
    snapshot: dict
    personal: np.ndarray
    server: np.ndarray


def eval_state(devices, gal_layers):
    """The `EvalState` of `devices` under GAL `gal_layers`, the server view
    on a copy of the adapter store as it stands: each view's stack over
    every device's test set, run once through the layers below the GAL."""
    net = devices[0].net
    tests = pad_test_sets(devices)
    first = min(gal_layers)
    store = adapter_store(devices)
    live, snapshot = ({li: pair for li, pair in lora_views(net, flat).items()
                       if li not in gal_layers}
                      for flat in (store, store.copy()))
    return EvalState(net, tests, first, live, snapshot,
                     forward_layers(net, tests[0], range(first), live),
                     forward_layers(net, tests[0], range(first), snapshot))


def evaluate(server, state, rows):
    """(personalized weighted accuracy, server-view weighted accuracy) of
    the `EvalState` `state` once the devices at positions `rows` trained.

    The personalized view first reruns the layers below `state.first` for
    `rows` alone, as no other row of its kept stack changed. It runs each
    device's network with the server's GAL parameters; the server view also
    restores the non-GAL layers to the post-init snapshot. Each view runs
    only the layers from `state.first` up, from its kept stack, as one pass
    over every device at once, over the frozen base the devices share
    (`build_devices`): the GAL adapters apply to all, the non-GAL ones are
    stacked along the device axis. With every layer in the GAL the views
    coincide and are computed once."""
    below = {li: (a[rows], b[rows])
             for li, (a, b) in state.live.items() if li < state.first}
    if below:
        state.personal[rows] = forward_layers(
            state.net, state.tests[0][rows], range(state.first), below)
    ys = state.tests[1]
    total = np.count_nonzero(ys >= 0)
    layers = range(state.first, len(state.net.layers))

    def accuracy(h, local):
        logits = forward_layers(state.net, h, layers,
                                server.gal_params | local)
        return np.count_nonzero(np.argmax(logits, axis=-1) == ys) / total

    acc = accuracy(state.personal, state.live)
    if not state.snapshot:
        return acc, acc
    return acc, accuracy(state.server, state.snapshot)


def run(cfg):
    """Full experiment: `cfg.validate()`, which names the bad key before
    anything is built, then the init phase and `rounds` tuning rounds.

    Right after the init phase, one `eval_state` call copies the adapter
    store for the server view and runs both evaluation views through the
    layers below the lowest GAL layer. Each round then trains the sampled
    devices, aggregates and calls `evaluate` once with the sampled ids,
    which reruns those layers for their rows alone.

    Returns (reports, summary, server, devices); the summary captures the
    layer selection, mask ratios, and parameter accounting.
    """
    cfg.validate()
    devices = build_devices(cfg)
    server, devices = init_phase(devices, cfg)
    evaluation = eval_state(devices, server.gal.gal_layers)
    payload = gal_payload_params(devices[0].net, server.gal.gal_layers)

    reports = []
    for t in range(cfg.rounds):
        started = time.perf_counter()
        sampled = sample_devices(cfg.devices, cfg.sampled_per_round,
                                 make_rng(cfg.seed, 0x5E, t))
        losses = [local_round(devices[k], server.gal_params, t, cfg)
                  for k in sampled]
        fedavg_gal(server, [devices[k] for k in sampled])
        down, up = comm_bytes(payload, len(sampled))
        acc, view = evaluate(server, evaluation, sampled)
        reports.append(RoundReport(
            round=t, sampled=sampled, train_loss=float(np.mean(losses)),
            weighted_test_acc=acc, server_view_acc=view,
            bytes_down=down, bytes_up=up,
            wall_ms=1000.0 * (time.perf_counter() - started)))

    trainable, frozen = masked_param_count(
        devices[0].net, server.gal.gal_layers, devices[0].mask)
    summary = {
        "mode": cfg.mode,
        "gal_layers": sorted(server.gal.gal_layers),
        "n_star": server.gal.n_star,
        "per_device_ranks": server.gal.per_device,
        "global_layer_scores": server.gal.global_scores,
        "payload_params_per_device": payload,
        "trainable_params_device0": trainable,
        "frozen_params_device0": frozen,
        "mask_popcounts_device0": devices[0].mask.popcounts(),
    }
    return reports, summary, server, devices
