"""Timing wrappers installed from outside the program.

`Patches` rebinds a function in every fedlora module that holds a reference
to it: engine, fisher and gal bind `forward` and `backward` with
`from .network import ...`, and cli binds `engine.run` the same way, so
patching the defining module alone would miss their calls.

`RunProbe` is the light instrumentation the end-to-end metrics need (a few
hundred wrapped calls per experiment). `Tracer` is the per-function span
tracer of the traced run: calls, total time and self time, where self time
is a span minus the part of it its traced child spans cover.
"""

import functools
import importlib
import pkgutil
import sys
import time

# module -> public functions the traced run times (the per-layer metrics)
TRACED = {
    "network": ("forward", "backward", "apply_update", "clone_network",
                "dataset_loss_grad_flat", "set_lora_flat"),
    "linalg": ("finite_diff_hessian", "eigh_symmetric"),
    "gal": ("device_layer_scores", "adversarial_noise", "layer_relative_diff",
            "lipschitz_estimate", "eigengap_rank", "gal_count", "select_gal"),
    "fisher": ("sample_fim_diag", "average_fim", "momentum_update",
               "neuron_scores"),
    "curriculum": ("pace_count", "select_batches", "sort_batches"),
    "masking": ("build_mask", "layer_ratio", "masked_param_count"),
    "data": ("generate", "dirichlet_partition", "split"),
    "engine": ("build_devices", "init_phase", "device_init_analysis",
               "local_round", "fedavg_gal", "evaluate", "sample_devices"),
    "cli": ("run_experiment", "render_metrics_csv"),
}
STATS = ("calls", "total_s", "self_s")


def import_package(name="fedlora"):
    """Import the package and every submodule, so that every binding of a
    function exists before anything is patched."""
    package = importlib.import_module(name)
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module(f"{name}.{info.name}")
    return package


class Patches:
    """Rebinds functions wherever the package looks them up; leaving the
    `with` block restores every binding."""

    def __init__(self, package):
        prefix = package.__name__ + "."
        self._modules = [m for n, m in sorted(sys.modules.items())
                         if m is not None and
                         (n == package.__name__ or n.startswith(prefix))]
        self._undo = []

    def wrap(self, module, name, make_wrapper):
        """Replace every binding of `module.name`; False if it is absent."""
        original = getattr(module, name, None)
        if not callable(original):
            return False
        wrapper = make_wrapper(original)
        for mod in self._modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))
        return True

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()
        return False


class Tracer:
    """Per-function calls, total and self time of one traced experiment."""

    def __init__(self, package):
        self.package = package
        self.stats = {}   # "module.function" -> [calls, total_s, self_s]
        self.absent = []  # "module.function" not found in the program
        self._stack = []  # child-time accumulator of each open span

    def install(self, patches):
        for module, functions in TRACED.items():
            mod = getattr(self.package, module, None)
            for fn in functions:
                key = f"{module}.{fn}"
                self.stats[key] = [0, 0.0, 0.0]
                if mod is None or not patches.wrap(mod, fn, self._timed(key)):
                    self.absent.append(key)

    def _timed(self, key):
        stat = self.stats[key]
        stack = self._stack
        clock = time.perf_counter

        def make_wrapper(fn):
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                children = [0.0]
                stack.append(children)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    span = clock() - start
                    stack.pop()
                    stat[0] += 1
                    stat[1] += span
                    stat[2] += span - children[0]
                    if stack:
                        stack[-1][0] += span
            return timed
        return make_wrapper


class RunProbe:
    """Round boundaries, local-training time, the masked-out adapter rows at
    the end of the init phase, and the return value of `engine.run`, all
    captured around engine calls of one experiment."""

    def __init__(self):
        self.init_end = None
        self.eval_ends = []
        self.local_s = 0.0
        self.local_calls = []   # (n_k, batch order, round) per local_round
        self.frozen_rows = {}   # (device, layer) -> masked-out rows of B
        self.result = None      # (reports, summary, server, devices)

    def install(self, patches, engine):
        for name, make in (("run", self._run), ("init_phase", self._init_phase),
                           ("evaluate", self._evaluate),
                           ("local_round", self._local_round)):
            if not patches.wrap(engine, name, make):
                raise RuntimeError(f"engine.{name} not found")

    def round_ms(self):
        starts = [self.init_end] + self.eval_ends[:-1]
        return [1000.0 * (end - start)
                for start, end in zip(starts, self.eval_ends)]

    def _run(self, fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            self.result = fn(*args, **kwargs)
            return self.result
        return run

    def _init_phase(self, fn):
        @functools.wraps(fn)
        def init_phase(*args, **kwargs):
            server, devices = fn(*args, **kwargs)
            for dev in devices:
                for li, keep in enumerate(dev.mask.per_layer):
                    if keep is not None:
                        rows = dev.net.layers[li].b[~keep].copy()
                        self.frozen_rows[(dev.k, li)] = rows
            self.init_end = time.perf_counter()
            return server, devices
        return init_phase

    def _evaluate(self, fn):
        @functools.wraps(fn)
        def evaluate(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.eval_ends.append(time.perf_counter())
            return out
        return evaluate

    def _local_round(self, fn):
        @functools.wraps(fn)
        def local_round(dev, gal_params, t, cfg):
            start = time.perf_counter()
            out = fn(dev, gal_params, t, cfg)
            self.local_s += time.perf_counter() - start
            self.local_calls.append((dev.n_k, list(dev.batch_order), t))
            return out
        return local_round


def trained_samples(cfg, local_calls, curriculum):
    """Samples trained inside local_round: over rounds, sampled devices and
    local iterations, the samples in the batches the pacing rule selects.
    Batches are consecutive chunks of `batch_size` with a short tail."""
    pacing = curriculum.PacingConfig(cfg.beta, cfg.alpha, cfg.pace,
                                     cfg.batch_size, cfg.rounds)
    total = 0
    for n_k, order, t in local_calls:
        count = (curriculum.pace_count(pacing, t, n_k) if cfg.curriculum_on
                 else len(order))
        total += sum(min(cfg.batch_size, n_k - j * cfg.batch_size)
                     for j in order[:count])
    return total * cfg.local_iterations
