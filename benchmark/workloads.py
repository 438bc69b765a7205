"""Benchmark workloads: one experiment config each, seeded by the benchmark.

Each config is YAML text so that set-up time includes the config parse the
command line pays. The seed given to the benchmark becomes the experiment
seed; nothing else about the inputs depends on it.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    yaml: str
    sparse: bool = False  # the GAL is a strict subset and some masks are partial

    def config_text(self, seed):
        return f"{self.yaml}seed: {int(seed)}\n"


WORKLOADS = {w.name: w for w in (
    # The README desk preset with every mechanism off: no analysis phase, so
    # local training (network) and the round loop in engine dominate.
    Workload("desk-fedavg", "mode: fedavg-lora\n"),
    # The desk preset with the full pipeline: the ROADMAP baseline run. The
    # init phase (fisher, gal, linalg) takes most of the time.
    Workload("desk-fibecfed", "mode: fibecfed\n"),
    # The README's larger setup: 100 devices with shards of about 16
    # training samples, 10 sampled per round, beta 0.6, alpha 0.8. mu 0.5
    # makes the GAL a strict subset and the masks partial. The Hessian probe
    # uses 2 samples and the Lipschitz estimate 16 points (not 8 and 64), so
    # that one experiment takes 11-19 s instead of ~53 s. With lr 0.02 (not
    # 0.004) the train loss falls and the accuracy clears chance on every
    # seed tried (0-19); at 0.01 seed 6 ends below chance.
    Workload("scale-sparse",
             "mode: fibecfed\ndevices: 100\nsampled_per_round: 10\n"
             "beta: 0.6\nalpha: 0.8\nmu: 0.5\nlr: 0.02\n"
             "hessian_samples: 2\nlipschitz_points: 16\n",
             sparse=True),
    # Self-test only: a few seconds of the full pipeline at toy size; it
    # learns, and has a strict-subset GAL and partial masks, on seeds 0-9.
    Workload("tiny",
             "mode: fibecfed\ndevices: 4\nsampled_per_round: 2\nrounds: 6\n"
             "per_class: 30\nlipschitz_points: 8\nhessian_samples: 2\n"
             "lr: 0.03\n",
             sparse=True),
)}
