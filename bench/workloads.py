"""Workloads of the squeezed-zeno benchmark and the generator that fills them in.

A workload is a fixed list of one-shot CLI invocations. Sizes are fixed per
workload, so every run does the same work. The seed generates only the
squeezing phase ``psi`` and the Monte Carlo ``seed``; neither changes the
cost. The program receives only the generated ``--set`` values.
"""

import json
import math
import random
from dataclasses import dataclass

# Each workload stresses a different layer; the comment says why it exists.
WORKLOADS = {
    # About 80 % of each invocation is interpreter start plus import, so a
    # change to set-up shows here while the kernels do almost no work. It is
    # also the only workload that calls the dynamics layer.
    "startup": [
        ("intelligent", {"N": 1.0}),
        ("zeno", {"N": 1.0, "state": "zeno-plus", "dt": 0.01, "count": 50, "n_traj": 0}),
        ("evolve", {"N": 1.0, "state": "zeno-plus", "measure": "mu1", "t_end": 0.5, "n_steps": 50}),
        ("surface", {"N": 1.0, "n_theta": 32, "n_phi": 32, "format": "csv"}),
    ],
    # Row building and cli.write_table dominate (330k rows, about 21 MB); the
    # other workloads write at most about a thousand rows per invocation.
    "surface-dense": [
        ("surface", {"N": 1.0, "n_theta": 512, "n_phi": 512, "format": "csv"}),
        ("surface", {"N": 1.0, "n_theta": 256, "n_phi": 256, "format": "json"}),
    ],
    # Monte Carlo with a small output. The two initial states bracket the
    # share of draws spent on live trajectories (about 10 % and about 100 %).
    "zeno-mc": [
        ("zeno", {"N": 1.0, "state": "excited", "dt": 0.01, "count": 500, "n_traj": 200000}),
        ("zeno", {"N": 1.0, "state": "zeno-plus", "dt": 0.01, "count": 500, "n_traj": 200000}),
    ],
}

# Smallest sizes, used by --smoke so the harness itself can be tested quickly.
SMOKE_SIZES = {"n_theta": 4, "n_phi": 4, "t_end": 0.1, "n_steps": 4, "count": 5}
SMOKE_MAX_TRAJ = 200


@dataclass
class Invocation:
    """One CLI call: subcommand plus the complete config passed by --set."""

    index: int
    command: str
    config: dict

    @property
    def fmt(self) -> str:
        return self.config.get("format", "csv")

    def argv(self, out_path) -> list:
        sets = []
        for key, value in self.config.items():
            sets += ["--set", f"{key}={json.dumps(value)}"]
        return [self.command] + sets + ["--out", str(out_path)]


def generate(workload: str, seed: int, smoke: bool = False) -> list:
    """The workload's invocations with psi and the Monte Carlo seed drawn from seed."""
    rng = random.Random(seed)
    invocations = []
    for index, (command, sizes) in enumerate(WORKLOADS[workload]):
        config = dict(sizes)
        config["psi"] = rng.uniform(0.0, 2.0 * math.pi)
        if smoke:
            config.update({k: v for k, v in SMOKE_SIZES.items() if k in config})
            if config.get("n_traj"):
                config["n_traj"] = min(config["n_traj"], SMOKE_MAX_TRAJ)
        if config.get("n_traj"):
            config["seed"] = rng.randrange(2**32)
        invocations.append(Invocation(index, command, config))
    return invocations
