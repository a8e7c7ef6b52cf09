"""The benchmark's workloads: how each builds its inputs, runs one op and
checks the op's output.

Every workload calls grwlab only through module attributes
(``collapse.run_grw``, ``cli.dispatch``, ...), so that the traced run can
replace those attributes with timing wrappers.

Op ``i`` of a run uses input ``i // 2``: each input runs twice in a row, the
second run must reproduce the first byte for byte, and the median over a run
still mixes many inputs, so one unlucky input (say, a trajectory with few
hits) does not set the run's figures.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from grwlab import cli, collapse, ontology, propagator, state

# A statistical verdict: it fails for about 0.27% of seeds by design, so it
# is recorded but does not fail an op.
STATISTICAL_VERDICTS = {"born_frequency_within_3sigma"}

# |mean gain - hbar^2 / (8 m sigma^2)| allowed for energy_ledger; the seed
# commit reads 0.125 with a spread of about 1e-17 over centres.
GAIN_TOL = 1e-9

SUITE_CONFIGS = (
    "billiard_collision",
    "hegerfeldt_regrowth",
    "kernel_dilemma",
    "marble_in_box",
    "wallace_displacement",
)


def sub_seed(seed: int, key: int) -> int:
    """Seed of input ``key`` in a run with workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, key]).generate_state(1)[0])


@dataclass
class Outcome:
    """What the loop needs from one op: work done, digest, failed checks."""

    work: float
    digest: str
    problems: list[str]
    notes: list[str] = field(default_factory=list)


class CliWorkload:
    """Shipped configs through load_config -> resolve_config -> dispatch -> write_outputs.

    One op runs every config once per pass, each pass with its own seed and
    output directory.
    """

    passes = 1

    def __init__(self, root: Path, out_dir: Path, seed: int, names: tuple[str, ...]):
        self.paths = [root / "configs" / f"{name}.yaml" for name in names]
        self.out_dir = out_dir
        self.seed = seed
        # what a CLI user pays before the first run: load and resolve each config
        for path in self.paths:
            cli.resolve_config(cli.load_config(path), seed)

    def prepare(self, key: int) -> list[int]:
        return [sub_seed(self.seed, key * self.passes + j) for j in range(self.passes)]

    def run(self, seeds: list[int]) -> list[tuple[dict, list[Path]]]:
        runs = []
        for j, seed in enumerate(seeds):
            for path in self.paths:
                raw = cli.load_config(path)
                config = cli.resolve_config(raw, seed, str(self.out_dir / str(j) / path.stem))
                result = cli.dispatch(config)
                runs.append((config, cli.write_outputs(result, config, Path(config["out_dir"]))))
        return runs

    def work(self, runs) -> float:
        raise NotImplementedError

    def check(self, runs) -> Outcome:
        digest = hashlib.sha256()
        problems, notes = [], []
        for config, paths in runs:
            for path in paths:
                data = path.read_bytes()
                digest.update(path.name.encode() + b"\0" + data)
                if path.name.startswith("summary."):
                    verdicts = json.loads(data)["result"]["verdicts"]
                    for name, ok in verdicts.items():
                        if ok:
                            continue
                        if name in STATISTICAL_VERDICTS:
                            notes.append(f"{config['scenario']}.{name}")
                        else:
                            problems.append(f"{config['scenario']}: verdict {name} is false")
        return Outcome(self.work(runs), digest.hexdigest(), problems, notes)


class ChainEnsemble(CliWorkload):
    name = "chain_ensemble"
    unit = "trial"
    working_set = (
        "2 branches x 1000 pointer positions (16 KiB) per trial, plus 10^4 trial "
        "records and about 0.5 MB of CSV text per op"
    )

    def __init__(self, root: Path, out_dir: Path, seed: int):
        super().__init__(root, out_dir, seed, ("measurement_chain",))

    def work(self, runs) -> float:
        return float(sum(config["params"]["n_trials"] for config, _ in runs))


class ScenarioSuite(CliWorkload):
    name = "scenario_suite"
    unit = "config run"
    # One pass takes about 60 ms; on a shared 2-vCPU VM the tail of such
    # short ops measured other tenants' bursts (run-to-run spread of the p90
    # op time up to 0.28), so an op is four passes.
    passes = 4
    working_set = (
        "grid states of 1024-4096 points (16-64 KiB complex128) and about 11k CSV "
        "rows per pass"
    )

    def __init__(self, root: Path, out_dir: Path, seed: int):
        super().__init__(root, out_dir, seed, SUITE_CONFIGS)

    def work(self, runs) -> float:
        return float(len(runs))


class GridTrajectory:
    """run_grw on a 4096-point state in a harmonic trap: about 200 dependent hits."""

    name = "grid_trajectory"
    unit = "hit"
    working_set = "one 4096-point complex128 state (64 KiB) plus same-size phase arrays"
    DURATION = 200.0
    DT = 0.2

    def __init__(self, root: Path, out_dir: Path, seed: int):
        self.seed = seed
        self.params = state.PhysicsParams.scaled(lam=1.0, sigma=1.0)
        self.grid = state.Grid1D(-64.0, 64.0, 4096)
        self.kernel = collapse.GaussianKernel(1.0)
        self.potential = propagator.harmonic_potential(self.grid, self.params, omega=0.5)

    def prepare(self, key: int):
        seed = sub_seed(self.seed, key)
        x0 = float(np.random.default_rng(seed).uniform(-2.0, 2.0))
        return state.gaussian_packet(self.grid, x0, 2.0), collapse.RngStream(seed)

    def run(self, inputs):
        psi, rng = inputs
        return collapse.run_grw(
            psi, self.DURATION, self.kernel, self.params, rng, potential=self.potential, dt=self.DT
        )

    def check(self, outputs) -> Outcome:
        psi, events = outputs
        problems = []
        drift = abs(psi.norm_squared - 1.0)
        if not drift <= state.NORM_TOL:
            problems.append(f"final norm^2 drifts by {drift!r} > NORM_TOL")
        times = [event.time for event in events]
        if any(b <= a for a, b in zip(times, times[1:])) or (
            times and not 0.0 < times[0] <= times[-1] <= self.DURATION
        ):
            problems.append("event times are not ordered within (0, duration]")
        digest = hashlib.sha256(psi.amplitudes.tobytes())
        digest.update(repr([(e.time, e.center) for e in events]).encode())
        return Outcome(float(len(events)), digest.hexdigest(), problems)


class EnergyLedger:
    """energy_gain_per_hit: 1000 independent Gaussian hits on one broad packet."""

    name = "energy_ledger"
    unit = "centre"
    working_set = "one 8192-point complex128 state (128 KiB) and its per-centre copies"
    N_CENTRES = 1000

    def __init__(self, root: Path, out_dir: Path, seed: int):
        self.seed = seed
        self.params = state.PhysicsParams.scaled(sigma=1.0)
        self.grid = state.Grid1D(-64.0, 64.0, 8192)
        self.kernel = collapse.GaussianKernel(self.params.sigma)
        p = self.params
        self.expected_gain = p.hbar**2 / (8.0 * p.mass * p.sigma**2)

    def prepare(self, key: int):
        seed = sub_seed(self.seed, key)
        x0 = float(np.random.default_rng(seed).uniform(-4.0, 4.0))
        width = 4.0 * self.params.sigma
        return state.gaussian_packet(self.grid, x0, width), collapse.RngStream(seed)

    def run(self, inputs):
        psi, rng = inputs
        return ontology.energy_gain_per_hit(psi, self.kernel, self.params, rng, self.N_CENTRES)

    def check(self, outputs) -> Outcome:
        mean, spread = outputs
        problems = []
        if not abs(mean - self.expected_gain) <= GAIN_TOL:
            problems.append(
                f"mean gain {mean!r} differs from hbar^2/(8 m sigma^2) = "
                f"{self.expected_gain!r} by more than {GAIN_TOL}"
            )
        digest = hashlib.sha256(repr((mean, spread)).encode()).hexdigest()
        return Outcome(float(self.N_CENTRES), digest, problems)


WORKLOADS = {
    cls.name: cls for cls in (ChainEnsemble, GridTrajectory, EnergyLedger, ScenarioSuite)
}
