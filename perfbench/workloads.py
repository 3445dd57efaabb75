"""Workload definitions and the BLER reference check.

Each workload is one fixed-size ``run_sim`` sweep, repeated with a new
seed until the run's time is used up.  Sweep sizes are fixed so that one
sweep does the same work on every commit and only the number of sweeps
depends on speed.  The reasons for each workload are in BENCHMARK.json.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

#: Per-check false-alarm probability of the BLER interval.
BLER_DELTA = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    layer: str
    sim: dict

    @property
    def frames_per_block(self) -> int:
        cfg = self.sim
        return cfg["frames"] if cfg.get("coherence") is None else cfg["coherence"] - 1

    def sweep_config(self, seed: int, **overrides) -> dict:
        return {**self.sim, "seed": seed, **overrides}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sim-fastfade-small",
            layer="sim",
            sim=dict(lam=2, m=16, coherence=10, decoder="both",
                     snr_db=(0.0, 4.0, 8.0, 12.0), frames=2500, workers=1),
        ),
        Workload(
            name="sim-burst-exhaustive",
            layer="_kernels",
            sim=dict(lam=3, m=16**4, preset="paper-8ant-rate2", decoder="both",
                     snr_db=(20.0, 25.0), frames=30, workers=1),
        ),
        Workload(
            name="sim-group-parallel",
            layer="sim (process pool, reduce, early stop) and codebook set-up",
            sim=dict(lam=4, m=16**4, coherence=10, decoder="group",
                     snr_db=(20.0, 25.0), frames=6000, target_errors=100, workers=2),
        ),
    )
}


#: (lam, M, coding gain) of each ``gdstbc codebook verify`` call in the traced
#: verifier round.  The verifiers have no end-to-end workload: their
#: run-to-run spread on a shared 2-vCPU host was 0.17-0.23 of the median
#: over ten runs, too close to the largest bound the benchmark may set.
VERIFY_CALLS = ((2, 256, 1.2), (3, 256, 1.2), (4, 16, 4.0))


def sweep_seed(seed: int, part: int, rep: int) -> int:
    """Program seed of sweep ``rep`` of measurement child ``part`` of a run."""
    return (seed * 100 + part) * 1000 + rep


def load_reference() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def bernstein_halfwidth(p: float, n: int, delta: float = BLER_DELTA) -> float:
    """Two-sided Bernstein half-width for the mean of n i.i.d. [0, 1] values.

    The values are per-block error fractions with mean p, whose variance
    is at most p(1 - p) whatever the error correlation inside a block, so
    the interval stays valid for coherence blocks and whole bursts.
    """
    if n <= 0:
        return math.inf
    lg = math.log(2.0 / delta)
    var = p * (1.0 - p)
    a = lg / (3.0 * n)
    return a + math.sqrt(a * a + 2.0 * var * lg / n)


def bler_interval(ref: dict, n_blocks: int) -> tuple[float, float]:
    """Acceptance interval for a run's BLER over ``n_blocks`` fading blocks.

    The reference's own sampling error is added to the run's, and the
    variance is taken at the point of the reference interval nearest 1/2.
    """
    p = ref["bler"]
    hw_ref = bernstein_halfwidth(p, ref["blocks"])
    p_var = min(max(0.5, p - hw_ref), p + hw_ref)
    hw = bernstein_halfwidth(p_var, n_blocks) + bernstein_halfwidth(p_var, ref["blocks"])
    return p - hw, p + hw
