#!/usr/bin/env python3
"""Regenerate perfbench/reference.json, the BLER reference of each sim workload.

The reference uses the group decoder alone: every both-decoder sweep of
the benchmark checks that the two decoders decide identically, so one
row stands for both.  Blocks keep the workload's frames per block (a
whole burst becomes a block of that many frames), at a seed no benchmark
run uses.  Run from the repository root (about two minutes on two cores):

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

import json
import math

import gdstbc
from workloads import REFERENCE_FILE, WORKLOADS

REFERENCE_SEED = 2**40 + 7
REFERENCE_FRAMES = {
    "sim-fastfade-small": 200_000,
    "sim-burst-exhaustive": 60_000,
    "sim-group-parallel": 100_000,
}


def main():
    out = {"seed": REFERENCE_SEED, "decoder": "group", "workloads": {}}
    for name, frames in REFERENCE_FRAMES.items():
        wl = WORKLOADS[name]
        fpb = wl.frames_per_block
        cfg = gdstbc.SimConfig(**wl.sweep_config(
            REFERENCE_SEED, frames=frames, coherence=fpb + 1, decoder="group",
            target_errors=None, workers=1))
        res = gdstbc.run_sim(cfg)
        out["workloads"][name] = {
            f"{p.snr_db:g}": {"bler": p.bler, "frames": p.frames,
                              "frame_errors": p.frame_errors,
                              "blocks": math.ceil(p.frames / fpb)}
            for p in res.points
        }
        print(name, out["workloads"][name], flush=True)
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
