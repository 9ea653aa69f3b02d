"""Seeded workload generator: derives each workload's config files from the
shipped ``configs/`` directory plus fixed size overrides.

The program only ever sees plain config JSON.  The workload seed becomes the
``seed`` of every generated file but three (see ``KEEP_SHIPPED_SEED``) and, in
``grid_quotient``, places the bumps.

Run as a script from the root of a kerflow checkout, it is the benchmark's
set-up step, timed in a fresh interpreter: import kerflow, generate the
workload, validate every file.

    python3 perfbench/workloads.py --workload gram_ladder --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import random
import sys

SHIPPED = ("bracket_order", "cdual_abelian", "cdual_euclidean",
           "cdual_halfplane", "compatibility", "flow_laws",
           "froelich_laplace", "froelich_rank1", "luscher_mack_det",
           "luscher_mack_power", "os_reconstruct_mixture", "os_reconstruct_ou",
           "rp_axioms")

# 961 points with spacing 1/160 span [-3, 3], the shipped extent at 8x the
# resolution.  Bumps of width 0.3 centred in [0.35, 1.8] stay in the positive
# slice, and their largest shift (80 + 40 cells = 0.75) stays off the margin.
_FINE_LINE = {"origin": [-3.0], "spacing": 0.00625, "shape": [961], "margin": 2}
_N_BUMPS = 10
_BUMP_WIDTH = 0.3
_BUMP_RANGE = (0.35, 1.8)
_OS_TIMES = {"times_cells": [16, 40, 80], "law_pairs_cells": [[16, 40], [40, 80]]}

# froelich_laplace and luscher_mack_det keep their shipped sizes: larger
# ladders raise ClassificationError or CompatibilityError on some seeds at the
# current tolerances, so they are out of range for a seeded benchmark.
OVERRIDES = {
    "shipped_batch": {stem: {} for stem in SHIPPED},
    "gram_ladder": {
        "cdual_euclidean": {"samples": {"refinement": [5, 9, 17]}},
        "cdual_halfplane": {"samples": {"refinement": [5, 9, 17]}},
        "cdual_abelian": {"samples": {"n": 40}},
        "compatibility": {"samples": {"n": 60}},
        "luscher_mack_power": {"n_samples": 24},
        "froelich_laplace": {},
        "luscher_mack_det": {},
    },
    "grid_quotient": {
        "os_reconstruct_mixture": {"grid": _FINE_LINE, **_OS_TIMES},
        "os_reconstruct_ou": {"grid": _FINE_LINE, **_OS_TIMES},
        "rp_axioms": {
            "grid": {"origin": [-3.0, -1.5], "spacing": 0.1,
                     "shape": [61, 31], "margin": 2},
            "translations": [{"cells": [3, 0]}, {"cells": [5, 0]},
                             {"cells": [7, 0]}],
        },
    },
}

WORKLOADS = tuple(OVERRIDES)

# These configs keep their shipped seed in every workload.
# - flow_laws draws its integration times from its seed, so another seed
#   changes the amount of RK4 work (interquartile range about 20% of the
#   median over seeds 0-39), not only the values.
# - froelich_laplace and luscher_mack_det are out of range for the current
#   tolerances at other seeds, even at shipped size: over 150 random 31-bit
#   seeds, froelich_laplace failed on 15 (monotone_max_ratio, or exit 3) and
#   luscher_mack_det exited 3 on 6.  At the shipped seed both pass.
KEEP_SHIPPED_SEED = {"flow_laws", "froelich_laplace", "luscher_mack_det"}


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _bumps(rng: random.Random) -> list:
    lo, hi = _BUMP_RANGE
    return [{"center": [round(rng.uniform(lo, hi), 6)], "width": _BUMP_WIDTH}
            for _ in range(_N_BUMPS)]


def generate(workload: str, seed: int, config_dir: str) -> dict:
    """Config dicts of one workload, keyed by file stem, in run order."""
    if workload not in OVERRIDES:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    configs = {}
    for stem, override in sorted(OVERRIDES[workload].items()):
        with open(os.path.join(config_dir, stem + ".json")) as handle:
            data = _merge(json.load(handle), override)
        if stem not in KEEP_SHIPPED_SEED:
            data["seed"] = seed
        if data["kind"] == "os_reconstruct" and workload == "grid_quotient":
            data["bumps"] = _bumps(rng)
        configs[stem] = data
    return configs


def write_workload(workload: str, seed: int, config_dir: str, out_dir: str) -> list:
    """Write the workload's files into ``out_dir``; returns their paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for stem, data in generate(workload, seed, config_dir).items():
        path = os.path.join(out_dir, stem + ".json")
        with open(path, "w") as handle:
            json.dump(data, handle, indent=2, sort_keys=True)
        paths.append(path)
    return paths


def validate_files(paths) -> None:
    """Run ``kerflow validate`` in-process on every file; raise on a reject."""
    from kerflow import cli

    for path in paths:
        code = cli.main(["validate", path])
        if code != 0:
            raise RuntimeError(f"kerflow validate rejected {path} (exit {code})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath("src"))
    import kerflow  # noqa: F401  (import time is part of set-up)

    paths = write_workload(args.workload, args.seed, "configs", args.out)
    validate_files(paths)
    return 0


if __name__ == "__main__":
    sys.exit(main())
