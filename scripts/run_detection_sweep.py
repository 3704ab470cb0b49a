"""Sweep the full pipeline over a mixed population of bodies.

For each body: run the two-stage support test, and along a few random
directions fit powers of the section profile to find the smallest workable
exponent.  Ellipsoids should come out accepted with m = 1 (odd n) or 2
(even n); polytopes should be rejected with no workable power.  Results land
in one JSON file keyed by body label.

Usage: python scripts/run_detection_sweep.py [--out sweep.json] [--seed 0]
       [--num-ellipsoids 8] [--num-directions 3]
"""

import argparse
import json
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from tomoslice.algfit import detect_min_m
from tomoslice.bodies import Polytope, body_to_dict, random_ellipsoid, random_simplex
from tomoslice.detect import is_ellipsoid, section_consistency_check
from tomoslice.sections import profile


@dataclass
class SweepConfig:
    seed: int = 0
    num_ellipsoids: int = 8
    num_directions: int = 3
    m_max: int = 4
    fit_tol: float = 1e-6
    num_points: int = 96


def population(config):
    bodies = []
    for i in range(config.num_ellipsoids):
        n = 2 + i % 3
        bodies.append((f"ellipsoid_{n}d_{i}", random_ellipsoid(n, seed=config.seed + i)))
    bodies.append(("cube_3d", Polytope.cube(3)))
    bodies.append(("square_2d", Polytope.cube(2)))
    bodies.append(("simplex_3d", random_simplex(3, seed=config.seed + 100)))
    return bodies


def sweep_one(label, body, config):
    # crc gives each label its own reproducible direction stream
    rng = np.random.default_rng([config.seed, zlib.crc32(label.encode())])
    report = is_ellipsoid(body, seed=config.seed)
    entry = {
        "body": body_to_dict(body),
        "verdict": report.verdict,
        "linear_residual": report.linear_residual,
        "quadratic_residual": report.quadratic_residual,
        "directions": [],
    }
    if report.accepted:
        entry["section_replay_error"] = section_consistency_check(
            body, report, num_probes=25, seed=config.seed
        )
    for _ in range(config.num_directions):
        v = rng.standard_normal(body.n)
        d = v / np.linalg.norm(v)
        prof = profile(body, d, num_points=config.num_points, margin=0.0)
        win = detect_min_m(prof, m_max=config.m_max, tol=config.fit_tol)
        entry["directions"].append(
            {
                "xi": d.tolist(),
                "m": None if win is None else win.m,
                "degree": None if win is None else win.degree,
                "relative_residual": None if win is None else win.relative_residual,
            }
        )
    return entry


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="sweep.json")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--num-ellipsoids", type=int, default=8)
    ap.add_argument("--num-directions", type=int, default=3)
    args = ap.parse_args()
    config = SweepConfig(
        seed=args.seed,
        num_ellipsoids=args.num_ellipsoids,
        num_directions=args.num_directions,
    )
    results = {"config": asdict(config), "bodies": {}}
    for label, body in population(config):
        entry = sweep_one(label, body, config)
        results["bodies"][label] = entry
        found = {d["m"] for d in entry["directions"]}
        print(f"{label:24s} {entry['verdict']:7s} m={sorted(found, key=str)}")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
