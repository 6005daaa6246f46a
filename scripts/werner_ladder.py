#!/usr/bin/env python3
"""Criteria ladder along the Werner family: detection flags on a noise
grid plus the critical noise for each criterion."""

import argparse

import numpy as np

import steerkit as sk


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=21)
    args = parser.parse_args()

    family = sk.werner_family()
    print(f"{'v':>6} {'T1':>8} {'||T||^2':>8}  ent steer bell chsh")
    result = sk.sweep(family, np.linspace(0.0, 1.0, args.points))
    flags = [sk.criteria.detected(margin) for _, _, margin in result.rows.values()]
    for k, v in enumerate(result.v):
        print(f"{v:>6.3f} {result.sigma[k, 0]:>8.4f} {result.norm_sq[k]:>8.4f}  "
              + " ".join(f"{int(f[k]):>4}" for f in flags))

    print("\ncritical noise:")
    for criterion in sk.Criterion:
        v = sk.critical_noise(family, criterion)
        print(f"  {criterion.value:>13}: {v:.10f}")


if __name__ == "__main__":
    main()
