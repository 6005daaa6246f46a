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
    for record in sk.sweep(family, np.linspace(0.0, 1.0, args.points)):
        flags = " ".join(
            f"{int(v.detected):>4}" for v in record.verdicts
        )
        print(f"{record.parameters['v']:>6.3f} {record.t1:>8.4f} "
              f"{record.norm_sq:>8.4f}  {flags}")

    print("\ncritical noise:")
    for criterion in sk.Criterion:
        v = sk.critical_noise(family, criterion)
        print(f"  {criterion.value:>13}: {v:.10f}")


if __name__ == "__main__":
    main()
