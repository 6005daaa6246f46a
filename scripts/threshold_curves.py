#!/usr/bin/env python3
"""Steering threshold of the noisy partially-entangled family vs. the
shape angle: steerkit's critical noise against the closed form
3 / (2 (1 + 2 sin^2 a))."""

import argparse
import csv
import math
import sys

import numpy as np

import steerkit as sk


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=25)
    parser.add_argument("--out", help="optional CSV output path")
    args = parser.parse_args()

    rows = []
    for alpha in np.linspace(0.0, np.pi, args.points):
        closed = 3.0 / (2.0 * (1.0 + 2.0 * math.sin(alpha) ** 2))
        family = sk.noisy_schmidt_family(float(alpha))
        try:
            found = sk.critical_noise(family, sk.Criterion.GEOMETRIC_STEERING)
            defect = abs(found - closed)
            rows.append((alpha, closed, f"{found:.10f}", f"{defect:.2e}"))
        except sk.NoDetection:
            rows.append((alpha, closed, "none", ""))

    print(f"{'alpha':>10} {'closed form':>14} {'critical noise':>14} {'|diff|':>10}")
    for alpha, closed, found, defect in rows:
        print(f"{alpha:>10.6f} {closed:>14.10f} {found:>14} {defect:>10}")

    if args.out:
        with open(args.out, "w", newline="") as fp:
            writer = csv.writer(fp)
            writer.writerow(["alpha", "closed_form", "critical_noise", "abs_diff"])
            writer.writerows(rows)
        print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
