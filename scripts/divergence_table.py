#!/usr/bin/env python3
"""Divergence table for the triangular compression rule.

The witness vector with entries 1/k at the record indices keeps its own norm
below pi/sqrt(6) while the certified lower bound on the image norm squared
tracks the harmonic numbers, so it grows without bound.
"""

import argparse
import math

from genshift import SEARCH_CAP, divergence_witness, symbolic_map

MAX_EXP = SEARCH_CAP.bit_length() - 1  # a witness at K = 2**MAX_EXP fits the search budget


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-exp", type=int, default=16,
                        help=f"largest K is 2**max_exp, at most 2**{MAX_EXP}")
    args = parser.parse_args()
    if args.max_exp < 0:
        parser.error(f"--max-exp must be at least 0, got {args.max_exp}")
    if args.max_exp > MAX_EXP:
        parser.error(f"--max-exp must be at most {MAX_EXP}: the search budget is {SEARCH_CAP} targets")

    tri = symbolic_map("triangular")
    print(f"{'K':>10} {'|x|^2':>12} {'bound on |image|^2':>20} {'H_K':>12}")
    for exp in range(args.max_exp + 1):
        K = 2 ** exp
        w = divergence_witness(tri, K)
        harmonic = math.fsum(1.0 / k for k in range(1, K + 1))
        print(f"{K:>10} {w.vector_norm_sq:>12.6f} "
              f"{w.image_norm_sq_lower_bound:>20.6f} {harmonic:>12.6f}")
    print(f"{'limit':>10} {math.pi ** 2 / 6:>12.6f} {'diverges':>20}")


if __name__ == "__main__":
    main()
