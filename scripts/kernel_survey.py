#!/usr/bin/env python3
"""Survey the brute-force solution space across sizes and spectrum splits.

For every dimension up to --max-n and every (r, p) split, generates an
instance, solves the intertwining equation densely (``solution_space``),
and tabulates kernel dimension, rank gap, mutual-span defects against the
parametrized family, and wall time. The kernel dimension should equal n = r + 2p on
every row; the dense solve cost grows as n^6, which is why it is a
desk-scale verifier rather than the construction path.

    python3 scripts/kernel_survey.py --max-n 10 --seed 1
"""

import argparse
import time

from phm import GeneratorConfig, family_vs_kernel, generate_via_spectrum, solution_space


def splits(n: int):
    return [(r, (n - r) // 2) for r in range(n, -1, -2)]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-n", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    print(f"{'n':>3} {'r':>3} {'p':>3} {'dim':>4} {'expect':>6} {'gap ratio':>10} "
          f"{'proj defect':>12} {'recov defect':>12} {'secs':>7}")
    ok = True
    seed = args.seed
    for n in range(2, args.max_n + 1):
        for r, p in splits(n):
            seed += 1
            inst = generate_via_spectrum(GeneratorConfig(n=n, r=r, p=p, seed=seed))
            t0 = time.monotonic()
            report = solution_space(inst.H)
            match = family_vs_kernel(inst.sd, report, seed=seed)
            dt = time.monotonic() - t0
            ok = ok and report.dimension == n
            print(f"{n:>3} {r:>3} {p:>3} {report.dimension:>4} {n:>6} "
                  f"{report.gap_ratio:>10.2e} {match.max_projection_defect:>12.3e} "
                  f"{match.max_recovery_defect:>12.3e} {dt:>7.3f}")
    print("\nall kernel dimensions match" if ok else "\nDIMENSION MISMATCH, see above")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
