"""Level and power study for the discrete goodness-of-fit test.

Null model: 3x3 Ising grid.  Data come either from the null itself (level
row) or from grids with stronger coupling (power rows).  One CSV row per
coupling value.
"""

import argparse
from pathlib import Path

from steinkit.discrete import base_surrogate
from steinkit.gof import gof_test
from steinkit.models import grid_ising, ising_target, sample_discrete_target
from steinkit.rngs import stream_rng


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--theta-null", type=float, default=0.2)
    ap.add_argument("--thetas", type=float, nargs="+", default=[0.2, 0.3, 0.4])
    ap.add_argument("--n", type=int, default=200)
    ap.add_argument("--reps", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="gof_power.csv")
    args = ap.parse_args()

    null = ising_target(grid_ising(3, 3, args.theta_null))
    surrogate = base_surrogate(null)
    rows = ["theta_data,n,reps,rejection_rate"]
    for theta in args.thetas:
        data_target = ising_target(grid_ising(3, 3, theta))
        hits = 0
        for r in range(args.reps):
            z = sample_discrete_target(stream_rng(args.seed, int(theta * 1000), r), args.n, data_target)
            report = gof_test(z, null, surrogate, alpha=0.05, m=1000,
                              seed=args.seed * 1_000_000 + int(theta * 1000) * 1000 + r)
            hits += report.reject
        rate = hits / args.reps
        rows.append(f"{theta!r},{args.n},{args.reps},{rate!r}")
        print(f"theta={theta}: rejection rate {rate:.3f}")
    Path(args.out).write_text("\n".join(rows) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
