"""Round-trip statistics for the subspace-to-loop reconstruction.

For seeded random unitary loops g, builds the shifted window subspace
g . span{z^p e_j : 0 <= p <= depth}, reconstructs a loop from it, and
measures how far g^-1 times the reconstruction is from a constant.
"""

import argparse

from loopfiber import loopgroup


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--band", type=int, default=4)
    ap.add_argument("--depth", type=int, default=6)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print(f"{'trial':>5}  {'unitarity defect':>17}  {'residue variation':>18}"
          f"  {'winding':>7}")
    for i in range(args.trials):
        g = loopgroup.random_loop(args.n, args.band, seed=args.seed + i)
        ghat = loopgroup.loop_from_subspace(
            loopgroup.window_frame(g, args.depth))
        defect = loopgroup.unitarity_defect(ghat)[0]
        residue = loopgroup.multiply(loopgroup.inverse(ghat), g)
        variation = loopgroup.theta_variation(residue)[0]
        winding = loopgroup.det_winding(ghat)
        print(f"{i:>5}  {defect:17.3e}  {variation:18.3e}  {winding:>7}")


if __name__ == "__main__":
    main()
