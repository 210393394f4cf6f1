"""Latitude sweep of the monopole holonomy and its winding number.

Sweeps the closed family of latitude circles from the south pole to the
north and accumulates the U(1) phase of the holonomy.  The integer winding
equals the charge; a nonzero value is the obstruction that rules out any
frequency-split subbundle structure for the twisted loop bundle.
"""

import argparse
import cmath

from loopfiber import transport


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", type=int, nargs="+", default=[1, 2, -1])
    ap.add_argument("--N", type=int, default=256, help="transport grid")
    ap.add_argument("--M", type=int, default=64, help="family grid")
    ap.add_argument("--csv", help="write the per-s sweep for the first q")
    args = ap.parse_args()

    family = transport.latitude_family()
    for q in args.q:
        w = transport.chern_winding(transport.monopole(q), family,
                                    N=args.N, M=args.M)
        print(f"charge {q:+d}: winding {w:+d}")

    if args.csv:
        conn = transport.monopole(args.q[0])
        with open(args.csv, "w") as fh:
            fh.write("s,phase\n")
            hols = transport.holonomy_sweep(conn, family, args.M, args.N)
            for j, h in enumerate(hols[:, 0, 0].tolist()):
                fh.write(f"{j / args.M},{cmath.phase(h)}\n")
        print(f"sweep written to {args.csv}")


if __name__ == "__main__":
    main()
