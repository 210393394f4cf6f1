"""Batch front door: run projections, loop rebuilds, holonomy experiments,
twist checks, and family audits from data files.

Exit codes are a stable contract:
  0  success
  2  malformed input, bad parameters or an unwritable output file,
     including a connection form that turns non-finite or
     non-anti-Hermitian on the loop
  3  subspace-to-loop failure (wrong intersection dimension or unitarity)
  4  numerical refinement failure (phase steps cannot be resolved)
  5  audit or reduction failure

Reports are JSON objects with a fixed "schema" version, emitted to stdout
and optionally to files (written atomically).  With --no-meta the report
carries no timestamp, so identical configurations produce byte-identical
output.
"""

import argparse
import json
import math
import os
import sys
import tempfile
from datetime import datetime, timezone

import numpy as np

from . import decomp, fourier, loopgroup, subspaces, transport, twistbundle
from .errors import (
    IntersectionDimension,
    NonAntiHermitianSample,
    NonConstantReducedTransition,
    PeriodicityDefect,
    PhaseStepTooLarge,
    RankDeficiency,
    UnitarityViolation,
)

SCHEMA = 1

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SUBSPACE = 3
EXIT_REFINEMENT = 4
EXIT_AUDIT = 5

# The exit code of each error a command may raise; InputError and
# json.JSONDecodeError are ValueErrors.
_EXIT_CODES = {
    ValueError: EXIT_INPUT, OSError: EXIT_INPUT,
    RankDeficiency: EXIT_INPUT, NonAntiHermitianSample: EXIT_INPUT,
    IntersectionDimension: EXIT_SUBSPACE, UnitarityViolation: EXIT_SUBSPACE,
    PhaseStepTooLarge: EXIT_REFINEMENT,
    PeriodicityDefect: EXIT_AUDIT, NonConstantReducedTransition: EXIT_AUDIT,
}


class InputError(ValueError):
    """Raised for malformed files or inconsistent parameters (exit 2)."""


def _positive(value):
    return math.isfinite(value) and value > 0


# (dest, admissible, message) for every checked option, in checking order;
# each test fails on NaN, and the float tests also on +-inf.  An option its
# subcommand lacks, or left at a None default, is not checked.
_OPTION_CHECKS = (
    ("N", lambda v: v >= 1, "N must be a positive integer"),
    ("M", lambda v: v >= 1, "M must be a positive integer"),
    ("depth", lambda v: v >= 0, "depth must be >= 0"),
    ("band", lambda v: v >= 0, "band must be >= 0"),
    ("seed", lambda v: v >= 0, "seed must be >= 0"),
    ("B", math.isfinite, "B must be finite"),
    ("radius", _positive, "radius must be positive and finite"),
    ("n", lambda v: v >= 1, "n must be a positive integer"),
    ("latitude", lambda v: 0 < v < math.pi,
     "latitude must lie strictly between 0 and pi"),
    ("tol_scale", _positive, "tol-scale must be positive and finite"),
    ("variation_tol", _positive, "variation-tol must be positive and finite"),
    ("unitarity_tol", _positive, "unitarity-tol must be positive and finite"),
)


def _check_options(args):
    for name, admissible, message in _OPTION_CHECKS:
        value = getattr(args, name, None)
        if value is not None and not admissible(value):
            raise InputError(message)


def _load_input(path, parse, what):
    """parse(the JSON in path); InputError naming `what` on any failure."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    try:
        return parse(data)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"not a {what}: {exc}") from exc


def _dump(report):
    """Standard JSON: a NaN or inf in a report raises ValueError (exit 2)."""
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _write_atomic(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".part")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror}") from exc
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _report(args, command, payload):
    report = {"schema": SCHEMA, "command": command}
    report.update(payload)
    if not args.no_meta:
        report["meta"] = {
            "timestamp": datetime.now(timezone.utc).isoformat()}
    return report


# The connection each --preset builds from the parsed options.
_PRESETS = {
    "flat": lambda args: transport.flat(
        n=args.n, d=3 if args.latitude is not None else 2),
    "abelian2d": lambda args: transport.abelian2d(args.B),
    "monopole": lambda args: transport.monopole(args.q),
    "su2sample": lambda args: transport.su2sample(),
}


def _connection(args):
    return _PRESETS[args.preset](args)


def _base_loop(args, conn):
    if args.input is not None:
        try:
            loop = transport.load_loop_csv(args.input)
        except (OSError, ValueError) as exc:
            raise InputError(
                f"cannot load loop from {args.input}: {exc}") from exc
    elif args.latitude is not None:
        loop = transport.latitude_loop(args.latitude)
    elif conn.d == 3:
        loop = transport.latitude_loop(math.pi / 2.0)
    else:
        loop = transport.BaseLoop.circle(args.radius)
    if loop.d != conn.d:
        raise InputError(
            f"loop dimension {loop.d} does not match connection chart {conn.d}")
    return loop


def cmd_project(args):
    loop = _load_input(args.input, fourier.loop_from_dict,
                       "coefficient loop file")
    plus = fourier.project_plus(loop)
    minus = fourier.project_minus(loop)
    payload = {
        "input": args.input,
        "n": loop.n,
        "bands": {
            "input": list(loop.band),
            "plus": list(plus.band),
            "minus": list(minus.band),
        },
        "norms": {
            "input": fourier.norm(loop),
            "plus": fourier.norm(plus),
            "minus": fourier.norm(minus),
        },
    }
    if args.output:
        files = {
            "plus": args.output + ".plus.json",
            "minus": args.output + ".minus.json",
        }
        _write_atomic(files["plus"],
                      _dump(fourier.loop_to_dict(plus)))
        _write_atomic(files["minus"],
                      _dump(fourier.loop_to_dict(minus)))
        payload["files"] = files
    else:
        payload["plus"] = fourier.loop_to_dict(plus)
        payload["minus"] = fourier.loop_to_dict(minus)
    return _report(args, "project", payload), EXIT_OK


def cmd_subspace_loop(args):
    def parse(data):
        if "generators" in data:
            filt = subspaces.filtration_from_dict(data)
            depth = args.depth if args.depth is not None else filt.depth
            return subspaces.expand_filtration(filt, depth)
        if "columns" in data:
            return subspaces.frame_from_dict(data)
        raise ValueError("expected a filtration file (generators/depth) or "
                         "a frame file (n/columns)")

    frame = _load_input(args.input, parse, "subspace file")

    payload = {"input": args.input, "n": frame.n, "subspace_dim": frame.dim}
    try:
        g = loopgroup.loop_from_subspace(frame, tol=args.unitarity_tol)
    except (IntersectionDimension, UnitarityViolation) as exc:
        payload.update({
            "status": "failed",
            "diagnostic": str(exc),
            "element": None,
        })
        return _report(args, "subspace-loop", payload), EXIT_SUBSPACE
    payload.update({
        "status": "ok",
        "diagnostic": None,
        "element": loopgroup.element_to_dict(g),
        "unitarity_defect": loopgroup.unitarity_defect(g)[0],
        "det_winding": loopgroup.det_winding(g),
    })
    return _report(args, "subspace-loop", payload), EXIT_OK


def cmd_holonomy(args):
    conn = _connection(args)
    loop = _base_loop(args, conn)
    frame = transport.parallel_transport(conn, loop, N=args.N)
    hol, raw_defect = frame.holonomy, frame.raw_defect
    del frame  # its step offsets need not stay alive through the 2N run
    again = transport.holonomy(conn, loop, N=2 * args.N)
    payload = {
        "preset": conn.name,
        "N": args.N,
        "holonomy": fourier._to_pairs(hol),
        "unitarity_defect": raw_defect,
        "refinement_delta": float(np.linalg.norm(hol - again)),
    }
    return _report(args, "holonomy", payload), EXIT_OK


def cmd_obstruction(args):
    conn = _connection(args)
    family = transport.latitude_family()
    winding, hols = transport.chern_sweep(conn, family, N=args.N, M=args.M)
    payload = {
        "preset": conn.name,
        "q": args.q,
        "N": args.N,
        "M": args.M,
        "winding": winding,
        "csv": args.csv,
    }
    if args.csv:
        # the sweep the winding was read from, on its refined grid if any
        M = len(hols) - 1
        lines = ["s,re,im"]
        for j, h in enumerate(hols.tolist()):
            lines.append(f"{j / M!r},{h.real!r},{h.imag!r}")
        _write_atomic(args.csv, "\n".join(lines) + "\n")
    return _report(args, "obstruction", payload), EXIT_OK


def _twistcheck_residuals(conn, loop, N, band, seed):
    frame = transport.parallel_transport(conn, loop, N=N)
    rng = np.random.default_rng(seed)
    n = conn.n

    def rand_loop(dim, scale=1.0):
        coeffs = {k: scale * (rng.normal(size=dim) + 1j * rng.normal(size=dim))
                  for k in range(-band, band + 1)}
        return fourier.TruncatedLoop(dim, coeffs)

    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    f = rand_loop(1)
    p = rand_loop(n)

    embed = twistbundle.j_embed(frame, v)
    embed_back = twistbundle.phi_inverse(frame, embed)
    embed_res = fourier.norm(embed_back - fourier.constant_loop(v))

    extend = twistbundle.j_extend(frame, f, v)
    extend_back = twistbundle.phi_inverse(frame, extend)
    extend_res = fourier.norm(
        extend_back - fourier.scalar_multiply(f, fourier.constant_loop(v)))

    section = twistbundle.section_from_loop(frame, p)
    resection = twistbundle.section_from_loop(
        frame, twistbundle.phi_inverse(frame, section))
    section_res = float(np.abs(resection.samples - section.samples).max())

    seam = max(embed.seam_residual(), extend.seam_residual(),
               section.seam_residual())

    steps = N // 4
    rot_frame = transport.parallel_transport(
        conn, loop.rotated(steps / N), N=N)
    lhs = twistbundle.rotate(embed, steps)
    rhs = twistbundle.j_embed(rot_frame, frame.Ts[steps] @ v)
    rotation_res = float(np.abs(lhs.samples - rhs.samples).max())

    return {
        "embed_roundtrip": float(embed_res),
        "extend_roundtrip": float(extend_res),
        "section_roundtrip": section_res,
        "seam_residual": float(seam),
        "rotation_equivariance": rotation_res,
    }


TWISTCHECK_TOLS = {
    "embed_roundtrip": 1e-8,
    "extend_roundtrip": 1e-8,
    "section_roundtrip": 1e-7,
    "seam_residual": 1e-7,
    "rotation_equivariance": 1e-6,
}


def cmd_twistcheck(args):
    conn = _connection(args)
    loop = _base_loop(args, conn)
    residuals = _twistcheck_residuals(conn, loop, args.N, args.band, args.seed)
    tols = {k: t * args.tol_scale for k, t in TWISTCHECK_TOLS.items()}
    failures = [k for k, r in residuals.items() if not r <= tols[k]]
    payload = {
        "preset": conn.name,
        "N": args.N,
        "band": args.band,
        "seed": args.seed,
        "residuals": residuals,
        "tolerances": tols,
        "failures": failures,
        "all_ok": not failures,
    }
    code = EXIT_OK if not failures else EXIT_AUDIT
    return _report(args, "twistcheck", payload), code


def cmd_audit(args):
    fam = _load_input(args.input, decomp.family_from_dict, "family file")
    report = decomp.audit_family(fam)
    payload = {"input": args.input, "audit": report.to_dict()}
    code = EXIT_OK if report.all_ok else EXIT_AUDIT
    if fam.transitions is not None and report.axioms_ok:
        try:
            cert = decomp.reduction_cocycle(
                fam, variation_tol=args.variation_tol, audit=report)
        except NonConstantReducedTransition as exc:
            payload["reduction"] = {
                "failed": str(exc),
                "edge": list(exc.edge),
                "variation": exc.variation,
                "winding_sum": exc.winding_sum,
            }
            code = EXIT_AUDIT
        else:
            payload["reduction"] = cert.to_dict()
    else:
        payload["reduction"] = None
    payload["all_ok"] = code == EXIT_OK
    return _report(args, "audit", payload), code


HANDLERS = {
    "project": cmd_project,
    "subspace-loop": cmd_subspace_loop,
    "holonomy": cmd_holonomy,
    "obstruction": cmd_obstruction,
    "twistcheck": cmd_twistcheck,
    "audit": cmd_audit,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="loopfiber",
        description="Loop-space frequency splittings, transport holonomy, "
                    "and twisted-bundle checks.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-o", "--output", help="write the report (or report "
                        "prefix) here instead of only stdout")
    common.add_argument("--no-meta", action="store_true",
                        help="omit timestamps for byte-identical reports")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("project", parents=[common],
                       help="split a coefficient loop at frequency zero")
    p.add_argument("input", help="coefficient loop JSON file")

    p = sub.add_parser("subspace-loop", parents=[common],
                       help="rebuild the unitary loop spanning a subspace")
    p.add_argument("input", help="filtration or frame JSON file")
    p.add_argument("--depth", type=int, default=None,
                   help="override the filtration depth")
    p.add_argument("--unitarity-tol", type=float,
                   default=loopgroup.UNITARITY_TOL)

    p = loop_options = argparse.ArgumentParser(add_help=False)
    p.add_argument("--preset", required=True, choices=list(_PRESETS))
    p.add_argument("--B", type=float, default=1.0, help="curvature of abelian2d")
    p.add_argument("--q", type=int, default=1, help="charge of monopole")
    p.add_argument("--n", type=int, default=1, help="fiber dimension of flat")
    p.add_argument("--circle", dest="radius", type=float, default=1.0,
                   help="planar circle radius")
    p.add_argument("--latitude", type=float, default=None,
                   help="polar angle of a sphere latitude loop")
    p.add_argument("--loop", dest="input", default=None,
                   help="CSV loop file instead of a built-in loop")
    p.add_argument("--N", type=int, default=2048, help="transport grid")

    sub.add_parser("holonomy", parents=[common, loop_options],
                   help="transport around a loop and report the holonomy")

    p = sub.add_parser("obstruction", parents=[common],
                       help="winding of the holonomy over the latitude sweep")
    p.add_argument("--preset", required=True, choices=["monopole"])
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--N", type=int, default=256, help="transport grid")
    p.add_argument("--M", type=int, default=64, help="family grid")
    p.add_argument("--csv", default=None,
                   help="write the per-parameter holonomy sweep here")

    p = sub.add_parser("twistcheck", parents=[common, loop_options],
                       help="round-trip and equivariance checks for twisted "
                            "sections")
    p.add_argument("--band", type=int, default=4,
                   help="frequency band of the random test data")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol-scale", type=float, default=1.0)

    p = sub.add_parser("audit", parents=[common],
                       help="audit a subspace family and reduce its cocycle")
    p.add_argument("input", help="family JSON file")
    p.add_argument("--variation-tol", type=float,
                   default=decomp.VARIATION_TOL)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        _check_options(args)
        report, code = HANDLERS[args.subcommand](args)
        text = _dump(report)
        if args.output:
            suffix = ".json" if args.subcommand == "project" else ""
            _write_atomic(args.output + suffix, text)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(c for t, c in _EXIT_CODES.items() if isinstance(exc, t))
    sys.stdout.write(text)
    return code


def entrypoint():
    raise SystemExit(main())
