"""Batch front door: run projections, loop rebuilds, holonomy experiments,
twist checks, and family audits from data files.

Exit codes are a stable contract:
  0  success
  2  malformed input, bad parameters or an unwritable output file,
     including a connection form that turns non-finite or
     non-anti-Hermitian on the loop and a family transition outside LU(n)
  3  subspace-to-loop failure (wrong intersection dimension or unitarity)
  4  numerical refinement failure: a loop whose frequencies no
     certificate grid resolves, a determinant winding not certainly
     whole, or an obstruction sweep whose transports do not resolve its
     winding
  5  audit or reduction failure

Reports are JSON objects with a fixed "schema" version, laid out by json
(sorted keys, indent 2) with their float arrays written by orjson, and
emitted to stdout and optionally to files (written atomically).  With
--no-meta the report carries no timestamp, so identical configurations
produce byte-identical output.  Every certificate takes its fixed module
constant as its tolerance (loopgroup.UNITARITY_TOL, decomp.VARIATION_TOL,
TWISTCHECK_TOLS).

The first main() of a process fixes glibc's mmap and trim thresholds
(_steady_heap), so transport's freed stacks stay resident between commands;
importing the package sets nothing.  Each command runs, and its report is
laid out and freed, with the cyclic garbage collector paused
(_collector_paused), and so is each input file's decode where it is called
alone: a decoded file and a report are trees without reference cycles, and
their thousands of fresh lists would otherwise set off collections that
walk them and free nothing.
"""

import argparse
import contextlib
import ctypes
import functools
import gc
import json
import math
import os
import re
import sys
import tempfile
import time
from datetime import datetime, timezone
from itertools import chain

import numpy as np
import orjson

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

SCHEMA = 2

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


# twistcheck's random loops span 2 band + 1 frequencies
_MAX_BAND = (fourier.MAX_BAND_WIDTH - 1) // 2
SWEEP_MAX_GRID = 4096  # obstruction's largest CSV grid M

# (dest, admissible, message) for every checked option, in checking order;
# each test fails on NaN, and the float tests also on +-inf.  An option its
# subcommand lacks, or left at a None default, is not checked.
_OPTION_CHECKS = (
    ("N", lambda v: v >= 1, "N must be a positive integer"),
    ("M", lambda v: 1 <= v <= SWEEP_MAX_GRID,
     f"M must be between 1 and {SWEEP_MAX_GRID}"),
    ("depth", lambda v: v >= 0, "depth must be >= 0"),
    ("band", lambda v: 0 <= v <= _MAX_BAND,
     f"band must be between 0 and {_MAX_BAND}"),
    ("seed", lambda v: v >= 0, "seed must be >= 0"),
    ("B", math.isfinite, "B must be finite"),
    ("radius", lambda v: math.isfinite(v) and v > 0,
     "radius must be positive and finite"),
    ("n", lambda v: v >= 1, "n must be a positive integer"),
    # a float holds every integer up to 2**53, so the form's charge is q
    ("q", lambda v: abs(v) <= 2 ** 53,
     f"q must be at most {2 ** 53} in absolute value"),
    ("latitude", lambda v: 0 < v < math.pi,
     "latitude must lie strictly between 0 and pi"),
)


def _check_options(args):
    for name, admissible, message in _OPTION_CHECKS:
        value = getattr(args, name, None)
        if value is not None and not admissible(value):
            raise InputError(message)


@contextlib.contextmanager
def _collector_paused():
    """Automatic garbage collection off for the block; on again after it
    only if it was on when the block was entered.

    For blocks that build trees of fresh lists and dicts with no reference
    cycle: decoding an input file, and running a command up to its laid
    out report.  Each container counts toward the young generation's
    threshold (700), so collections set off inside such a block walk the
    live tree and free nothing: some 20 for the ~15 000 lists of a
    benchmark frame, and two for the ~1400 of a subspace-loop element.  A
    block that frees its tree before it ends leaves the young generation's
    count where it was, so no collection is due when the collector
    resumes.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _load_input(path, parse, what):
    """(parse(the JSON in path), the wall seconds it took), with the
    collector paused; InputError naming `what` on any failure.

    orjson decodes strict JSON only: NaN, Infinity, a literal beyond the
    double range, a byte order mark, bytes that are not UTF-8 and a lone
    surrogate escape are decode errors.  Its floats are the correctly
    rounded doubles float() gives.  An integer outside [-2**63, 2**64)
    decodes as a float, which every integer field refuses.  The decoder
    does not limit nesting depth, so a parser that recurses into a deep
    tree (a repr in an error message) fails closed on RecursionError.
    """
    start = time.perf_counter()
    with _collector_paused():
        try:
            with open(path, "rb") as fh:
                data = orjson.loads(fh.read())
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc}") from exc
        except orjson.JSONDecodeError as exc:
            raise InputError(f"{path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise InputError(f"not a {what}: expected a JSON object, got "
                             f"{type(data).__name__}")
        try:
            value = parse(data)
        except KeyError as exc:  # str(exc) is the key's repr
            raise InputError(f"not a {what}: missing key {exc}") from exc
        except (TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise InputError(f"not a {what}: {exc}") from exc
        # freed while paused, the tree's containers leave the young
        # generation's count where it was, so none is due on resuming
        del data
    return value, time.perf_counter() - start


_encode_str = json.encoder.encode_basestring_ascii
# json's spelling of the string "\x00<i>" that _stubbed puts in place of
# the i-th float array
_STUB = re.compile(r'"\\u0000([0-9]+)"')


def _dump(report):
    """json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n",
    byte for byte, so a NaN or inf in a report raises ValueError (exit 2).

    json's indent=2 encoder is pure Python, one generator step per value,
    so it lays out a copy of the report in which each float array is one
    stub string (_stubbed); the floats of each array, written by one orjson
    call, replace its stub at the indent of the stub's line.  A report
    string that reads like a stub leaves more stubs than arrays, and such a
    report is written by json alone.
    """
    arrays = []
    text = json.dumps(_stubbed(report, arrays), sort_keys=True, indent=2,
                      allow_nan=False)
    parts = _STUB.split(text)  # text, index, text, ..., text
    if len(parts) // 2 > len(arrays):
        return json.dumps(report, sort_keys=True, indent=2,
                          allow_nan=False) + "\n"
    for i in range(1, len(parts), 2):
        line = parts[i - 1][parts[i - 1].rfind("\n") + 1:]
        newline = "\n" + " " * (len(line) - len(line.lstrip(" ")))
        keys, shape, leaves = arrays[int(parts[i])]
        parts[i] = (_float_dict(keys, shape, leaves, newline) if keys else
                    _interleave(_array_layout(newline, shape),
                                _float_texts(leaves)))
    parts.append("\n")
    return "".join(parts)


def _stubbed(value, arrays):
    """A copy of `value` in which each rectangular float list, and each dict
    of two or more str keys to float arrays of one shape, is the string
    "\x00<i>", with arrays[i] = (its sorted keys or None, shape, leaves)."""
    if isinstance(value, dict):
        if len(value) > 1 and all(isinstance(key, str) for key in value):
            keys = sorted(value)
            found = _float_leaves([value[key] for key in keys])
            if found is not None and len(found[0]) > 1:
                arrays.append((keys, *found))
                return f"\x00{len(arrays) - 1}"
        return {key: _stubbed(item, arrays) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        found = _float_leaves(value)
        if found is not None:
            arrays.append((None, *found))
            return f"\x00{len(arrays) - 1}"
        return [_stubbed(item, arrays) for item in value]
    return value


def _float_leaves(value):
    """(shape, leaves) of a nonempty list nested to a fixed shape with only
    float leaves, else None."""
    shape, leaves = [len(value)], value
    while True:
        kinds = set(map(type, leaves))
        if kinds == {float}:
            return tuple(shape), leaves
        if kinds != {list}:
            return None
        sizes = set(map(len, leaves))
        if len(sizes) != 1 or 0 in sizes:
            return None
        shape.append(sizes.pop())
        leaves = list(chain.from_iterable(leaves))


def _float_dict(keys, shape, leaves, newline):
    """The indent=2 text of the dict of `keys` (sorted) to the float arrays
    of shape[1:] whose leaves, in key order, are `leaves`."""
    inner = newline + "  "
    head, *between, tail = _array_layout(inner, shape[1:])
    size = len(between) + 1  # leaves per array
    seps = [None, *between] * shape[0] + [None]
    opens = [_encode_str(key) + ": " + head for key in keys]
    seps[0::size] = (["{" + inner + opens[0]]
                     + [tail + "," + inner + text for text in opens[1:]]
                     + [tail + newline + "}"])
    return _interleave(seps, _float_texts(leaves))


def _interleave(seps, texts):
    """seps[0] + texts[0] + seps[1] + ... + texts[-1] + seps[-1]."""
    out = [None] * (2 * len(texts) + 1)
    out[0::2] = seps
    out[1::2] = texts
    return "".join(out)


def _float_texts(leaves):
    """list(map(float.__repr__, leaves)) for a nonempty list of floats, by
    one orjson call; json's ValueError on a NaN or inf, which orjson writes
    as null.

    orjson writes the same shortest round-trip digits as repr but spells
    three ranges of |x| another way: 1e-6 for 1e-06 (exponents -6 to -9),
    0.0000123 for 1.23e-05, and 1e16 for 1e+16.  The first is padded in one
    pass; the other two, rare in reports, are written again by repr.
    """
    text = orjson.dumps(leaves).decode()
    if "n" in text:  # only "null" holds one
        json.dumps(leaves, allow_nan=False)  # raises json's ValueError
    texts = np.array(text[1:-1].split(","), dtype=object)
    values = np.array(leaves)
    size = np.abs(values)
    pad = (size >= 1e-9) & (size < 1e-5)
    if pad.any():
        texts[pad] = ",".join(texts[pad]).replace("e-", "e-0").split(",")
    other = (size >= 1e16) | ((size >= 1e-5) & (size < 1e-4))
    if other.any():
        texts[other] = list(map(float.__repr__, values[other].tolist()))
    return texts.tolist()


@functools.lru_cache(maxsize=64)
def _array_layout(newline, shape):
    """The text around and between the leaves of a nested list of `shape`
    written at `newline`: its head, the separator after each leaf but the
    last, and its tail.  orjson's OPT_INDENT_2 lays nested lists out as
    json's indent=2 does."""
    text = orjson.dumps(np.zeros(shape).tolist(), option=orjson.OPT_INDENT_2)
    return tuple(text.decode().replace("\n", newline).split("0.0"))


def _write_atomic(path, text):
    """Write text to path through a renamed temp file, with the mode that
    open(path, "w") gives under the umask; InputError naming path on any
    OSError, with no temp file left behind."""
    umask = os.umask(0o022)  # reading the umask means setting it
    os.umask(umask)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   suffix=".part")
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fd, 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _report(args, command, payload, meta=None):
    """The report of a command; `meta` (how the answer was reached) goes
    under "meta" with the timestamp, which --no-meta drops."""
    report = {"schema": SCHEMA, "command": command}
    report.update(payload)
    if not args.no_meta:
        report["meta"] = {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            **(meta or {})}
    return report


# The connection each --preset builds from the parsed options.
_PRESETS = {
    "flat": lambda args: transport.flat(
        n=args.n, d=3 if args.latitude is not None else 2),
    "abelian2d": lambda args: transport.abelian2d(args.B),
    "monopole": lambda args: transport.monopole(args.q),
    "su2sample": lambda args: transport.su2sample(),
}


def _base_loop(args, conn):
    if args.input is not None:
        try:
            with _collector_paused():
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
    loop, load_s = _load_input(args.input, fourier.loop_from_dict,
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
    return _report(args, "project", payload, {"load_s": load_s}), EXIT_OK


def cmd_subspace_loop(args):
    def parse(data):
        if "generators" in data:
            return subspaces.filtration_from_dict(data)
        if "columns" in data:
            return subspaces.frame_from_dict(data)
        raise ValueError("expected a filtration file (generators/depth) or "
                         "a frame file (n/columns)")

    frame, load_s = _load_input(args.input, parse, "subspace file")
    meta = {"load_s": load_s}
    if isinstance(frame, subspaces.FiltrationSubspace):
        frame = subspaces.expand_filtration(frame, args.depth)
    elif args.depth is not None:
        raise InputError("--depth applies only to a filtration file")

    payload = {"input": args.input, "n": frame.n, "subspace_dim": frame.dim}
    try:
        g = loopgroup.loop_from_subspace(frame)
    except (IntersectionDimension, UnitarityViolation) as exc:
        payload.update({
            "status": "failed",
            "diagnostic": str(exc),
            "element": None,
        })
        return _report(args, "subspace-loop", payload, meta), EXIT_SUBSPACE
    payload.update({
        "status": "ok",
        "diagnostic": None,
        "element": loopgroup.element_to_dict(g),
        "unitarity_defect": loopgroup.unitarity_defect(g)[0],
        "det_winding": loopgroup.det_winding(g),
    })
    return _report(args, "subspace-loop", payload, meta), EXIT_OK


def cmd_holonomy(args):
    conn = _PRESETS[args.preset](args)
    loop = _base_loop(args, conn)
    # ask the transport's door for the 2N refinement run before any work
    try:
        transport._batch(conn, loop, 2 * args.N)
    except ValueError as exc:
        raise InputError(f"the holonomy command refines N={args.N} to 2N, "
                         f"and {exc}") from exc
    frame = transport.parallel_transport(conn, loop, N=args.N)
    payload = {
        "preset": conn.name,
        "N": args.N,
        "holonomy": fourier._to_pairs(frame.holonomy),
        "unitarity_defect": frame.unitarity_defect(),
        "raw_drift": frame.raw_defect,
        "refinement_delta": transport.refinement_delta(frame),
    }
    return _report(args, "holonomy", payload), EXIT_OK


def cmd_obstruction(args):
    conn = _PRESETS[args.preset](args)
    family = transport.latitude_family()
    winding, turns, rho = transport.chern_winding(conn, family, N=args.N)
    payload = {
        "preset": conn.name,
        "q": args.q,
        "N": args.N,
        "M": args.M,
        "winding": winding,
        "csv": args.csv,
    }
    if args.csv:
        s = [j / args.M for j in range(args.M + 1)]
        hols = transport.holonomy(conn, transport.family_loops(family, s),
                                  args.N)
        lines = ["s,re,im"] + [f"{x!r},{h.real!r},{h.imag!r}"
                               for x, h in zip(s, hols[:, 0, 0].tolist())]
        _write_atomic(args.csv, "\n".join(lines) + "\n")
    # the turns the winding was rounded from, and the step h |A| they rest on
    meta = {"winding_turns": turns, "step_resolution": rho}
    return _report(args, "obstruction", payload, meta), EXIT_OK


def _random_loop(rng, dim, band):
    """twistcheck's test loop of `dim` components on frequencies -band ..
    band, each coefficient re + i im with standard normal parts, from one
    draw of rng: the stream, frequency by frequency, of the real parts and
    then the imaginary parts."""
    z = rng.normal(size=(2 * band + 1, 2, dim))
    return fourier.TruncatedLoop.from_band(dim, -band, z[:, 0] + 1j * z[:, 1])


def _twistcheck_residuals(conn, loop, N, band, seed):
    # the loop and the loop rotated by a quarter turn, in one batched pass;
    # the rotated frame is transported on its own samples, never rebuilt
    # from the first frame's steps, so rotation_equivariance checks transport
    steps = N // 4
    frame, rot_frame = transport.parallel_transport(
        conn, [loop, loop.rotated(steps / N)], N=N)
    rng = np.random.default_rng(seed)
    n = conn.n
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    f = _random_loop(rng, 1, band)
    p = _random_loop(rng, n, band)

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
    # an N-point grid resolves (N - 1) // 2 frequencies on each side
    if args.N < 2 * args.band + 1:
        raise InputError(f"N={args.N} cannot resolve the test loops' band "
                         f"{args.band}: N must be at least 2 band + 1")
    # the quarter turn of rotation_equivariance is N // 4 steps, none below 4
    if args.N < 4:
        raise InputError(f"N={args.N} leaves no step for the quarter-turn "
                         f"rotation check: N must be at least 4")
    conn = _PRESETS[args.preset](args)
    loop = _base_loop(args, conn)
    residuals = _twistcheck_residuals(conn, loop, args.N, args.band, args.seed)
    failures = [k for k, r in residuals.items()
                if not r <= TWISTCHECK_TOLS[k]]
    payload = {
        "preset": conn.name,
        "N": args.N,
        "band": args.band,
        "seed": args.seed,
        "residuals": residuals,
        "tolerances": dict(TWISTCHECK_TOLS),
        "failures": failures,
        "all_ok": not failures,
    }
    code = EXIT_OK if not failures else EXIT_AUDIT
    return _report(args, "twistcheck", payload), code


def cmd_audit(args):
    fam, load_s = _load_input(args.input, decomp.family_from_dict,
                              "family file")
    report = decomp.audit_family(fam)
    payload = {"input": args.input, "audit": report.to_dict()}
    code = EXIT_OK if report.all_ok else EXIT_AUDIT
    if fam.transitions is not None and report.axioms_ok:
        try:
            cert = decomp.reduction_cocycle(report)
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
    return _report(args, "audit", payload, {"load_s": load_s}), code


HANDLERS = {
    "project": cmd_project,
    "subspace-loop": cmd_subspace_loop,
    "holonomy": cmd_holonomy,
    "obstruction": cmd_obstruction,
    "twistcheck": cmd_twistcheck,
    "audit": cmd_audit,
}


@functools.cache
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
    p.add_argument("--M", type=int, default=64, help="grid s = j/M of --csv")
    p.add_argument("--csv", default=None,
                   help="write the per-parameter holonomy sweep here")

    p = sub.add_parser("twistcheck", parents=[common, loop_options],
                       help="round-trip and equivariance checks for twisted "
                            "sections")
    p.add_argument("--band", type=int, default=4,
                   help="frequency band of the random test data")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("audit", parents=[common],
                       help="audit a subspace family and reduce its cocycle")
    p.add_argument("input", help="family JSON file")

    return parser


@functools.cache
def _steady_heap():
    """Fix glibc's mmap threshold at 32 MiB, its own ceiling for the dynamic
    threshold, and its trim threshold at 64 MiB, once per process; nothing
    where there is no glibc.

    By default glibc raises the mmap threshold to the largest mmapped block
    freed so far and trims the heap top past twice that, so each command's
    transport stacks (128-512 KB) go back to the system at its end and fault
    in again on the next.  The mmap threshold goes first: fixing the trim
    threshold alone switches the dynamic mmap threshold off, and every such
    stack is then mmapped afresh.  Allocation never touches the arithmetic.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def main(argv=None):
    _steady_heap()
    args = _build_parser().parse_args(argv)
    try:
        _check_options(args)
        # the report is built and laid out, and freed, with the collector
        # paused: a subspace-loop element alone is ~1400 fresh lists
        with _collector_paused():
            report, code = HANDLERS[args.subcommand](args)
            text = _dump(report)
            del report
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
