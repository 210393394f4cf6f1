"""The benchmark's workloads: seeded inputs, fixed CLI commands, and oracles.

Each workload generates its input files from the seed alone, together with
the values its oracles expect, which it also writes to `expected.json` next
to the inputs.  Every oracle compares a report with those values using plain
numpy, not the package under test, and raises OracleMiss when they disagree.
"""

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Tolerances the CLI's twistcheck report must meet, as documented for it.
TWISTCHECK_TOLS = {
    "embed_roundtrip": 1e-8,
    "extend_roundtrip": 1e-8,
    "section_roundtrip": 1e-7,
    "seam_residual": 1e-7,
    "rotation_equivariance": 1e-6,
}
UNITARY_TOL = 1e-10      # holonomy reported as a unitary matrix
LOOP_UNITARY_TOL = 1e-8  # reconstructed loops (the CLI's own certificate)
VARIATION_TOL = 1e-6     # g^-1 g_hat and reduced transitions are constant
EIGEN_TOL = 1e-8         # reduced constants are conjugate to their U_e
PHASE_TOL = 1e-6         # RK4 holonomy phases against their closed forms


class OracleMiss(Exception):
    """A report disagrees with what its inputs imply."""


def _require(ok, message):
    if not ok:
        raise OracleMiss(message)


def _within(value, tol, what):
    _require(value <= tol, f"{what} = {value:.3e} exceeds {tol:.1e}")
    return value


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the oracle its report must pass.

    `check(report, expected)` returns the worst oracle error it measured and
    raises OracleMiss on a miss.
    """

    label: str
    argv: tuple
    check: object
    expected: dict


@dataclass(frozen=True)
class Workload:
    name: str
    in_process: bool
    prepare: object  # prepare(workdir, seed, tiny) -> list of Command


def _pairs(values):
    """Complex array -> nested [re, im] lists, as the CLI reports write them."""
    a = np.asarray(values, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _complex(pairs):
    a = np.asarray(pairs, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _write_json(path, data):
    Path(path).write_text(json.dumps(data))
    return str(path)


def _commands(workdir, *commands):
    """Write every command's expected values to expected.json."""
    _write_json(Path(workdir) / "expected.json",
                {c.label: c.expected for c in commands})
    return list(commands)


def _grid(mcoeffs, N):
    """Values of sum_k A_k e^{ik theta} at theta_j = 2 pi j / N."""
    n = next(iter(mcoeffs.values())).shape[0]
    bins = np.zeros((N, n, n), dtype=complex)
    for k, A in mcoeffs.items():
        bins[k % N] += A
    return np.fft.ifft(bins, axis=0) * N


def _alias_free_grid(*coeff_sets):
    """A power-of-two grid that resolves a product of the given loops."""
    reach = sum(max(abs(k) for k in c) for c in coeff_sets)
    N = 64
    while N <= 2 * reach + 1:
        N *= 2
    return N


def _haar_unitary(n, rng):
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))


# --- transport-nonabelian -------------------------------------------------

def check_su2_holonomy(report, expected):
    H = _complex(report["holonomy"])
    defect = float(np.linalg.norm(H.conj().T @ H - np.eye(H.shape[0])))
    _within(defect, UNITARY_TOL, "holonomy unitarity defect")
    return _within(report["refinement_delta"],
                   expected["refinement_delta_max"], "refinement_delta")


def check_twistcheck(report, expected):
    _require(report["all_ok"] is True and report["failures"] == [],
             f"twistcheck failures {report['failures']}")
    return max(_within(report["residuals"][key], tol, key)
               for key, tol in expected["tolerances"].items())


def prepare_transport_nonabelian(workdir, seed, tiny):
    N = 256 if tiny else 2048
    return _commands(
        workdir,
        Command("holonomy-su2sample",
                ("holonomy", "--preset", "su2sample", "--N", str(N),
                 "--no-meta"),
                check_su2_holonomy,
                # about 4e-13 at N = 2048, growing like N^-4 on coarser grids
                {"refinement_delta_max": 1e-7 if tiny else 1e-10}),
        Command("twistcheck-su2sample",
                ("twistcheck", "--preset", "su2sample", "--circle", "1.3",
                 "--N", str(N // 2), "--seed", str(seed), "--no-meta"),
                check_twistcheck,
                {"tolerances": TWISTCHECK_TOLS}))


# --- sweep-abelian ----------------------------------------------------------

def check_sweep(report, expected):
    _require(report["winding"] == expected["winding"],
             f"winding {report['winding']}, expected {expected['winding']}")
    with open(expected["csv"], newline="") as fh:
        rows = list(csv.reader(fh))
    exact = _complex(expected["holonomies"])
    _require(rows and rows[0] == ["s", "re", "im"], "bad CSV header")
    _require(len(rows) == len(exact) + 1,
             f"{len(rows) - 1} CSV rows, expected {len(exact)}")
    worst = 0.0
    for j, (s, re, im) in enumerate(rows[1:]):
        _require(float(s) == expected["s"][j], f"row {j} has s = {s}")
        h = complex(float(re), float(im))
        worst = max(worst,
                    _within(abs(abs(h) - 1.0), UNITARY_TOL,
                            f"|holonomy| - 1 at s = {s}"),
                    _within(abs(h - exact[j]), PHASE_TOL,
                            f"holonomy error at s = {s}"))
    return worst


def prepare_sweep_abelian(workdir, seed, tiny):
    N, M, q = (128, 16, 1) if tiny else (256, 64, 1)
    csv_path = str(Path(workdir) / "sweep.csv")
    s = [j / M for j in range(M + 1)]
    # the latitude at polar angle u = pi (1 - s) encloses solid angle
    # Omega = 2 pi (1 - cos u); the charge-q holonomy is exp(-i q Omega / 2)
    omega = [2.0 * math.pi * (1.0 - math.cos(math.pi * (1.0 - x))) for x in s]
    return _commands(
        workdir,
        Command("obstruction-monopole",
                ("obstruction", "--preset", "monopole", "--q", str(q),
                 "--N", str(N), "--M", str(M), "--csv", csv_path,
                 "--no-meta"),
                check_sweep,
                {"winding": q, "csv": csv_path, "s": s,
                 "holonomies": _pairs(np.exp(-0.5j * q * np.array(omega)))}))


# --- reconstruct --------------------------------------------------------------

def check_subspace_loop(report, expected):
    _require(report["status"] == "ok", f"status {report['status']}")
    _require(report["det_winding"] == 0,
             f"det_winding {report['det_winding']}")
    _within(report["unitarity_defect"], LOOP_UNITARY_TOL, "unitarity_defect")
    g = {int(k): _complex(A) for k, A in expected["g"].items()}
    g_hat = {int(k): _complex(A)
             for k, A in report["element"]["mcoeffs"].items()}
    N = _alias_free_grid(g, g_hat)
    # g and g_hat span the same window, so g^-1 g_hat = g^H g_hat is a
    # constant unitary
    P = np.einsum("tji,tjk->tik", _grid(g, N).conj(), _grid(g_hat, N))
    variation = float(np.linalg.norm(P - P.mean(axis=0), axis=(1, 2)).max())
    return _within(variation, VARIATION_TOL, "variation of g^-1 g_hat")


def check_audit(report, expected):
    _require(report["all_ok"] is True, "audit not all_ok")
    _require(report["audit"]["axioms_ok"] is True, "axioms not ok")
    reduction = report["reduction"]
    _require(reduction is not None and "constants" in reduction,
             "no reduced cocycle")
    cocycle = _complex(expected["cocycle"])
    _require(len(reduction["constants"]) == len(cocycle),
             "one reduced constant per edge expected")
    worst = _within(reduction["max_variation"], VARIATION_TOL,
                    "max_variation")
    # each reduced constant is X^-1 U_e X for the window's fixed basis
    # rotation X, so its characteristic polynomial is that of U_e
    for C, U in zip(reduction["constants"], cocycle):
        gap = float(np.abs(np.poly(_complex(C)) - np.poly(U)).max())
        worst = max(worst, _within(gap, EIGEN_TOL,
                                   "eigenvalue mismatch of a constant"))
    return worst


def _rotated_random_loop(n, band, rng):
    """V . random_loop(n, band, seed=0) . W with seeded Haar unitaries V, W.

    random_loop's band, and so the work every command does on the loop,
    varies from seed to seed (by about 17% between the quartiles of this
    workload's iteration time); constant rotations change the loop with the
    seed but keep its band and sparsity.
    """
    from loopfiber import loopgroup

    V, W = (loopgroup.constant_element(_haar_unitary(n, rng))
            for _ in range(2))
    return loopgroup.multiply(
        V, loopgroup.multiply(loopgroup.random_loop(n, band, seed=0), W))


def prepare_reconstruct(workdir, seed, tiny):
    from loopfiber import decomp, fourier, loopgroup, subspaces

    rng = np.random.default_rng(seed)
    n, depth, band = (2, 3, 2) if tiny else (3, 8, 4)
    g = _rotated_random_loop(n, band, rng)
    frame = subspaces.orthonormalize(
        [loopgroup.apply(g, fourier.basis_loop(n, component=j, frequency=p))
         for p in range(depth + 1) for j in range(n)])
    frame_path = _write_json(Path(workdir) / "frame.json",
                             subspaces.frame_to_dict(frame))

    fam_depth, fam_band = (2, 1) if tiny else (3, 3)
    h = _rotated_random_loop(2, fam_band, rng)
    cocycle = [_haar_unitary(2, rng) for _ in range(4)]
    window = subspaces.FiltrationSubspace([h.column(j) for j in range(2)],
                                          fam_depth)
    h_inv = loopgroup.inverse(h)
    family = decomp.SubspaceFamily(
        points=tuple(range(4)),
        edges=tuple((i, (i + 1) % 4) for i in range(4)),
        psi=(window,) * 4,
        transitions=tuple(
            loopgroup.multiply(h, loopgroup.multiply(
                loopgroup.constant_element(U), h_inv))
            for U in cocycle))
    family_path = _write_json(Path(workdir) / "family.json",
                              decomp.family_to_dict(family))
    return _commands(
        workdir,
        Command("subspace-loop", ("subspace-loop", frame_path, "--no-meta"),
                check_subspace_loop,
                {"g": {str(k): _pairs(A) for k, A in g.mcoeffs.items()}}),
        Command("audit", ("audit", family_path, "--no-meta"),
                check_audit, {"cocycle": _pairs(cocycle)}))


# --- cold-cli -----------------------------------------------------------------

def check_abelian2d(report, expected):
    h = _complex(report["holonomy"])[0, 0]
    return _within(abs(h - complex(*expected["holonomy"])), PHASE_TOL,
                   "abelian2d holonomy error")


def check_project(report, expected):
    for part in ("plus", "minus"):
        _require(report[part] == expected[part],
                 f"{part} part differs from the input's coefficients")
    return max(_within(abs(report["norms"][key] - exact),
                       1e-12 * max(exact, 1.0), f"{key} norm error")
               for key, exact in expected["norms"].items())


def prepare_cold_cli(workdir, seed, tiny):
    n, band, B, r = 2, 8, 1.0, 1.0
    rng = np.random.default_rng(seed)
    coeffs = {k: rng.standard_normal((n, 2)).tolist()
              for k in range(-band, band + 1)}
    parts = {
        "input": coeffs,
        "plus": {k: c for k, c in coeffs.items() if k >= 0},
        "minus": {k: c for k, c in coeffs.items() if k < 0},
    }
    loop_path = _write_json(Path(workdir) / "loop.json",
                            {"n": n, "coeffs": coeffs})
    # Stokes: the counterclockwise circle's phase is the enclosed flux
    flux = B * math.pi * r * r
    return _commands(
        workdir,
        Command("holonomy-abelian2d",
                ("holonomy", "--preset", "abelian2d", "--N", "64",
                 "--no-meta"),
                check_abelian2d,
                {"holonomy": [math.cos(flux), math.sin(flux)]}),
        Command("project", ("project", loop_path, "--no-meta"),
                check_project, {
                    "plus": {"n": n, "coeffs": {
                        str(k): c for k, c in parts["plus"].items()}},
                    "minus": {"n": n, "coeffs": {
                        str(k): c for k, c in parts["minus"].items()}},
                    "norms": {key: float(np.sqrt(sum(
                        np.sum(np.square(c)) for c in part.values())))
                        for key, part in parts.items()},
                }))


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("transport-nonabelian", True, prepare_transport_nonabelian),
    Workload("sweep-abelian", True, prepare_sweep_abelian),
    Workload("reconstruct", True, prepare_reconstruct),
    Workload("cold-cli", False, prepare_cold_cli),
)}
