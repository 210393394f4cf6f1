"""A fixed calibration kernel that measures how fast the host runs right now.

The benchmark's hosts are shared virtual machines whose speed drifts by tens
of percent over seconds to minutes, for the package and for any other code
alike.  The harness runs this kernel after every timed command (and once
before the first) and scales each command's time by REFERENCE_S over the
mean of the kernel times just before and after it, so a reported time is in
*calibrated seconds*: the time the sample would have taken on a host where
the kernel takes exactly REFERENCE_S.  The kernel uses no loopfiber code, so
a change to the package moves calibrated times by the same share as wall
times; only the host's drift is divided out.

The kernel mixes the kinds of work the workloads do: an interpreted Python
loop of small numpy calls (2x2 complex products and SVDs, as in the RK4
transport), dict building, a JSON round trip of a loop's coefficients (as in
reading and writing reports), and 3x3 inner products over a coefficient list
(as in the loop-space Gram matrices).  On the reconstruct workload, scaling
by this mix left less spread between 30-iteration medians than scaling by
any one part of it; a pure-Python loop alone tracked the host's drift worst.
"""

import json
import time

import numpy as np

# The kernel's median time on a 2-vCPU Intel Xeon KVM guest with
# Python 3.11 and numpy 2.4 built against OpenBLAS.
REFERENCE_S = 0.055
STEPS = 1500
BAND = 70

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((2, 2)) + 1j * _rng.standard_normal((2, 2))
_COEFFS = {str(k): _rng.standard_normal((3, 3, 2)).tolist()
           for k in range(-BAND, BAND + 1)}
_BLOCKS = [_rng.standard_normal((3, 3)) + 1j * _rng.standard_normal((3, 3))
           for _ in range(2 * BAND)]


def kernel():
    M = np.eye(2, dtype=complex)
    acc = 0.0
    for _ in range(STEPS):
        M = M @ _A * 0.5
        u, _, vh = np.linalg.svd(M)
        M = u @ vh
        acc += float(abs(M[0, 0]))
        acc += sum({str(j): j * 1.5 for j in range(20)}.values()) * 1e-9
    acc += len(json.loads(json.dumps(_COEFFS)))
    for i, X in enumerate(_BLOCKS):
        for Y in _BLOCKS[i % 7::7]:
            acc += abs(np.vdot(X, Y))
    return acc


def measure():
    """Wall seconds of one kernel run."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Scale:
    """Wall seconds to calibrated seconds, one sample after another.

    Call it with each sample's wall seconds right after the sample ends; the
    kernel runs then, and its time together with the previous kernel time
    (taken at construction, or after the previous sample) brackets the sample.
    """

    def __init__(self):
        self.before = measure()
        self.kernel_s = [self.before]

    def __call__(self, seconds):
        after = measure()
        self.kernel_s.append(after)
        factor = REFERENCE_S / ((self.before + after) / 2.0)
        self.before = after
        return seconds * factor
