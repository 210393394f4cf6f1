"""Shared helpers for the test suite."""

import numpy as np


def haar_unitary(n, rng):
    """Haar-distributed unitary via QR of a Ginibre matrix."""
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))
