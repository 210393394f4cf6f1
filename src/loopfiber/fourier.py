"""Truncated Fourier representation of vector-valued loops on the circle.

A smooth loop in C^n is approximated by a trigonometric polynomial

    a(theta) = sum_k c_k e^{i k theta},      c_k in C^n,

stored as a dense band: the lowest frequency kmin and one coefficient block
per frequency of the contiguous window kmin..kmax.  Matrix loops
(loopgroup.LoopGroupElement) share the same storage with (n, n) blocks.
The circle carries total measure 1, so the constant loop e_1 has norm 1 and
the integral pairing becomes the Parseval sum over shared frequencies.  The
pairing is conjugate-linear in its FIRST argument throughout the package.

Frequency bands grow exactly under arithmetic (shifts reindex, products
convolve); nothing is ever silently truncated.
"""

from itertools import chain
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

__all__ = [
    "TruncatedLoop",
    "constant_loop",
    "basis_loop",
    "inner_product",
    "norm",
    "shift",
    "project_plus",
    "project_minus",
    "evaluate",
    "evaluate_grid",
    "from_grid_samples",
    "scalar_multiply",
    "loop_to_dict",
    "loop_from_dict",
]

# Widest band a {frequency: block} dict may span: bands are stored densely, so
# two far-apart keys in an input file would allocate every block in between.
MAX_BAND_WIDTH = 2 ** 20


def _check_band(kmin, width):
    """ValueError if the band of `width` frequencies from kmin is wider than
    MAX_BAND_WIDTH."""
    if width > MAX_BAND_WIDTH:
        raise ValueError(
            f"band [{kmin}, {kmin + width - 1}] spans {width} "
            f"frequencies, more than {MAX_BAND_WIDTH}")


class _BandedLoop:
    """Trigonometric polynomial sum_k data[k - kmin] e^{ik theta}.

    Subclasses fix the coefficient block: (n,) vectors or (n, n) matrices.
    The band is trimmed (its first and last blocks are nonzero; zero blocks
    inside it stay), `data` is read-only, and every block is finite.  The
    zero loop has kmin 0 and no blocks.
    """

    _block_ndim = None  # 1 for vector coefficients, 2 for matrices

    def __init__(self, n, coeffs=MappingProxyType({})):
        """Build from a {frequency: block} dict; absent frequencies are 0."""
        block = (n,) * self._block_ndim
        ks = [int(k) for k in coeffs]
        kmin = min(ks, default=0)
        width = max(ks, default=kmin - 1) - kmin + 1
        _check_band(kmin, width)
        data = np.zeros((width,) + block, dtype=complex)
        if ks:
            # Python-int offsets: a lone key such as 10**30 overflows int64
            data[[k - kmin for k in ks]] = _stack_blocks(coeffs, block)
        self._set_band(n, kmin, data)

    @classmethod
    def from_band(cls, n, kmin, data):
        """The loop with coefficient data[i] at frequency kmin + i."""
        loop = cls.__new__(cls)
        loop._set_band(n, kmin, data)
        return loop

    @classmethod
    def _from_spectrum(cls, spec):
        """The loop of an FFT spectrum divided by its length N: bin m holds
        frequency m, or m - N from m = (N + 1) // 2 on."""
        N = len(spec)
        return cls.from_band(spec.shape[1], -(N // 2),
                             np.roll(spec, N // 2, axis=0))

    def _set_band(self, n, kmin, data):
        if n < 1:
            raise ValueError(f"dimension must be >= 1, got {n}")
        block = (n,) * self._block_ndim
        data = np.array(data, dtype=complex)  # a private copy, frozen below
        if data.shape[1:] != block:
            raise ValueError(
                f"coefficient blocks have shape {data.shape[1:]}, "
                f"expected {block}")
        if not np.isfinite(data).all():
            raise ValueError("coefficients must be finite (NaN or inf found)")
        nonzero = np.flatnonzero(data.any(axis=tuple(range(1, data.ndim))))
        if nonzero.size:
            kmin += int(nonzero[0])
            data = data[nonzero[0]:nonzero[-1] + 1]
        else:
            kmin, data = 0, data[:0]
        data.setflags(write=False)
        self.n, self.kmin, self.data = n, int(kmin), data

    def _nonzero_blocks(self):
        """Read-only {frequency: block} mapping of the nonzero blocks."""
        return MappingProxyType({self.kmin + i: c
                                 for i, c in enumerate(self.data) if c.any()})

    @property
    def band(self):
        """Frequency window (kmin, kmax); (0, 0) for the zero loop."""
        return (self.kmin, self.kmin + max(len(self.data) - 1, 0))

    def evaluate(self, theta):
        """Values sum_k c_k e^{ik theta} at scalar or array theta, shape
        theta.shape + block; ValueError for a band past |k| = 2**53."""
        kmin, kmax = self.band
        if max(-kmin, kmax) > 2 ** 53:
            raise ValueError(f"band [{kmin}, {kmax}] reaches past |k| = 2**53")
        th = np.asarray(theta, dtype=float)
        ks = np.arange(kmin, kmin + len(self.data))
        return np.tensordot(np.exp(1j * th[..., None] * ks), self.data, axes=1)

    def grid_samples(self, N):
        """Exact values at theta_j = 2 pi j / N, shape (N,) + block, by FFT
        binning: folding frequencies mod N keeps the grid values for any N."""
        bins = np.zeros((N,) + self.data.shape[1:], dtype=complex)
        ks = self.kmin % N + np.arange(len(self.data))  # kmin may exceed int64
        np.add.at(bins, ks % N, self.data)
        return np.fft.ifft(bins, axis=0) * N


def _stack_blocks(coeffs, block):
    """The blocks of a {frequency: block} dict as one (len, *block) array;
    ValueError naming the first block of another shape."""
    try:
        blocks = np.asarray(list(coeffs.values()), dtype=complex)
    except (TypeError, ValueError):
        blocks = None
    if blocks is None or blocks.shape[1:] != block:
        for k, c in coeffs.items():  # per key, only to name the bad one
            shape = np.asarray(c, dtype=complex).shape
            if shape != block:
                raise ValueError(f"coefficient at k={k} has shape {shape}, "
                                 f"expected {block}")
    return blocks


def _convolve(ka, A, kb, B):
    """Band (kmin, blocks) of (sum_k A_k z^k)(sum_l B_l z^l), blocks matmul'd.

    Output entry (i, k) is sum_j np.convolve(A[:, i, j], B[:, j, k]): direct
    sums with no FFT, exact up to rounding, so a block whose products all
    vanish comes out exactly zero and trims."""
    n, m, p = A.shape[1], A.shape[2], B.shape[2]
    if not (len(A) and len(B)):
        return ka + kb, np.zeros((0, n, p), dtype=complex)
    out = np.zeros((len(A) + len(B) - 1, n, p), dtype=complex)
    for i, k in np.ndindex(n, p):
        for j in range(m):
            out[:, i, k] += np.convolve(A[:, i, j], B[:, j, k])
    return ka + kb, out


class BandStack(NamedTuple):
    """m loops padded into one band: column i of data[k - kmin] is c_k of
    loop i, so data has shape (width, n, m).  Not trimmed."""

    n: int
    kmin: int
    data: np.ndarray


def stack_columns(loops):
    """The BandStack of loops over the hull of their bands."""
    kmin = min(a.band[0] for a in loops)
    kmax = max(a.band[1] for a in loops)
    data = np.zeros((kmax - kmin + 1, loops[0].n, len(loops)), dtype=complex)
    for i, a in enumerate(loops):
        start = a.kmin - kmin
        data[start:start + len(a.data), :, i] = a.data
    return BandStack(loops[0].n, kmin, data)


class TruncatedLoop(_BandedLoop):
    """A C^n-valued trigonometric polynomial as a dense band: data has shape
    (width, n); `coeffs` is a read-only {k: c_k} view of the nonzero c_k."""

    _block_ndim = 1
    coeffs = property(_BandedLoop._nonzero_blocks)

    def __add__(self, other):
        if not isinstance(other, TruncatedLoop):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        both = stack_columns([self, other])
        return TruncatedLoop.from_band(self.n, both.kmin, both.data.sum(axis=2))

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, scalar):
        if isinstance(scalar, TruncatedLoop):
            return NotImplemented
        return TruncatedLoop.from_band(self.n, self.kmin,
                                       complex(scalar) * self.data)

    __rmul__ = __mul__

    def __neg__(self):
        return (-1.0) * self


def constant_loop(vector):
    """The constant loop with value `vector`."""
    v = np.asarray(vector, dtype=complex)
    return TruncatedLoop(v.shape[0], {0: v})


def basis_loop(n, component=0, frequency=0, amplitude=1.0):
    """Return amplitude * z^frequency * e_component."""
    v = np.zeros(n, dtype=complex)
    v[component] = amplitude
    return TruncatedLoop(n, {frequency: v})


def inner_product(a, b):
    """Parseval pairing sum_k a_k^H b_k, conjugate-linear in `a`.

    Loops pair to a scalar; a BandStack pairs column by column, so two
    stacked frames give their cross-Gram matrix.
    """
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    lo = max(a.kmin, b.kmin)
    hi = max(lo, min(a.kmin + len(a.data), b.kmin + len(b.data)))
    return np.tensordot(a.data[lo - a.kmin:hi - a.kmin].conj(),
                        b.data[lo - b.kmin:hi - b.kmin],
                        axes=([0, 1], [0, 1]))[()]


def norm(a):
    return float(np.linalg.norm(a.data))


def shift(a, p):
    """Multiply by z^p: coefficients reindex k -> k + p, band shifts by p."""
    return type(a).from_band(a.n, a.kmin + p, a.data)


def project_plus(a):
    """Keep frequencies k >= 0 (the Hardy-type nonnegative part)."""
    cut = max(-a.kmin, 0)
    return TruncatedLoop.from_band(a.n, a.kmin + cut, a.data[cut:])


def project_minus(a):
    """Keep frequencies k < 0, the complement of project_plus."""
    return TruncatedLoop.from_band(a.n, a.kmin, a.data[:max(-a.kmin, 0)])


# the module-level forms of the shared band methods
evaluate = _BandedLoop.evaluate
evaluate_grid = _BandedLoop.grid_samples


def from_grid_samples(samples):
    """Recover the loop with band [-N/2, N/2-1] from N uniform grid samples.

    Inverse of evaluate_grid whenever the original band fits inside
    [-N/2, N/2-1].  samples has shape (N, n).
    """
    samples = np.asarray(samples, dtype=complex)
    N, _ = samples.shape
    return TruncatedLoop._from_spectrum(np.fft.fft(samples, axis=0) / N)


def scalar_multiply(f, a):
    """Pointwise product f(theta) a(theta) for scalar f (the module action).

    Coefficients convolve, so the band grows exactly from band(f) + band(a).
    """
    if f.n != 1:
        raise ValueError(f"scalar factor must have n=1, got n={f.n}")
    kmin, out = _convolve(a.kmin, a.data[..., None], f.kmin, f.data[..., None])
    return TruncatedLoop.from_band(a.n, kmin, out[..., 0])


def _to_pairs(a):
    """Complex array -> nested lists ending in [re, im] pairs, bit-exact."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _read_leaves(values, shape):
    """The leaves of `values`, nested lists each of `shape`, as one float
    array; None unless every list has its length and every leaf is a JSON
    number (an int or a float, not a bool)."""
    items = values
    try:
        for size in shape:
            if set(map(len, items)) - {size}:
                return None
            items = list(chain.from_iterable(items))
    except TypeError:  # a leaf where a list belongs
        return None
    if set(map(type, items)) - {int, float}:
        return None
    return np.fromiter(items, dtype=float, count=len(items))


def _name_bad_block(pairs, block):
    """Raise the ValueError naming the first frequency of a {"k": pairs}
    dict whose block is not nested [re, im] pairs of numbers of `block`."""
    for k, v in pairs.items():
        what = f"coefficient at k={k}"
        try:  # ragged lists, or a leaf float() refuses, such as a dict
            shape = np.asarray(v, dtype=float).shape
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{what} is not [re, im] pairs") from exc
        if shape[-1:] != (2,):
            raise ValueError(f"{what} is not [re, im] pairs")
        if shape[:-1] != block:
            raise ValueError(
                f"{what} has shape {shape[:-1]}, expected {block}")
        if _read_leaves([v], block + (2,)) is None:
            raise ValueError(f"{what} holds a value that is not a number")


def _blocks_to_pairs(a):
    """{"k": nested [re, im] lists} of the nonzero blocks of the banded loop
    `a`, in one conversion; bit-exact."""
    keep = np.flatnonzero(a.data.any(axis=tuple(range(1, a.data.ndim))))
    # Python-int frequencies: kmin may be far outside int64
    return dict(zip([str(a.kmin + i) for i in keep.tolist()],
                    _to_pairs(a.data[keep])))


def _bands_from_pairs(dicts, n, block_ndim):
    """(kmin, data) of coefficient dicts {"k": nested [re, im] lists}, read
    in one pass: data[k - kmin][..., j] is the block of dicts[j] at k, with
    shape (n,) * block_ndim, over the hull of the dicts' trimmed bands.

    Bit-exact, and equal to stacking the loops each dict gives on its own:
    a block outside its own dict's trimmed band reads as +0.  A repeated
    frequency ("1", "01", "+1") keeps its last block.  ValueError, naming the
    frequency where one is at fault, unless every leaf is a JSON number in
    a block of the right shape, or when the hull is wider than
    MAX_BAND_WIDTH.  NaN and inf are left to the constructor that takes
    the band (_BandedLoop._set_band, subspaces._frozen) to refuse.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    block = (n,) * block_ndim
    if not all(isinstance(d, dict) for d in dicts):
        raise ValueError("coefficients must map frequencies to [re, im] pairs")
    keys = list(chain.from_iterable(dicts))
    values = list(chain.from_iterable(map(dict.values, dicts)))
    # Frequencies are Python ints, each spelling ("1", "01", "+1") read
    # once: a lone key such as 10**30 overflows int64, so the arrays below
    # hold each frequency's rank among the distinct ones.
    spellings = list(set(keys))
    frequencies = list(map(int, spellings))
    distinct = sorted(set(frequencies))
    index = dict(zip(distinct, range(len(distinct))))
    rank_of = dict(zip(spellings, map(index.__getitem__, frequencies)))
    rank = np.fromiter(map(rank_of.__getitem__, keys), dtype=np.intp,
                       count=len(keys))
    flat = _read_leaves(values, block + (2,))
    if flat is None:
        for d in dicts:  # per key, only to name the bad frequency
            _name_bad_block(d, block)
        raise ValueError("coefficients are not [re, im] pairs")
    blocks = flat.view(complex).reshape((len(values),) + block)
    column = np.repeat(np.arange(len(dicts)), list(map(len, dicts)))
    # the last block of each (column, frequency) is the first in reverse
    _, first = np.unique((column * len(distinct) + rank)[::-1],
                         return_index=True)
    kept = np.zeros(len(keys), dtype=bool)
    kept[len(keys) - 1 - first] = True
    live = kept & blocks.any(axis=tuple(range(1, blocks.ndim)))
    if not live.any():
        return 0, np.zeros((0,) + block + (len(dicts),), dtype=complex)
    # each column's trimmed band in ranks, (len(distinct), -1) if it is empty
    lo = np.full(len(dicts), len(distinct))
    np.minimum.at(lo, column[live], rank[live])
    hi = np.full(len(dicts), -1)
    np.maximum.at(hi, column[live], rank[live])
    first_rank, last_rank = int(lo.min()), int(hi.max())
    kmin = distinct[first_rank]
    width = distinct[last_rank] - kmin + 1
    _check_band(kmin, width)
    # the one Python-int subtraction: every frequency of the hull is within
    # MAX_BAND_WIDTH of kmin, and a key outside it is dropped
    offset = np.array([k - kmin for k in distinct[first_rank:last_rank + 1]])
    inside = kept & (lo[column] <= rank) & (rank <= hi[column])
    data = np.zeros((width,) + block + (len(dicts),), dtype=complex)
    data[offset[rank[inside] - first_rank], ..., column[inside]] = (
        blocks[inside])
    return kmin, data


def _integer(value, what):
    """`value` as an int; ValueError unless it is an integer, where int()
    would truncate 2.7 to 2 and read true as 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def loop_to_dict(a):
    """JSON-ready dict {"n": n, "coeffs": {"k": [[re, im] x n]}}."""
    return {"n": a.n, "coeffs": _blocks_to_pairs(a)}


def loop_from_dict(d):
    """Inverse of loop_to_dict; ValueError unless n is an integer and every
    coefficient a finite JSON number, or on a band wider than
    MAX_BAND_WIDTH."""
    n = _integer(d["n"], "n")
    kmin, data = _bands_from_pairs([d["coeffs"]], n, 1)
    return TruncatedLoop.from_band(n, kmin, data[..., 0])
