"""FFT-accelerated products for block-convolution matrices.

A block grid is fixed by its band: ``matrices.band_blocks`` extends the
distinct blocks to the length ``k + l - 1`` band, the same band the
build tiles into the dense entries.  A matrix-vector product is then a
block convolution: embed the band in a circulant sequence of length
L >= k + l - 1, FFT along the block axis, multiply blockwise in the
frequency domain, and invert.  The adjoint is the correlation with the
same sequence, so it multiplies by the conjugate transposed spectrum.
``structured_operator`` transforms the band once, when it is made, and
reads a column straight off the band.  ``dense_matvec`` is the exact
oracle the fast path is tested against.

The bench decodes a trial through ``structured_operator`` once its
matrix reaches ``bench.FFT_MIN_ENTRIES`` entries, and through
``dense_operator`` below that.  The CLI decodes with ``dense_operator``,
which is also what ``basis_pursuit`` and ``omp`` wrap a plain array in.
"""

from __future__ import annotations

import numpy as np

from .matrices import (
    BlockStructureSpec,
    MatrixKind,
    SensingMatrix,
    band_blocks,
    distinct_blocks,
)

__all__ = [
    "LinearOperator",
    "UnsupportedStructureError",
    "dense_matvec",
    "fast_matvec",
    "fast_adjoint_matvec",
    "dense_operator",
    "structured_operator",
]

FAST_KINDS = (
    MatrixKind.TOEPLITZ_BLOCK,
    MatrixKind.CIRCULANT_BLOCK,
    MatrixKind.CIRCULANT_CIRCULANT,
)


class UnsupportedStructureError(ValueError):
    """Raised when a spec kind has no FFT fast path."""


class LinearOperator:
    """A forward map R^N -> R^n with its adjoint, dims explicit.

    ``backend`` records which implementation backs the maps ("fft" or
    "dense"); a structured operator falls back to "dense" when the spec
    kind has no fast path.  Maps accept 1-D vectors or 2-D (dim, batch)
    arrays and are pure, so one operator can be shared across threads.
    ``column`` is derived from the forward map; the dense and FFT
    operators read it off their array and band instead.  The homotopy in
    ``basis_pursuit`` forms the Gram matrix of the active columns only, so
    no operator forms A A^T.
    """

    def __init__(self, shape, forward, adjoint, backend="dense"):
        self.shape = tuple(shape)
        self._forward = forward
        self._adjoint = adjoint
        self.backend = backend

    def forward(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[0] != self.shape[1]:
            raise ValueError(f"forward expects length {self.shape[1]}, got {x.shape[0]}")
        return self._forward(x)

    def adjoint(self, y):
        y = np.asarray(y, dtype=float)
        if y.shape[0] != self.shape[0]:
            raise ValueError(f"adjoint expects length {self.shape[0]}, got {y.shape[0]}")
        return self._adjoint(y)

    def column(self, j: int) -> np.ndarray:
        """The column A[:, j]: the forward of the unit vector e_j."""
        e = np.zeros(self.shape[1])
        e[j] = 1.0
        return self.forward(e)


class _DenseOperator(LinearOperator):
    """A held array: a column is read off it directly, with the same bits
    as the generic unit-vector product."""

    def __init__(self, entries: np.ndarray):
        super().__init__(entries.shape, forward=lambda x: entries @ x,
                         adjoint=lambda y: entries.T @ y, backend="dense")
        self.entries = entries

    def column(self, j: int) -> np.ndarray:
        return self.entries[:, j]


def dense_matvec(matrix, x) -> np.ndarray:
    """Exact dense product; the oracle for the fast path."""
    entries = matrix.entries if isinstance(matrix, SensingMatrix) else np.asarray(matrix)
    x = np.asarray(x, dtype=float)
    if x.shape[0] != entries.shape[1]:
        raise ValueError(
            f"dimension mismatch: matrix is {entries.shape}, x has length {x.shape[0]}"
        )
    return entries @ x


def _fft_len(x: int) -> int:
    """The least 2^a 3^b 5^c >= x: a length numpy's FFT transforms fast."""
    while True:
        rest = x
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return x
        x += 1


def _circular_apply(spectrum, x, length, blocks_out):
    """The first ``blocks_out`` blocks of the circular convolution, over
    ``length``, of a block sequence with the blocks of ``x``.

    ``spectrum`` (length // 2 + 1, p, q) is the sequence's rfft; ``x`` is
    a vector or a (dim, batch) array whose rows are blocks of q, padded
    with zeros to ``length`` blocks.
    """
    q = spectrum.shape[2]
    xb = x.reshape(x.shape[0] // q, q, -1)
    zhat = spectrum @ np.fft.rfft(xb, n=length, axis=0)
    z = np.fft.irfft(zhat, n=length, axis=0)[:blocks_out]
    return z.reshape(blocks_out * spectrum.shape[1], *x.shape[1:])


class _BandOperator(LinearOperator):
    """The block convolution of a grid's band, transformed once.

    ``y[i] = sum_j band[k - 1 + i - j] @ x[j]`` over block rows i < l and
    block columns j < k.  The band is embedded in a circulant sequence c
    of length L >= k + l - 1, ``c[t] = band[k - 1 + t]`` for t < l and
    ``c[L - s] = band[k - 1 - s]`` for 0 < s < k, which leaves the first
    l output blocks free of wraparound.  The forward multiplies by the
    rfft of c; the adjoint, ``x[j] = sum_i c[i - j]^T y[i]``, by its
    conjugate transpose, so both read the one spectrum made here.
    """

    def __init__(self, spec: BlockStructureSpec, blocks: np.ndarray):
        if spec.kind not in FAST_KINDS:
            raise UnsupportedStructureError(
                f"no fast path for kind {spec.kind.value}; use the dense fallback"
            )
        k, l, d, e = spec.k, spec.l, spec.d, spec.e
        band = band_blocks(np.asarray(blocks, dtype=float), spec.kind, k, l)
        L = _fft_len(k + l - 1)
        c = np.zeros((L, d, e))
        c[:l] = band[k - 1:]
        c[L - k + 1:] = band[:k - 1]
        spectrum = np.fft.rfft(c, axis=0)
        spectrum_h = np.ascontiguousarray(spectrum.conj().transpose(0, 2, 1))
        super().__init__(
            spec.shape,
            forward=lambda x: _circular_apply(spectrum, x, L, l),
            adjoint=lambda y: _circular_apply(spectrum_h, y, L, k),
            backend="fft",
        )
        self._band = band
        self._grid = (k, l, d, e)

    def column(self, j: int) -> np.ndarray:
        """A[:, j] read off the band: block column j // e, entry j % e of
        the band's blocks at offsets k - 1 - j // e onwards."""
        k, l, d, e = self._grid
        if not 0 <= j < k * e:
            raise IndexError(f"column {j} out of range for N={k * e}")
        jb, c = divmod(j, e)
        return self._band[k - 1 - jb:k - 1 - jb + l, :, c].reshape(l * d)


def fast_matvec(spec: BlockStructureSpec, blocks: np.ndarray, x) -> np.ndarray:
    """FFT product of a structured matrix with x, given its distinct blocks.

    ``blocks`` has shape (num_blocks, d, e) in block order (see
    ``distinct_blocks``).  One forward of the operator
    ``structured_operator`` makes, so it transforms the band for this
    call alone.  Matches the dense product to ~1e-15 relative, tested
    against 1e-10.
    """
    return _BandOperator(spec, blocks).forward(x)


def fast_adjoint_matvec(spec: BlockStructureSpec, blocks: np.ndarray, y) -> np.ndarray:
    """Adjoint of :func:`fast_matvec`: the transposed band convolution."""
    return _BandOperator(spec, blocks).adjoint(y)


def dense_operator(matrix) -> LinearOperator:
    """Operator view of a SensingMatrix or any array-like, as float."""
    return _DenseOperator(np.asarray(
        matrix.entries if isinstance(matrix, SensingMatrix) else matrix, dtype=float))


def structured_operator(matrix: SensingMatrix) -> LinearOperator:
    """Operator view of a sensing matrix, FFT-backed where supported.

    Kinds without a fast path (IID, doubly-nested blocks, deterministic,
    truncated matrices) get the dense fallback; ``backend`` reports
    which path was taken.  The FFT operator transforms the band here,
    once, and each apply reuses it.
    """
    spec = matrix.spec
    if spec.kind not in FAST_KINDS or matrix.is_truncated:
        return dense_operator(matrix)
    return _BandOperator(spec, distinct_blocks(matrix))
