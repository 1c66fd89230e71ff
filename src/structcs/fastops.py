"""FFT-accelerated products for block-convolution matrices.

A block grid is fixed by its band: ``matrices.band_blocks`` extends the
distinct blocks to the length ``k + l - 1`` band, the same band the
build tiles into the dense entries.  A matrix-vector product is then a
block convolution: embed the band in a circulant sequence of power-of-two
length >= k + l - 1, FFT along the block axis, multiply blockwise in the
frequency domain, and invert.  ``dense_matvec`` is the exact oracle the
fast path is tested against.

``structured_operator`` is library-only: the CLI and the bench decode
with ``dense_operator``, which is also what ``basis_pursuit`` and
``omp`` wrap a plain array in.
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
    ``column`` is derived from the forward map; the dense operator reads
    it off its array instead.  The homotopy in ``basis_pursuit`` forms the
    Gram matrix of the active columns only, so no operator forms A A^T.
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


def _next_pow2(x: int) -> int:
    return 1 << (x - 1).bit_length()


def _band_fft_matvec(band, k, l, d, e, x):
    """y[i] = sum_j band[i - j + k - 1] @ x[j], block rows i < l, cols j < k.

    ``band`` has shape (k + l - 1, d, e), indexed by band offset plus
    k - 1.  The band is embedded in a circulant sequence of length
    L = next power of two >= k + l - 1, which leaves the first l output
    blocks free of wraparound.
    """
    L = _next_pow2(k + l - 1)
    c = np.zeros((L, d, e))
    c[:l] = band[k - 1 :]
    if k > 1:
        c[L - k + 1 :] = band[: k - 1]
    squeeze = x.ndim == 1
    xb = x.reshape(k, e) if squeeze else x.reshape(k, e, -1)
    pad_shape = (L,) + xb.shape[1:]
    xp = np.zeros(pad_shape)
    xp[:k] = xb
    chat = np.fft.rfft(c, axis=0)
    xhat = np.fft.rfft(xp, axis=0)
    if squeeze:
        yhat = np.einsum("tde,te->td", chat, xhat)
    else:
        yhat = np.einsum("tde,teb->tdb", chat, xhat)
    y = np.fft.irfft(yhat, n=L, axis=0)[:l]
    return y.reshape(l * d) if squeeze else y.reshape(l * d, -1)


def _check_fast_kind(spec: BlockStructureSpec) -> None:
    if spec.kind not in FAST_KINDS:
        raise UnsupportedStructureError(
            f"no fast path for kind {spec.kind.value}; use the dense fallback"
        )


def fast_matvec(spec: BlockStructureSpec, blocks: np.ndarray, x) -> np.ndarray:
    """FFT product of a structured matrix with x, given its distinct blocks.

    ``blocks`` has shape (num_blocks, d, e) in block order (see
    ``distinct_blocks``).  Matches the dense product to ~1e-13 relative
    at desk sizes, tested against 1e-10.
    """
    _check_fast_kind(spec)
    x = np.asarray(x, dtype=float)
    if x.shape[0] != spec.N:
        raise ValueError(f"x has length {x.shape[0]}, expected {spec.N}")
    band = band_blocks(np.asarray(blocks), spec.kind, spec.k, spec.l)
    return _band_fft_matvec(band, spec.k, spec.l, spec.d, spec.e, x)


def fast_adjoint_matvec(spec: BlockStructureSpec, blocks: np.ndarray, y) -> np.ndarray:
    """Adjoint of :func:`fast_matvec`: the transposed band convolution."""
    _check_fast_kind(spec)
    y = np.asarray(y, dtype=float)
    if y.shape[0] != spec.n:
        raise ValueError(f"y has length {y.shape[0]}, expected {spec.n}")
    # the transpose is the reversed band of transposed blocks
    band = band_blocks(np.asarray(blocks), spec.kind, spec.k, spec.l)
    band_t = band[::-1].transpose(0, 2, 1)
    return _band_fft_matvec(band_t, spec.l, spec.k, spec.e, spec.d, y)


def dense_operator(matrix) -> LinearOperator:
    """Operator view of a SensingMatrix or any array-like, as float."""
    return _DenseOperator(np.asarray(
        matrix.entries if isinstance(matrix, SensingMatrix) else matrix, dtype=float))


def structured_operator(matrix: SensingMatrix) -> LinearOperator:
    """Operator view of a sensing matrix, FFT-backed where supported.

    Kinds without a fast path (IID, doubly-nested blocks, deterministic,
    truncated matrices) get the dense fallback; ``backend`` reports
    which path was taken.
    """
    spec = matrix.spec
    if spec.kind not in FAST_KINDS or matrix.is_truncated:
        return dense_operator(matrix)
    blocks = distinct_blocks(matrix)
    return LinearOperator(
        matrix.shape,
        forward=lambda x: fast_matvec(spec, blocks, x),
        adjoint=lambda y: fast_adjoint_matvec(spec, blocks, y),
        backend="fft",
    )
