"""Construction of IID and block-structured sensing matrices.

A matrix is described by a declarative :class:`BlockStructureSpec` and
materialized as a :class:`SensingMatrix`: the dense entries plus their
spec.  Its ``var_id`` array, derived from the spec on first use, records
which underlying scalar random variable each entry is a copy of.
Structural entry sharing (Toeplitz / circulant block repetition) is
therefore exact and queryable downstream, immune to floating-point
coincidences.

Layout conventions, 0-indexed.  With ``k`` block columns, ``l`` block
rows and blocks of shape ``d x e``:

* Toeplitz-block: the block at block position ``(i, j)`` is block number
  ``k - 1 + i - j``; the top-right block is block 0, the bottom-left
  block is ``k + l - 2``.  ``k + l - 1`` distinct blocks in total.
* Circulant-block: block number ``(k - 1 + i - j) % k``; ``k`` distinct
  blocks.  Indices wrap modulo ``k`` for any ``l`` (the displayed layout
  only needs ``l <= k + 1``; larger ``l`` repeats block rows, which we
  allow and flag as an extension).  The deterministic kind built by
  :mod:`structcs.devore` uses the same circulant numbering.
* IID is the ``1 x 1`` grid: one block covering the whole matrix.  An
  IID spec is stored in that form (``k = l = 1``, ``d = n``, ``e = N``)
  whatever ``k``, ``l``, ``d`` and ``e`` it was written with.
* Nested kinds place a circulant grid of scalar entries (or of IID
  sub-blocks) inside each outer block; distinct outer blocks are fresh
  samples of the inner structure.

Labels run block by block: block ``b`` owns labels ``b * per_block`` to
``(b + 1) * per_block - 1``.  The pool is one draw from one generator
seeded by the spec's seed, in label order: block ``b`` holds the values
drawn right after block ``b - 1``'s, and an outer block's inner blocks
follow one another the same way.

The build never forms labels.  The pool, reshaped, is the distinct
blocks; :func:`band_blocks`, the one place that knows the block
numbering, extends them to the length ``k + l - 1`` band with
``band[k - 1 + i - j]`` the block at ``(i, j)``, and one strided copy of
a sliding window over the band tiles the matrix.  An IID matrix is its
pool reshaped.  :func:`label_grid`, which ``var_id`` reads, is the same
layout applied to the label numbers ``0 .. distinct_label_count - 1``.
Going back, :func:`read_band` slices the band off a built matrix's top
block row and first block column, whatever its kind.
"""

from __future__ import annotations

import enum
import functools
import json
import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "MatrixKind",
    "DistributionKind",
    "EntryDistribution",
    "InnerSpec",
    "BlockStructureSpec",
    "check_int",
    "SensingMatrix",
    "sample_iid",
    "build_structured",
    "label_grid",
    "band_blocks",
    "from_blocks",
    "column_block_of",
    "read_band",
    "distinct_blocks",
    "distinct_label_count",
    "truncate_rows",
    "toeplitz_block_spec",
    "circulant_block_spec",
    "circulant_circulant_spec",
    "circulant_circulant_block_spec",
    "iid_spec",
    "spec_to_dict",
    "spec_from_dict",
    "spec_to_json",
    "spec_from_json",
]


class MatrixKind(str, enum.Enum):
    """Supported matrix layouts."""

    IID = "iid"
    TOEPLITZ_BLOCK = "toeplitz-block"
    CIRCULANT_BLOCK = "circulant-block"
    CIRCULANT_CIRCULANT = "circulant-circulant"
    CIRCULANT_CIRCULANT_BLOCK = "circulant-circulant-block"
    DETERMINISTIC = "deterministic"


def check_int(name: str, value) -> int:
    """``value`` as an int, or ValueError naming ``name`` if it is not
    integral.  numpy ints pass; a float, even 2.0, a string or a bool
    does not."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


class DistributionKind(str, enum.Enum):
    GAUSSIAN = "gaussian"
    BERNOULLI = "bernoulli"
    SPARSE_TERNARY = "sparse-ternary"


@dataclass(frozen=True)
class EntryDistribution:
    """Scalar entry distribution, normalized by the matrix row count.

    With ``n = scale_rows``: Gaussian entries are N(0, 1/n); Bernoulli
    entries are +-1/sqrt(n) with probability 1/2 each; sparse ternary
    entries are +-sqrt(3/n) with probability 1/6 each and 0 otherwise.
    All three give a column of n independent samples expected squared
    norm 1.
    """

    kind: DistributionKind
    scale_rows: int

    def __post_init__(self):
        object.__setattr__(self, "kind", DistributionKind(self.kind))
        object.__setattr__(self, "scale_rows", check_int("scale_rows", self.scale_rows))
        if self.scale_rows < 1:
            raise ValueError(f"scale_rows must be >= 1, got {self.scale_rows}")

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        n = self.scale_rows
        if self.kind is DistributionKind.GAUSSIAN:
            return rng.standard_normal(count) / math.sqrt(n)
        # the drawn face indexes a table of the values; the results are
        # bit for bit those of scaling the integer draw
        if self.kind is DistributionKind.BERNOULLI:
            v = 1 / math.sqrt(n)
            return np.array([-v, v]).take(rng.integers(0, 2, size=count))
        # sparse ternary: sextile draw, two faces carry the spikes
        w = math.sqrt(3.0 / n)
        return np.array([w, -w, 0, 0, 0, 0.0]).take(rng.integers(0, 6, size=count))


@dataclass(frozen=True)
class InnerSpec:
    """Dimensions of the structure nested inside each outer block."""

    kind: MatrixKind
    k: int
    l: int
    d: int
    e: int

    def __post_init__(self):
        object.__setattr__(self, "kind", MatrixKind(self.kind))
        for name in ("k", "l", "d", "e"):
            object.__setattr__(self, name, check_int(f"inner {name}", getattr(self, name)))
            if getattr(self, name) < 1:
                raise ValueError(f"inner {name} must be >= 1")
        if self.kind is not MatrixKind.CIRCULANT_BLOCK:
            raise ValueError("only circulant-block nesting is supported")

    @property
    def rows(self) -> int:
        return self.l * self.d

    @property
    def cols(self) -> int:
        return self.k * self.e


@dataclass(frozen=True)
class BlockStructureSpec:
    """Declarative description of a structured sensing matrix.

    ``k``: block columns, ``l``: block rows, ``d x e``: block shape, so
    the matrix is ``n x N`` with ``n = l*d`` and ``N = k*e``.  An IID
    spec is stored as its one ``n x N`` block (``k = l = 1``).  ``nested``
    is required for the two doubly-circulant kinds and must tile the
    outer block exactly.
    """

    kind: MatrixKind
    k: int
    l: int
    d: int
    e: int
    distribution: EntryDistribution
    seed: int
    nested: InnerSpec | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", MatrixKind(self.kind))
        for name in ("k", "l", "d", "e", "seed"):
            object.__setattr__(self, name, check_int(name, getattr(self, name)))
        for name in ("k", "l", "d", "e"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.kind is MatrixKind.IID:
            for name, value in dict(k=1, l=1, d=self.n, e=self.N).items():
                object.__setattr__(self, name, value)
        needs_nested = self.kind in (
            MatrixKind.CIRCULANT_CIRCULANT,
            MatrixKind.CIRCULANT_CIRCULANT_BLOCK,
        )
        if needs_nested:
            if self.nested is None:
                raise ValueError(f"{self.kind.value} requires a nested inner spec")
            if self.nested.rows != self.d or self.nested.cols != self.e:
                raise ValueError(
                    f"nested structure is {self.nested.rows}x{self.nested.cols} "
                    f"but outer blocks are {self.d}x{self.e}"
                )
            if self.kind is MatrixKind.CIRCULANT_CIRCULANT and (
                self.nested.d != 1 or self.nested.e != 1
            ):
                raise ValueError("circulant-circulant requires scalar inner blocks")
        elif self.nested is not None:
            raise ValueError(f"{self.kind.value} does not take a nested spec")

    @property
    def n(self) -> int:
        return self.l * self.d

    @property
    def N(self) -> int:
        return self.k * self.e

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.N)


@dataclass(frozen=True)
class SensingMatrix:
    """Materialized sensing matrix: its entries and the spec they follow.

    The entries hold the spec's first ``n`` rows, ``1 <= n <= spec.n``
    (fewer than ``spec.n`` for a truncated matrix), and all of its
    ``N`` columns.  Arrays are read-only and safe to share across
    threads.
    """

    entries: np.ndarray
    spec: BlockStructureSpec

    def __post_init__(self):
        rows, cols = self.spec.shape
        if self.entries.ndim != 2 or not (1 <= self.n <= rows and self.N == cols):
            raise ValueError(f"entries of shape {self.entries.shape} do not fit "
                             f"a {rows}x{cols} spec")
        self.entries.setflags(write=False)

    @functools.cached_property
    def var_id(self) -> np.ndarray:
        """``var_id[i, j]`` labels the scalar random variable copied into
        entry ``(i, j)``; equal labels imply bit-identical entries.  The
        spec's label grid cut to ``n`` rows, made on first use; read-only."""
        var_id = label_grid(self.spec)[: self.n]
        var_id.setflags(write=False)
        return var_id

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def N(self) -> int:
        return self.entries.shape[1]

    @property
    def is_truncated(self) -> bool:
        return self.entries.shape[0] != self.spec.n


# ---------------------------------------------------------------------------
# spec helpers


def iid_spec(rows, cols, dist_kind=DistributionKind.GAUSSIAN, seed=0):
    dist = EntryDistribution(DistributionKind(dist_kind), rows)
    return BlockStructureSpec(MatrixKind.IID, 1, 1, rows, cols, dist, seed)


def toeplitz_block_spec(k, l, d, e, dist_kind=DistributionKind.GAUSSIAN, seed=0):
    dist = EntryDistribution(DistributionKind(dist_kind), l * d)
    return BlockStructureSpec(MatrixKind.TOEPLITZ_BLOCK, k, l, d, e, dist, seed)


def circulant_block_spec(k, l, d, e, dist_kind=DistributionKind.GAUSSIAN, seed=0):
    dist = EntryDistribution(DistributionKind(dist_kind), l * d)
    return BlockStructureSpec(MatrixKind.CIRCULANT_BLOCK, k, l, d, e, dist, seed)


def circulant_circulant_spec(k, l, p, q, dist_kind=DistributionKind.GAUSSIAN, seed=0):
    """Circulant grid of k x l outer blocks, each a q x p circulant of scalars."""
    dist = EntryDistribution(DistributionKind(dist_kind), l * q)
    inner = InnerSpec(MatrixKind.CIRCULANT_BLOCK, p, q, 1, 1)
    return BlockStructureSpec(
        MatrixKind.CIRCULANT_CIRCULANT, k, l, q, p, dist, seed, nested=inner
    )


def circulant_circulant_block_spec(
    k1, l1, k2, l2, d2, e2, dist_kind=DistributionKind.GAUSSIAN, seed=0
):
    """Circulant grid of outer blocks, each a circulant grid of IID d2 x e2 blocks."""
    dist = EntryDistribution(DistributionKind(dist_kind), l1 * l2 * d2)
    inner = InnerSpec(MatrixKind.CIRCULANT_BLOCK, k2, l2, d2, e2)
    return BlockStructureSpec(
        MatrixKind.CIRCULANT_CIRCULANT_BLOCK,
        k1,
        l1,
        l2 * d2,
        k2 * e2,
        dist,
        seed,
        nested=inner,
    )


# ---------------------------------------------------------------------------
# layout


def _num_blocks(kind: MatrixKind, k: int, l: int) -> int:
    if kind is MatrixKind.TOEPLITZ_BLOCK:
        return k + l - 1
    return k


def _per_block(spec: BlockStructureSpec) -> int:
    """Number of distinct labels in one block."""
    if spec.nested is None:
        return spec.d * spec.e
    return spec.nested.k * spec.nested.d * spec.nested.e


def distinct_label_count(spec: BlockStructureSpec) -> int:
    """Number of independent scalar random variables behind the matrix."""
    return _num_blocks(spec.kind, spec.k, spec.l) * _per_block(spec)


def band_blocks(blocks: np.ndarray, kind: MatrixKind, k: int, l: int) -> np.ndarray:
    """The band of a grid of ``l`` block rows by ``k`` block columns:
    ``band[k - 1 + i - j]`` is the block at block position ``(i, j)``.

    ``blocks`` has shape (..., num_blocks, d, e) in block order.  A
    Toeplitz band is its blocks; every other kind numbers its blocks
    modulo ``k``, so its band repeats them.
    """
    if kind is MatrixKind.TOEPLITZ_BLOCK:
        return blocks
    return np.take(blocks, np.arange(k + l - 1) % k, axis=-3)


def _tile(band: np.ndarray, k: int) -> np.ndarray:
    """The (l*d) x (k*e) matrix of a band (..., k + l - 1, d, e), in one copy.

    A window of ``k`` blocks slides down the band; reversed, window ``i``
    is block row ``i`` from left to right.
    """
    *lead, length, d, e = band.shape
    rows = sliding_window_view(band, k, axis=-3)[..., ::-1]  # (..., l, d, e, k)
    tiled = np.ascontiguousarray(rows.swapaxes(-1, -2))
    return tiled.reshape(*lead, (length - k + 1) * d, k * e)


def _tile_blocks(blocks: np.ndarray, kind: MatrixKind, k: int, l: int) -> np.ndarray:
    """The grid of ``l`` block rows by ``k`` block columns whose distinct
    blocks, in block order, are ``blocks`` (..., num_blocks, d, e)."""
    return _tile(band_blocks(blocks, kind, k, l), k)


def _arrange(spec: BlockStructureSpec, pool: np.ndarray) -> np.ndarray:
    """The n x N layout of ``pool``, one value per label in label order:
    entry (i, j) is the pool value of the label that entry copies."""
    if spec.kind is MatrixKind.IID:
        return pool.reshape(spec.shape)
    if spec.nested is None:
        blocks = pool.reshape(-1, spec.d, spec.e)
    else:
        # each outer block is the tiled band of its own inner blocks
        inner = spec.nested
        leaves = pool.reshape(-1, inner.k, inner.d, inner.e)
        blocks = _tile_blocks(leaves, inner.kind, inner.k, inner.l)
    return _tile_blocks(blocks, spec.kind, spec.k, spec.l)


def label_grid(spec: BlockStructureSpec) -> np.ndarray:
    """The n x N label grid: entry (i, j) copies pool value ``grid[i, j]``.
    It is the build's layout applied to the label numbers."""
    return _arrange(spec, np.arange(distinct_label_count(spec), dtype=np.int64))


# ---------------------------------------------------------------------------
# building


def from_blocks(spec: BlockStructureSpec, blocks: np.ndarray) -> SensingMatrix:
    """The matrix of ``spec`` whose distinct blocks, in block order, are
    ``blocks`` (num_blocks, d, e); a nested spec's blocks are its outer
    blocks, each already holding its inner structure."""
    want = (_num_blocks(spec.kind, spec.k, spec.l), spec.d, spec.e)
    if np.shape(blocks) != want:
        raise ValueError(f"blocks of shape {np.shape(blocks)} do not fit {want} for this spec")
    return SensingMatrix(entries=_tile_blocks(blocks, spec.kind, spec.k, spec.l), spec=spec)


def _sample_pool(spec: BlockStructureSpec) -> np.ndarray:
    """One value per distinct label, in label order, drawn in one call
    from the generator seeded by ``[seed]``.  An IID spec is one block,
    so its entries are that draw in row-major order."""
    rng = np.random.default_rng([spec.seed])
    return spec.distribution.sample(rng, distinct_label_count(spec))


def build_structured(spec: BlockStructureSpec) -> SensingMatrix:
    """Materialize a spec into its entries.

    The block layout follows the module-level conventions; blocks are
    fresh IID samples that share entries only through structural
    repetition, which ``var_id`` records exactly.  The pool is laid out
    straight into the entries: no label is formed.
    """
    if spec.kind is MatrixKind.DETERMINISTIC:
        raise ValueError("deterministic matrices are built by structcs.devore")
    return SensingMatrix(entries=_arrange(spec, _sample_pool(spec)), spec=spec)


def sample_iid(rows: int, cols: int, dist: EntryDistribution, seed: int) -> SensingMatrix:
    """Fully independent rows x cols matrix; every var_id label distinct."""
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix dimensions must be >= 1, got {rows}x{cols}")
    spec = BlockStructureSpec(MatrixKind.IID, 1, 1, rows, cols, dist, seed)
    return build_structured(spec)


def column_block_of(spec: BlockStructureSpec, col: int) -> int:
    """Block column containing matrix column ``col``."""
    if not 0 <= col < spec.N:
        raise IndexError(f"column {col} out of range for N={spec.N}")
    return col // spec.e


def read_band(matrix: SensingMatrix) -> np.ndarray:
    """The band of a block matrix, shape (k + l - 1, d, e):
    ``band[k - 1 + i - j]`` is the block at block position ``(i, j)``.

    The top block row and the first block column hold the whole band,
    for every kind: ``band[k - 1 - j]`` is block ``(0, j)`` and
    ``band[k - 1 + i]`` is block ``(i, 0)``.  Both are read by slicing,
    so the band has the entries' bits.  Requires an untruncated matrix.
    """
    spec = matrix.spec
    if spec.kind is MatrixKind.IID:
        raise ValueError("an IID matrix has no repeated block structure")
    if matrix.is_truncated:
        raise ValueError("cannot read the band of a truncated matrix")
    k, l, d, e = spec.k, spec.l, spec.d, spec.e
    top = matrix.entries[:d].reshape(d, k, e).transpose(1, 0, 2)[::-1]
    left = matrix.entries[d:, :e].reshape(l - 1, d, e)
    return np.concatenate([top, left])


def distinct_blocks(matrix: SensingMatrix) -> np.ndarray:
    """The distinct block values, shape (num_blocks, d, e), in block order:
    the first ``num_blocks`` blocks of :func:`read_band`."""
    spec = matrix.spec
    return read_band(matrix)[: _num_blocks(spec.kind, spec.k, spec.l)]


def truncate_rows(matrix: SensingMatrix, rows: int) -> SensingMatrix:
    """Keep the first ``rows`` rows (a truncated block matrix).

    The spec is retained unchanged; ``is_truncated`` becomes true, the
    band can no longer be read off it, and its products are dense.
    """
    if not 1 <= rows <= matrix.n:
        raise ValueError(f"rows must be in 1..{matrix.n}, got {rows}")
    if rows == matrix.n:
        return matrix
    return SensingMatrix(entries=matrix.entries[:rows].copy(), spec=matrix.spec)


# ---------------------------------------------------------------------------
# JSON serialization


def spec_to_dict(spec: BlockStructureSpec) -> dict:
    nested = None
    if spec.nested is not None:
        inner = spec.nested
        nested = {"kind": inner.kind.value, "k": inner.k, "l": inner.l,
                  "d": inner.d, "e": inner.e}
    return {
        "kind": spec.kind.value,
        "k": spec.k,
        "l": spec.l,
        "d": spec.d,
        "e": spec.e,
        "nested": nested,
        "distribution": {
            "kind": spec.distribution.kind.value,
            "scale_rows": spec.distribution.scale_rows,
        },
        "seed": spec.seed,
    }


def spec_from_dict(data: dict) -> BlockStructureSpec:
    """Inverse of :func:`spec_to_dict`.  A non-object, a missing key or a
    value of the wrong type raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"spec must be a JSON object, got {type(data).__name__}")
    try:
        nested = data.get("nested")
        inner = None
        if nested is not None:
            inner = InnerSpec(MatrixKind(nested["kind"]), nested["k"], nested["l"],
                              nested["d"], nested["e"])
        dist = EntryDistribution(
            DistributionKind(data["distribution"]["kind"]),
            data["distribution"]["scale_rows"],
        )
        return BlockStructureSpec(
            MatrixKind(data["kind"]), data["k"], data["l"], data["d"], data["e"],
            dist, data["seed"], nested=inner,
        )
    except KeyError as exc:
        raise ValueError(f"spec is missing the key {exc.args[0]!r}") from None
    except TypeError as exc:
        raise ValueError(f"malformed spec: {exc}") from None


def spec_to_json(spec: BlockStructureSpec) -> str:
    return json.dumps(spec_to_dict(spec), indent=2, sort_keys=True)


def spec_from_json(text: str) -> BlockStructureSpec:
    return spec_from_dict(json.loads(text))
