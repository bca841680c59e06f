"""Empirical types and type classes for fixed-composition code analysis.

A type is the exact vector of symbol counts of one or several aligned
words; everything here is integer-exact (big-int multinomials, no float
counting).  Enumeration follows ascending lexicographic order of the
flattened count tensor, and ``compositions_array`` matches the generator
order row for row; the exponent solver's marginal-pinned lattice is an
ordered subsequence of it.

Type enumeration has one size rule: a request whose rows, at one byte
per cell, would exceed ``ENUM_BYTES`` raises ``ScaleGuardError`` before
anything is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import (
    ConstructionError,
    ScaleGuardError,
    ValidationError,
    check_count,
    check_symbols,
)
from .probability import Alphabet, JointDist, _check_entries, check_sizes

# Rows x cells of one enumeration, at one byte a count.  compositions_array
# holds only its result while it builds; a caller that converts the rows to
# float64 holds eight bytes a count.
ENUM_BYTES = 1 << 26


@dataclass(frozen=True)
class SymbolSequence:
    """A word over one alphabet, stored as a tuple of symbol indices."""

    alphabet: Alphabet
    symbols: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.symbols) == 0:
            raise ValidationError("SymbolSequence must have length >= 1")
        symbols = check_symbols(self.symbols, self.alphabet.size,
                                f"word over alphabet {self.alphabet.label!r}")
        if symbols.ndim != 1:
            raise ValidationError("SymbolSequence must be a 1-D word")
        object.__setattr__(self, "symbols", tuple(symbols.tolist()))

    def __len__(self) -> int:
        return len(self.symbols)

    def array(self) -> np.ndarray:
        return np.asarray(self.symbols, dtype=np.intp)


@dataclass(frozen=True)
class TypeVector:
    """Exact joint composition of aligned words: counts[cell] sums to n."""

    axes: tuple[Alphabet, ...]
    counts: np.ndarray = field(repr=False)
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "axes", tuple(self.axes))
        shape = tuple(a.size for a in self.axes)
        counts = np.asarray(self.counts)
        if counts.shape != shape:
            raise ValidationError(f"TypeVector: expected shape {shape}, got {counts.shape}")
        if not np.issubdtype(counts.dtype, np.integer):
            raise ValidationError("TypeVector: counts must be integers")
        counts = counts.astype(np.int64)
        _check_entries(counts, "TypeVector")
        check_count("TypeVector: n", self.n, 1)
        if int(counts.sum()) != self.n:
            raise ValidationError(
                f"TypeVector: counts sum {int(counts.sum())} != n {self.n}"
            )
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(a.label for a in self.axes)

    def to_joint(self) -> JointDist:
        return JointDist(self.axes, self.counts / self.n)


def empirical_type(seqs) -> TypeVector:
    """Joint type of one or more aligned words.

    The result's axes are the sequences' alphabets in the order given.
    """
    seqs = list(seqs)
    if not seqs:
        raise ValidationError("empirical_type: need at least one sequence")
    n = len(seqs[0])
    if any(len(s) != n for s in seqs):
        raise ValidationError("empirical_type: sequences must have equal length")
    axes = tuple(s.alphabet for s in seqs)
    shape = tuple(a.size for a in axes)
    flat = np.zeros(int(np.prod(shape)), dtype=np.int64)
    idx = np.ravel_multi_index(tuple(s.array() for s in seqs), shape)
    np.add.at(flat, idx, 1)
    return TypeVector(axes, flat.reshape(shape), n)


def _check_enum_bytes(num_cells: int, n: int) -> None:
    rows = compositions_count(num_cells, n)
    if rows * num_cells > ENUM_BYTES:
        raise ScaleGuardError(
            f"enumerating {rows} types over {num_cells} cells at denominator "
            f"{n} needs {rows * num_cells} bytes, over the {ENUM_BYTES}-byte "
            "enumeration budget"
        )


def _compositions(num_cells: int, total: int) -> Iterator[tuple[int, ...]]:
    if num_cells == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(num_cells - 1, total - first):
            yield (first,) + rest


def enumerate_types(n: int, axes) -> Iterator[TypeVector]:
    """Lazily yield every type with denominator n over the product alphabet.

    Order is ascending lexicographic in the flattened count tensor, so the
    first type is all mass on the last cell.  Deterministic by design; the
    solver's array enumeration mirrors this order exactly.
    """
    axes = tuple(axes)
    check_count("enumerate_types: n", n, 1)
    shape = tuple(a.size for a in axes)
    num_cells = int(np.prod(shape))
    _check_enum_bytes(num_cells, n)
    for flat in _compositions(num_cells, n):
        counts = np.asarray(flat, dtype=np.int64).reshape(shape)
        yield TypeVector(axes, counts, n)


def enumerate_lattice(denominator: int, axes) -> Iterator[JointDist]:
    """Rational-grid joint distributions: every type / denominator."""
    for t in enumerate_types(denominator, axes):
        yield t.to_joint()


def compositions_count(num_cells: int, total: int) -> int:
    return math.comb(total + num_cells - 1, num_cells - 1)


def compositions_array(num_cells: int, total: int) -> np.ndarray:
    """All compositions of ``total`` into ``num_cells`` parts as a uint8
    matrix, rows in the same ascending lexicographic order as
    ``enumerate_types``.

    Filled in place, column by column: a run of rows whose earlier columns
    are fixed holds the compositions of what remains into the later
    columns.  The first run of each (column, remainder) is filled value by
    value; every later one is copied from it once all columns are done, so
    nothing but the result is held.
    """
    if total > 255:
        raise ValidationError("compositions_array: total too large for uint8")
    _check_enum_bytes(num_cells, total)
    out = np.empty((compositions_count(num_cells, total), num_cells),
                   dtype=np.uint8)
    runs = [(0, total)]  # (first row, remainder) at column j
    copies = []
    for j in range(num_cells - 1):
        first, nxt = {}, []
        for lo, rem in runs:
            if rem in first:
                copies.append((j, first[rem], lo,
                               compositions_count(num_cells - j, rem)))
                continue
            first[rem] = lo
            for v in range(rem + 1):
                rows = compositions_count(num_cells - j - 1, rem - v)
                out[lo:lo + rows, j] = v
                nxt.append((lo, rem - v))
                lo += rows
        runs = nxt
    for lo, rem in runs:
        out[lo, -1] = rem
    # a run copied at column j may hold runs copied at later columns
    for j, src, dst, rows in reversed(copies):
        out[dst:dst + rows, j:] = out[src:src + rows, j:]
    return out


def xlogx_table(n: int) -> np.ndarray:
    """g * log2(g) for every count g = 0..n (0 log 0 = 0): entropies of
    types with denominator n are differences of sums over this table."""
    table = np.zeros(n + 1, dtype=np.float64)
    g = np.arange(1, n + 1, dtype=np.float64)
    table[1:] = g * np.log2(g)
    return table


def code_places(radix: int, cells: int) -> np.ndarray:
    """(W, cells) place values that code a row of digits below ``radix`` as
    W int64 words.

    Word w holds a run of consecutive cells as radix digits, first cell most
    significant, as many cells as every such code fits in int64.  Summing a
    row's digits times their places gives its code, and ascending codes are
    ascending rows in lexicographic order.  The codebook tally codes count
    rows of n symbols in radix n + 1; the decoder codes received words in
    radix |Z|.
    """
    per_word = 1
    while per_word < cells and radix ** (per_word + 1) <= 1 << 63:
        per_word += 1
    place = np.zeros((-(-cells // per_word), cells), dtype=np.int64)
    for c in range(cells):
        w = c // per_word
        place[w, c] = radix ** (min(cells, (w + 1) * per_word) - 1 - c)
    return place


def distinct_rows(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of z in ascending lexicographic order (first column
    most significant) and the index of each row among them.

    Rows of any length and integer dtype sort exactly on their columns.
    The codebook tally and the decoder pass rows already packed into int64
    code words (``code_places``), so a row of one word takes one argsort.
    """
    # equal rows share their index, so the unstable sort's tie order is moot
    order = (np.argsort(z[:, 0]) if z.shape[1] == 1
             else np.lexsort(z.T[::-1]))
    ordered = z[order]
    first = np.ones(z.shape[0], dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(z.shape[0], dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse


def type_class_size(t: TypeVector) -> int:
    """Number of aligned symbol arrangements with exactly this composition
    (an exact big-int multinomial coefficient)."""
    size = math.factorial(t.n)
    for c in t.counts.ravel():
        size //= math.factorial(int(c))
    return size


def in_type_class(t: TypeVector, seqs) -> bool:
    """Exact membership: do these aligned words have joint type ``t``?"""
    seqs = list(seqs)
    if len(seqs) != len(t.axes):
        raise ValidationError("in_type_class: sequence count != axis count")
    if any(len(s) != t.n for s in seqs):
        return False
    e = empirical_type(seqs)
    check_sizes("in_type_class", e.axes, t.axes)
    return bool(np.array_equal(e.counts, t.counts))


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def sample_conditional_type_class(p_cond: TypeVector, u: SymbolSequence,
                                  rng) -> SymbolSequence:
    """Uniform draw from the conditional type class along a fixed word u.

    ``p_cond`` is a joint (U, X) type; within each u-section the mandated
    multiset of X symbols is placed by a uniformly random permutation,
    which makes every compatible word equally likely.  ``rng`` is either
    an integer seed or a numpy Generator.
    """
    if len(p_cond.axes) != 2:
        raise ValidationError("sample_conditional_type_class: p_cond must be (U, X)")
    if len(u) != p_cond.n:
        raise ValidationError("sample_conditional_type_class: u length != type n")
    check_sizes("sample_conditional_type_class: u", (u.alphabet,), p_cond.axes[:1])
    rng = _as_rng(rng)
    u_arr = u.array()
    u_counts = np.bincount(u_arr, minlength=u.alphabet.size)
    if not np.array_equal(u_counts, p_cond.counts.sum(axis=1)):
        raise ConstructionError(
            "sample_conditional_type_class: the conditional counts are "
            "infeasible along this u (its tally does not match the type's "
            "U-marginal)"
        )
    out = np.empty(p_cond.n, dtype=np.intp)
    for a in range(u.alphabet.size):
        positions = np.flatnonzero(u_arr == a)
        if positions.size == 0:
            continue
        section = np.repeat(np.arange(p_cond.axes[1].size), p_cond.counts[a])
        out[positions] = rng.permutation(section)
    return SymbolSequence(p_cond.axes[1], out)
