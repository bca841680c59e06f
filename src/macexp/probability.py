"""Finite probability primitives for two-sender channel analysis.

Everything here works in bits (base-2 logarithms) on dense numpy tensors.
Distributions are validated on construction: probabilities must be
nonnegative and sum to one.  A total mass within ``RENORM_TOL`` of one is
silently renormalized (accumulated float error from upstream arithmetic);
anything further off is rejected as a genuine mistake.

Joint distributions carry named axes.  All information measures
(conditional entropy, conditional mutual information, divergences) are
addressed by axis label so call sites read like the formulas they
implement.

``JointBatch`` evaluates many joints over the same axes at once, bit for
bit as the scalar functions evaluate each: it holds its probabilities
cell-major, so every marginal, renormalisation total and entropy is a few
additions of whole rows of joints, made in the order numpy sums one
C-ordered joint.  ``term_sums`` is numpy's pairwise order for one row of
terms, and the only code that writes it out: the totals, the entropies,
the decoder and the lattice build all sum through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import ValidationError, check_count, check_symbols

# Tolerance ladder.  EQ_TOL is for semantic equality checks between
# quantities that are computed along different float paths; RENORM_TOL
# bounds how much drift the constructors will repair silently.
EQ_TOL = 1e-10
RENORM_TOL = 1e-9


@dataclass(frozen=True)
class Alphabet:
    """A finite symbol set ``{0, ..., size-1}`` with a display label."""

    size: int
    label: str

    def __post_init__(self) -> None:
        check_count(f"alphabet {self.label!r} size", self.size, 1)
        if not self.label:
            raise ValidationError("alphabet label must be nonempty")

    def relabel(self, label: str) -> "Alphabet":
        """Same symbol set under a different axis label (e.g. a fresh copy
        of the X alphabet playing the competitor role X~)."""
        return Alphabet(self.size, label)


def check_sizes(what: str, got, want) -> None:
    """Refuse alphabets ``got`` unless their sizes are those of ``want``."""
    got, want = tuple(a.size for a in got), tuple(a.size for a in want)
    if got != want:
        raise ValidationError(f"{what}: alphabet sizes {got} do not match {want}")


def _check_entries(arr: np.ndarray, what: str) -> None:
    """Refuse a non-finite or negative entry of an array of probabilities
    (or of integer counts)."""
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        raise ValidationError(f"{what}: non-finite entries")
    if arr.dtype.kind in "fi" and (arr < 0).any():
        raise ValidationError(f"{what}: negative entries")


def _axis_indices(labels: tuple[str, ...], wanted) -> tuple[int, ...]:
    """The positions among the axis ``labels`` of the distinct labels
    ``wanted``."""
    wanted = tuple(wanted)
    idx = []
    for label in wanted:
        if label not in labels:
            raise ValidationError(f"no axis {label!r} among {labels}")
        idx.append(labels.index(label))
    if len(set(idx)) != len(idx):
        raise ValidationError(f"repeated axis labels in {wanted}")
    return tuple(idx)


def _clean_probs(raw, shape, what: str) -> np.ndarray:
    p = np.asarray(raw, dtype=np.float64)
    if p.shape != shape:
        raise ValidationError(f"{what}: expected shape {shape}, got {p.shape}")
    _check_entries(p, what)
    total = float(p.sum())
    if abs(total - 1.0) > RENORM_TOL:
        raise ValidationError(f"{what}: total mass {total!r} is not 1")
    if total != 1.0:
        p = p / total
    p = np.ascontiguousarray(p)
    p.flags.writeable = False
    return p


@dataclass(frozen=True)
class Dist:
    """Probability distribution over a single alphabet."""

    alphabet: Alphabet
    probs: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "probs", _clean_probs(self.probs, (self.alphabet.size,), "Dist")
        )

    def __getitem__(self, i: int) -> float:
        return float(self.probs[i])


@dataclass(frozen=True)
class JointDist:
    """Probability distribution over a product of labeled alphabets."""

    axes: tuple[Alphabet, ...]
    probs: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "axes", tuple(self.axes))
        _axis_indices(self.labels, self.labels)  # refuses repeated labels
        shape = tuple(a.size for a in self.axes)
        object.__setattr__(self, "probs", _clean_probs(self.probs, shape, "JointDist"))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(a.label for a in self.axes)


def marginalize(joint: JointDist, keep) -> JointDist:
    """Marginal of ``joint`` over the axes whose labels are in ``keep``.

    The kept axes stay in the order they have in ``joint`` regardless of
    the order given.  Keeping every axis returns an equal joint; keeping
    none yields the zero-axis distribution with scalar mass 1.
    """
    keep = tuple(keep)
    keep_idx = set(_axis_indices(joint.labels, keep))
    drop = tuple(i for i in range(len(joint.axes)) if i not in keep_idx)
    probs = joint.probs.sum(axis=drop) if drop else joint.probs
    axes = tuple(a for i, a in enumerate(joint.axes) if i in keep_idx)
    return JointDist(axes, probs)


def _entropy_of_probs(p: np.ndarray) -> float:
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def _pairwise(t: np.ndarray, copy: bool) -> np.ndarray:
    """Rows whose first holds the sum of t in numpy's row-sum order: the
    rows of t that the partial sums overwrite, or a copy of them."""
    k = len(t)
    if k > 128:
        half = k // 2 - k // 2 % 8
        head = _pairwise(t[:half], copy)
        head[0] += _pairwise(t[half:], copy)[0]
        return head
    head = t[:8 if k >= 8 else 1]
    if copy:
        head = head.copy()
    if k < 8:
        for row in t[1:]:
            head[0] += row
        return head
    full = k - k % 8
    for i in range(8, full, 8):
        head += t[i:i + 8]
    for step in (1, 2, 4):
        for j in range(0, 8, 2 * step):
            head[j] += head[j + step]
    for row in t[full:]:
        head[0] += row
    return head


def term_sums(terms: np.ndarray, overwrite: bool = True) -> np.ndarray:
    """The sum over the first axis of a float64 array of k >= 1 terms,
    added in numpy's own row-sum order: equal bit for bit to
    ``np.stack(list(terms), -1).sum(-1)``, without forming that stack.

    numpy sums a contiguous row of k terms pairwise: fewer than 8 in
    order; up to 128 in eight running sums, combined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the leftover terms in order;
    more than 128 as two halves, split at half rounded down to a multiple
    of 8.  The result starts from +0.0, so a zero sum is +0.0.  Each step
    here adds whole terms, so many short rows cost a few array operations
    instead of a call per row.  The partial sums are formed in place, so
    ``terms`` is overwritten, or with ``overwrite`` false in copies of the
    (at most eight) terms they would overwrite.  The result is a new
    array.
    """
    return _pairwise(terms, not overwrite)[0] + 0.0


def _renormalise(m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``_clean_probs`` of each column of a (cells, N) cell-major batch,
    into ``out`` (default: in place).  A column whose total, summed in
    numpy's row-sum order, is not exactly 1 is divided by it; dividing
    the others by 1.0 leaves their bits."""
    totals = term_sums(m, overwrite=False)
    if not (np.abs(totals - 1.0) <= RENORM_TOL).all():
        raise ValidationError("JointBatch: a row's total mass is not 1")
    return np.divide(m, totals, out=m if out is None else out)


# the smallest positive float64: it stands in for a zero probability
_SMALLEST = np.nextafter(0.0, 1.0)


def _entropy_columns(p: np.ndarray, overwrite: bool) -> np.ndarray:
    """``_entropy_of_probs`` of each column of a (cells, N) cell-major
    batch; the terms overwrite ``p`` if ``overwrite``.

    A column adds the terms -(p log2 p) of its positive cells in numpy's
    row-sum order (``term_sums``), which depends on their number k.  A
    zero cell's term is a zero here, which can only change the sign of a
    zero partial sum, and every sum ends by adding +0.0; so a column with
    k below 8 is one in-order sum over all its cells.  The columns with k
    of 8 or more are then summed again, those of each k as one
    (k, columns) block of their positive terms.
    """
    cells = len(p)
    positive = p > 0.0 if cells >= 8 else None
    # log2(0) would take numpy's slow special-value path; 0 times the
    # log of _SMALLEST is a zero
    t = np.maximum(p, _SMALLEST)
    np.log2(t, out=t)
    t = np.multiply(t, p, out=p if overwrite else t)
    np.negative(t, out=t)
    if cells < 8:
        return term_sums(t)
    h = t[0] + t[1]
    for row in t[2:]:
        h += row
    h += 0.0
    k = np.count_nonzero(positive, axis=0)
    cols = np.flatnonzero(k >= 8)
    if len(cols):
        # each such column's positive terms, column by column in cell order
        terms = np.compress(positive.T[cols].ravel(), t.T[cols].ravel())
        k = k[cols]
        ends = np.cumsum(k)
        for kk in set(k.tolist()):
            group = np.flatnonzero(k == kk)
            block = terms[(ends[group] - kk) + np.arange(kk)[:, None]]
            h[cols[group]] = term_sums(block)
    return h


def _marginal_sums(cells: np.ndarray, kept) -> np.ndarray:
    """(kept cells, N) sums of a cell-major (axis sizes..., N) array over
    the axes whose ``kept`` is false: bit for bit the rows of
    ``rows.sum(axis=dropped)`` over the C-ordered (N, axis sizes...) rows.

    numpy passes over axes of size 1, adds a trailing block of summed axes
    as one row of cells (``term_sums``), then adds the slices of the other
    summed axes one at a time in C order, from +0.0 (so a sum over axes of
    size 1 alone is its one slice plus +0.0).  Each step here adds whole
    rows of N values.  With nothing summed the result is a view of
    ``cells``.
    """
    n = cells.shape[-1]
    shape = tuple(s for s in cells.shape[:-1] if s > 1)
    m = cells.reshape(shape + (n,))
    if all(kept):
        return m.reshape(math.prod(shape), n)
    kept = [k for s, k in zip(cells.shape[:-1], kept) if s > 1]
    if all(kept):
        # only axes of size 1 are summed: their one slice, from +0.0
        return m.reshape(math.prod(shape), n) + 0.0
    lead = len(kept)
    while lead and not kept[lead - 1]:
        lead -= 1
    if lead < len(kept):
        # the trailing summed axes: one row of cells each
        block = m.reshape(math.prod(shape[:lead]), math.prod(shape[lead:]), n)
        m = term_sums(block.transpose(1, 0, 2), overwrite=False).reshape(
            shape[:lead] + (n,))
    if not all(kept[:lead]):
        slices = product(*((slice(None),) if k else range(s)
                           for s, k in zip(shape, kept[:lead])))
        total = m[next(slices)] + 0.0
        for idx in slices:
            total += m[idx]
        m = total
    return m.reshape(math.prod(m.shape[:-1]), n)


# Every array of a JointBatch chunk holds at most this many entries.
ENTROPY_CELLS = 1 << 16


class JointBatch:
    """N joints over the same labeled axes, evaluated together.

    ``probs`` has shape (N,) + axis sizes; each row is what a JointDist over
    ``labels`` stores.  Marginals, entropies and (conditional) mutual
    informations equal the scalar functions of each row's JointDist bit for
    bit: a marginal is summed and renormalised as ``marginalize`` does, and
    its entropy adds each row's positive terms as ``_entropy_of_probs``
    does (``_entropy_columns``).

    The evaluator holds its probabilities cell-major, as (axis sizes...,
    N), so every sum adds whole rows of N values, in the order numpy sums
    the C-ordered (N,) + axis sizes rows (``_marginal_sums``), whatever
    the layout the rows came in.  A marginal that only an entropy reads is
    dropped once the entropy is taken; ``marginal`` keeps what it returns.
    ``per_chunk`` bounds the scratch: every array of a chunk holds at most
    ENTROPY_CELLS entries.  Given ``n``, ``probs`` are counts instead
    (``from_counts``).
    """

    def __init__(self, labels, probs, n: int | None = None) -> None:
        rows = np.asarray(probs, dtype=np.float64 if n is None else None)
        self._setup(labels, rows, n)
        _axis_indices(self.labels, self.labels)  # refuses repeated labels
        if rows.ndim != len(self.labels) + 1:
            raise ValidationError(
                f"JointBatch: expected {len(self.labels) + 1} dimensions, "
                f"got {rows.ndim}")
        _check_entries(rows, "JointBatch")
        if n is not None and not n > 0:
            raise ValidationError(f"JointBatch: count total {n!r} is not positive")

    def _setup(self, labels, rows: np.ndarray, n) -> None:
        self.labels = tuple(labels)
        # the rows ``per_chunk`` slices: probabilities, or counts (or
        # probabilities to renormalise) divided by n a chunk at a time
        self._rows, self._n = rows, n
        self._cells: np.ndarray | None = None
        self._marginals: dict[frozenset, np.ndarray] = {}
        self._entropies: dict[frozenset, np.ndarray] = {}

    @classmethod
    def from_counts(cls, labels, counts: np.ndarray, n: int) -> "JointBatch":
        """Rows ``counts / n`` renormalised as ``TypeVector.to_joint`` does.

        The batch keeps the integer rows: ``per_chunk`` forms each chunk's
        probabilities in turn, so no float copy of every row exists unless
        ``probs`` is read.  Every step is per row, so a chunk's rows equal
        those of the whole batch.
        """
        return cls(labels, counts, n)

    @classmethod
    def renormalised(cls, labels, probs: np.ndarray) -> "JointBatch":
        """Rows renormalised as a JointDist renormalises its probabilities
        (``probs / 1`` keeps their bits)."""
        return cls(labels, probs, 1)

    @classmethod
    def of(cls, joint: JointDist) -> "JointBatch":
        """The one-row batch of a JointDist."""
        return cls(joint.labels, joint.probs[None])

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def probs(self) -> np.ndarray:
        """The (N,) + axis sizes probabilities (a transposed view when
        formed from counts)."""
        if self._n is None:
            return self._rows
        cells = self._cell_major()
        flat = cells.reshape(math.prod(self._rows.shape[1:]), len(self))
        return flat.T.reshape(self._rows.shape)

    def per_chunk(self, fn) -> np.ndarray:
        """``fn`` of consecutive row chunks, each of at most ENTROPY_CELLS
        probabilities, joined along the rows."""
        rows = max(1, ENTROPY_CELLS // math.prod(self._rows.shape[1:]))
        chunks = []
        for lo in range(0, max(len(self), 1), rows):
            chunk = JointBatch.__new__(JointBatch)
            chunk._setup(self.labels, self._rows[lo:lo + rows], self._n)
            chunks.append(fn(chunk))
        return np.concatenate(chunks)

    def _cell_major(self) -> np.ndarray:
        """The probabilities as (axis sizes..., N), formed on first use."""
        if self._cells is None:
            n_rows, cells = len(self), math.prod(self._rows.shape[1:])
            flat = self._rows.reshape(n_rows, cells).T
            if self._n is None:
                m = np.ascontiguousarray(flat)
            else:
                m = np.empty((cells, n_rows))
                np.divide(flat, self._n, out=m)
                _renormalise(m)
            self._cells = m.reshape(self._rows.shape[1:] + (n_rows,))
        return self._cells

    def _key(self, labels) -> frozenset:
        return frozenset(_axis_indices(self.labels, labels))

    def _marginal(self, key: frozenset) -> np.ndarray:
        """(cells, N): ``marginalize(row, keep).probs`` of every row."""
        joint = self._cell_major()
        m = _marginal_sums(joint, [i in key for i in range(len(self.labels))])
        # nothing summed: m is the joint, so renormalise a copy
        return _renormalise(m, np.empty(m.shape)
                            if np.may_share_memory(m, joint) else None)

    def marginal(self, keep) -> np.ndarray:
        """(N, cells) rows of ``marginalize(row, keep).probs``, kept axes in
        batch order (a transposed view)."""
        key = self._key(keep)
        m = self._marginals.get(key)
        if m is None:
            m = self._marginals[key] = self._marginal(key)
        return m.T

    def entropy(self, keep) -> np.ndarray:
        key = self._key(keep)
        h = self._entropies.get(key)
        if h is None:
            m = self._marginals.get(key)
            h = self._entropies[key] = (
                _entropy_columns(self._marginal(key), True) if m is None
                else _entropy_columns(m, False))
        return h

    def conditional_entropy(self, target, given=()) -> np.ndarray:
        target, given = tuple(target), tuple(given)
        h_both = self.entropy(target + given)
        if not given:
            return h_both
        return h_both - self.entropy(given)

    def conditional_mutual_information(self, a, b, c=()) -> np.ndarray:
        a, b, c = tuple(a), tuple(b), tuple(c)
        self._key(a + b + c)  # validates disjointness
        return (self.conditional_entropy(a, c)
                - self.conditional_entropy(a, b + c))


def entropy(dist) -> float:
    """Shannon entropy in bits of a Dist or of a whole JointDist."""
    if isinstance(dist, Dist):
        return _entropy_of_probs(dist.probs)
    if isinstance(dist, JointDist):
        return _entropy_of_probs(dist.probs.ravel())
    raise ValidationError(f"entropy expects Dist or JointDist, got {type(dist)}")


def conditional_entropy(joint: JointDist, target, given=()) -> float:
    """H(target | given) in bits, computed as H(target, given) - H(given)."""
    target = tuple(target)
    given = tuple(given)
    _axis_indices(joint.labels, target + given)  # validates disjointness
    h_both = entropy(marginalize(joint, target + given))
    if not given:
        return h_both
    return h_both - entropy(marginalize(joint, given))


def conditional_mutual_information(joint: JointDist, a, b, c=()) -> float:
    """I(a ; b | c) in bits.  ``c`` may be empty for plain mutual information."""
    a, b, c = tuple(a), tuple(b), tuple(c)
    _axis_indices(joint.labels, a + b + c)  # validates disjointness
    return conditional_entropy(joint, a, c) - conditional_entropy(joint, a, b + c)


def kl_divergence(p: Dist, q: Dist) -> float:
    """D(p || q) in bits; +inf when p puts mass where q has none."""
    check_sizes("kl_divergence", (p.alphabet,), (q.alphabet,))
    return _kl_rows(p.probs, q.probs)


def _kl_rows(p: np.ndarray, q: np.ndarray) -> float:
    mask = p > 0.0
    if np.any(q[mask] == 0.0):
        return math.inf
    ps = p[mask]
    return float((ps * np.log2(ps / q[mask])).sum())


@dataclass(frozen=True)
class Channel:
    """Stochastic map from sender pairs (x, y) to receiver symbols z.

    ``w[x, y, z]`` is the probability of output z on inputs (x, y).  Rows
    are validated like distributions (renormalized within RENORM_TOL).
    """

    x_alphabet: Alphabet
    y_alphabet: Alphabet
    z_alphabet: Alphabet
    w: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        shape = (self.x_alphabet.size, self.y_alphabet.size, self.z_alphabet.size)
        w = np.asarray(self.w, dtype=np.float64)
        if w.shape != shape:
            raise ValidationError(f"Channel: expected w shape {shape}, got {w.shape}")
        _check_entries(w, "Channel")
        sums = w.sum(axis=2)
        if np.any(np.abs(sums - 1.0) > RENORM_TOL):
            bad = np.unravel_index(int(np.argmax(np.abs(sums - 1.0))), sums.shape)
            raise ValidationError(
                f"Channel: row (x={bad[0]}, y={bad[1]}) sums to "
                f"{float(sums[bad])}, not 1")
        w = w / sums[:, :, None]
        w = np.ascontiguousarray(w)
        w.flags.writeable = False
        object.__setattr__(self, "w", w)


def conditional_kl_divergence(v: Channel, w: Channel, p) -> float:
    """D(v || w | p): p-weighted divergence between channel rows, in bits.

    ``p`` may be a JointDist whose axes include the channel input labels
    (extra axes, e.g. a time-sharing variable the channels ignore, are
    marginalized away) or a plain 2-D JointDist over (x, y).
    """
    check_sizes("conditional_kl_divergence", (v.x_alphabet, v.y_alphabet, v.z_alphabet),
                (w.x_alphabet, w.y_alphabet, w.z_alphabet))
    if not isinstance(p, JointDist):
        raise ValidationError("conditional_kl_divergence: p must be a JointDist")
    xl, yl = v.x_alphabet.label, v.y_alphabet.label
    pxy = marginalize(p, (xl, yl))
    # marginalize preserves the joint's own axis order, which may be (y, x)
    if pxy.labels != (xl, yl):
        probs = np.transpose(pxy.probs, (pxy.labels.index(xl), pxy.labels.index(yl)))
    else:
        probs = pxy.probs
    total = 0.0
    for x in range(v.x_alphabet.size):
        for y in range(v.y_alphabet.size):
            mass = float(probs[x, y])
            if mass == 0.0:
                continue
            d = _kl_rows(v.w[x, y], w.w[x, y])
            if d == math.inf:
                return math.inf
            total += mass * d
    return total


def product_channel_likelihood(w: Channel, x_seq, y_seq, z_seq) -> float:
    """Probability of the output word under memoryless use of the channel."""
    x, y, z = (check_symbols(seq, alph.size,
                             f"product_channel_likelihood: {alph.label} word")
               for seq, alph in ((x_seq, w.x_alphabet), (y_seq, w.y_alphabet),
                                 (z_seq, w.z_alphabet)))
    if not (len(x) == len(y) == len(z)) or len(x) == 0:
        raise ValidationError("product_channel_likelihood: equal nonzero lengths required")
    return float(np.prod(w.w[x, y, z]))


def check_law_channel(law_joint: JointDist, w: Channel) -> None:
    """Refuse a (U, X, Y) input joint whose sender alphabets are not the
    channel's inputs."""
    if len(law_joint.axes) != 3:
        raise ValidationError("expected a three-axis (U, X, Y) joint")
    _, x_ax, y_ax = law_joint.axes
    if x_ax.size != w.x_alphabet.size or y_ax.size != w.y_alphabet.size:
        raise ValidationError(
            f"input law alphabets {x_ax.size}x{y_ax.size} do not match the "
            f"channel's {w.x_alphabet.size}x{w.y_alphabet.size}")


def joint_from_law_and_channel(law_joint: JointDist, w: Channel) -> JointDist:
    """Extend a (U, X, Y) input joint by the channel: P(u,x,y) * W(z|x,y)."""
    check_law_channel(law_joint, w)
    probs = law_joint.probs[:, :, :, None] * w.w[None, :, :, :]
    return JointDist(law_joint.axes + (w.z_alphabet.relabel("Z"),), probs)
