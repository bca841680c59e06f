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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

# Tolerance ladder.  SUM_TOL is what stored tensors actually satisfy after
# construction; EQ_TOL is for semantic equality checks between quantities
# that are computed along different float paths; RENORM_TOL bounds how much
# drift the constructors will repair silently.
SUM_TOL = 1e-12
EQ_TOL = 1e-10
RENORM_TOL = 1e-9


@dataclass(frozen=True)
class Alphabet:
    """A finite symbol set ``{0, ..., size-1}`` with a display label."""

    size: int
    label: str

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValidationError(f"alphabet {self.label!r} must have size >= 1")
        if not self.label:
            raise ValidationError("alphabet label must be nonempty")

    def relabel(self, label: str) -> "Alphabet":
        """Same symbol set under a different axis label (e.g. a fresh copy
        of the X alphabet playing the competitor role X~)."""
        return Alphabet(self.size, label)


def _clean_probs(raw, shape, what: str) -> np.ndarray:
    p = np.asarray(raw, dtype=np.float64)
    if p.shape != shape:
        raise ValidationError(f"{what}: expected shape {shape}, got {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValidationError(f"{what}: non-finite entries")
    if np.any(p < 0.0):
        raise ValidationError(f"{what}: negative probability entries")
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
        labels = [a.label for a in self.axes]
        if len(set(labels)) != len(labels):
            raise ValidationError(f"duplicate axis labels {labels}")
        shape = tuple(a.size for a in self.axes)
        object.__setattr__(self, "probs", _clean_probs(self.probs, shape, "JointDist"))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(a.label for a in self.axes)

    def axis_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValidationError(
                f"no axis {label!r}; joint has {self.labels}"
            ) from None

    def _axis_indices(self, labels) -> tuple[int, ...]:
        idx = tuple(self.axis_index(l) for l in labels)
        if len(set(idx)) != len(idx):
            raise ValidationError(f"repeated axis labels in {tuple(labels)}")
        return idx


def marginalize(joint: JointDist, keep) -> JointDist:
    """Marginal of ``joint`` over the axes whose labels are in ``keep``.

    The kept axes stay in the order they have in ``joint`` regardless of
    the order given.  Keeping every axis returns an equal joint; keeping
    none yields the zero-axis distribution with scalar mass 1.
    """
    keep = tuple(keep)
    keep_idx = set(joint._axis_indices(keep))
    drop = tuple(i for i in range(len(joint.axes)) if i not in keep_idx)
    probs = joint.probs.sum(axis=drop) if drop else joint.probs
    axes = tuple(a for i, a in enumerate(joint.axes) if i in keep_idx)
    return JointDist(axes, probs)


def _entropy_of_probs(p: np.ndarray) -> float:
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def _clean_rows(m: np.ndarray) -> np.ndarray:
    """``_clean_probs`` of each row of an (N, cells) batch: a row whose
    total is not exactly 1 is divided by it."""
    totals = m.sum(axis=1)
    if np.any(np.abs(totals - 1.0) > RENORM_TOL):
        raise ValidationError("JointBatch: a row's total mass is not 1")
    off = totals != 1.0
    if off.any():
        m = m.copy()
        m[off] /= totals[off, None]
    return m


def _entropy_rows(m: np.ndarray) -> np.ndarray:
    """``_entropy_of_probs`` of each row of an (N, cells) batch.

    A row adds its positive cells in order.  numpy sums a row pairwise once
    it has 8 or more terms, so zero padding would regroup the additions;
    rows are instead summed in groups with equal positive count.
    """
    positive = m > 0.0
    k = positive.sum(axis=1)
    # -(p log2 p) of each positive cell, in place
    terms = m[positive]
    terms *= np.log2(terms)
    np.negative(terms, out=terms)
    starts = np.cumsum(k) - k
    out = np.empty(m.shape[0])
    for kk in np.flatnonzero(np.bincount(k)):
        rows = np.flatnonzero(k == kk)
        out[rows] = terms[starts[rows, None] + np.arange(kk)].sum(axis=1)
    return out


# Each marginal of a JointBatch chunk holds at most this many probabilities.
ENTROPY_CELLS = 1 << 16


class JointBatch:
    """N joints over the same labeled axes, evaluated together.

    ``probs`` has shape (N,) + axis sizes; each row is what a JointDist over
    ``labels`` stores.  Marginals, entropies and (conditional) mutual
    informations equal the scalar functions of each row's JointDist bit for
    bit: a marginal is summed and renormalised as ``marginalize`` does, and
    its entropy as ``_entropy_of_probs`` does.  Each label set is
    marginalised once per batch; ``per_chunk`` bounds that scratch.  Given
    ``n``, ``probs`` are integer counts instead (``from_counts``).
    """

    def __init__(self, labels, probs, n: int | None = None) -> None:
        self.labels = tuple(labels)
        if n is None:
            # C order: a row's sums, and so its last bits, follow the layout
            probs = np.ascontiguousarray(probs, dtype=np.float64)
        # the rows ``per_chunk`` slices: probabilities, or counts whose
        # probabilities are formed a chunk at a time
        self._rows, self._n = probs, n
        self._probs = probs if n is None else None
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError(f"duplicate axis labels {self.labels}")
        if self._rows.ndim != len(self.labels) + 1:
            raise ValidationError(
                f"JointBatch: expected {len(self.labels) + 1} dimensions, "
                f"got {self._rows.ndim}")
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

    @property
    def probs(self) -> np.ndarray:
        """The (N,) + axis sizes probabilities, formed on first read from
        counts."""
        if self._probs is None:
            self._probs = self._chunk(0, len(self)).probs
        return self._probs

    @classmethod
    def renormalised(cls, labels, probs: np.ndarray) -> "JointBatch":
        """Rows renormalised as a JointDist renormalises its probabilities."""
        probs = np.ascontiguousarray(probs)
        cells = math.prod(probs.shape[1:])
        flat = _clean_rows(probs.reshape(len(probs), cells))
        return cls(labels, flat.reshape(probs.shape))

    @classmethod
    def of(cls, joint: JointDist) -> "JointBatch":
        """The one-row batch of a JointDist."""
        return cls(joint.labels, joint.probs[None])

    def __len__(self) -> int:
        return len(self._rows)

    def per_chunk(self, fn) -> np.ndarray:
        """``fn`` of consecutive row chunks, each with marginals of at most
        ENTROPY_CELLS probabilities, joined along the rows."""
        rows = max(1, ENTROPY_CELLS // math.prod(self._rows.shape[1:]))
        return np.concatenate([fn(self._chunk(lo, lo + rows))
                               for lo in range(0, max(len(self), 1), rows)])

    def _chunk(self, lo: int, hi: int) -> "JointBatch":
        if self._n is None:
            return JointBatch(self.labels, self._rows[lo:hi])
        return JointBatch.renormalised(self.labels, self._rows[lo:hi] / self._n)

    def _key(self, labels) -> frozenset:
        idx = []
        for label in labels:
            if label not in self.labels:
                raise ValidationError(
                    f"no axis {label!r}; batch has {self.labels}")
            idx.append(self.labels.index(label))
        if len(set(idx)) != len(idx):
            raise ValidationError(f"repeated axis labels in {tuple(labels)}")
        return frozenset(idx)

    def marginal(self, keep) -> np.ndarray:
        """(N, cells) rows of ``marginalize(row, keep).probs``, kept axes in
        batch order."""
        key = self._key(keep)
        m = self._marginals.get(key)
        if m is None:
            drop = tuple(1 + i for i in range(len(self.labels)) if i not in key)
            m = self.probs.sum(axis=drop) if drop else self.probs
            cells = math.prod(self.probs.shape[1 + i] for i in key)
            m = self._marginals[key] = _clean_rows(m.reshape(len(self), cells))
        return m

    def entropy(self, keep) -> np.ndarray:
        key = self._key(keep)
        h = self._entropies.get(key)
        if h is None:
            h = self._entropies[key] = _entropy_rows(self.marginal(keep))
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
    joint._axis_indices(target + given)  # validates disjointness
    h_both = entropy(marginalize(joint, target + given))
    if not given:
        return h_both
    return h_both - entropy(marginalize(joint, given))


def conditional_mutual_information(joint: JointDist, a, b, c=()) -> float:
    """I(a ; b | c) in bits.  ``c`` may be empty for plain mutual information."""
    a, b, c = tuple(a), tuple(b), tuple(c)
    joint._axis_indices(a + b + c)  # validates disjointness
    return conditional_entropy(joint, a, c) - conditional_entropy(joint, a, b + c)


def kl_divergence(p: Dist, q: Dist) -> float:
    """D(p || q) in bits; +inf when p puts mass where q has none."""
    if p.alphabet.size != q.alphabet.size:
        raise ValidationError("kl_divergence: alphabet size mismatch")
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
        if not np.all(np.isfinite(w)):
            raise ValidationError("Channel: non-finite entries")
        if np.any(w < 0.0):
            raise ValidationError("Channel: negative entries")
        sums = w.sum(axis=2)
        if np.any(np.abs(sums - 1.0) > RENORM_TOL):
            bad = np.unravel_index(int(np.argmax(np.abs(sums - 1.0))), sums.shape)
            raise ValidationError(
                f"Channel: row {bad} sums to {sums[bad]!r}, not 1"
            )
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
    for a, b in ((v.x_alphabet, w.x_alphabet), (v.y_alphabet, w.y_alphabet),
                 (v.z_alphabet, w.z_alphabet)):
        if a.size != b.size:
            raise ValidationError("conditional_kl_divergence: alphabet mismatch")
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
    x = np.asarray(x_seq, dtype=np.intp)
    y = np.asarray(y_seq, dtype=np.intp)
    z = np.asarray(z_seq, dtype=np.intp)
    if not (len(x) == len(y) == len(z)) or len(x) == 0:
        raise ValidationError("product_channel_likelihood: equal nonzero lengths required")
    for arr, alph in ((x, w.x_alphabet), (y, w.y_alphabet), (z, w.z_alphabet)):
        if arr.min() < 0 or arr.max() >= alph.size:
            raise ValidationError(
                f"product_channel_likelihood: symbol out of range for {alph.label}"
            )
    return float(np.prod(w.w[x, y, z]))


def joint_from_law_and_channel(law_joint: JointDist, w: Channel,
                               z_label: str = "Z") -> JointDist:
    """Extend a (U, X, Y) input joint by the channel: P(u,x,y) * W(z|x,y)."""
    if len(law_joint.axes) != 3:
        raise ValidationError("expected a three-axis (U, X, Y) joint")
    u_ax, x_ax, y_ax = law_joint.axes
    if x_ax.size != w.x_alphabet.size or y_ax.size != w.y_alphabet.size:
        raise ValidationError("input law does not match channel alphabets")
    probs = law_joint.probs[:, :, :, None] * w.w[None, :, :, :]
    return JointDist((u_ax, x_ax, y_ax, w.z_alphabet.relabel(z_label)), probs)
