"""Constant-composition codebook pairs, packing tallies, and expurgation.

Codewords are drawn uniformly from a conditional type class around a shared
time-sharing sequence, so every word has the exact same joint type with it.
Packing reports tally, for each realized joint type, how often confusable
patterns occur:

* ``pair``      the transmitted pair (u, x_i, y_j),
* ``triple_x``  the pair plus a wrong X word x_k, k != i,
* ``triple_y``  the pair plus a wrong Y word y_l, l != j,
* ``quad``      the pair plus a wrong word from each book.

A tally is compared against 2^(-n (F - offset - c * delta)) where F is the
family's packing exponent and c its delta coefficient; reports carry the
smallest delta that would satisfy each family, and each type's tally,
exact as an integer count over one denominator.  ``expurgate`` halves the
higher-rate book four times (one family per stage, worst offenders
dropped) which trades a factor 16 in size for per-pair guarantees, then
audits the final books from their own tallies: ``audit_confusability``
re-checks every realized competitor type against the rate-constraint
family used by the exponent minimization.

A tally is a set of arrays: a family's distinct count rows in ascending
order, and one (message pair, type, count) entry per type a pair realizes,
each field in the smallest unsigned dtype that holds it.  Totals, peaks
and needs are reductions over the entries, a block at a time.  Types are
found by int64 code words of the count rows, per chunk of message pairs:
a code is a sum over positions of a true-side factor times a wrong-side
factor, so a chunk's codes against every pattern of wrong words are one
exact integer matrix product.  All of a family's types form one
``JointBatch``; both bound their scratch memory by
``probability.ENTROPY_CELLS`` entries.  A batch adds whole rows of types
in numpy's own summation order, so its values
equal those of one ``JointDist`` per type bit for bit, and needs those of
the exact fractions, so reports, kept words and audits are identical to a
type-by-type evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConstructionError, ValidationError, check_count, check_symbols
from .exponents import (
    PACKING_FAMILIES,
    InputLaw,
    RatePair,
    check_delta,
    conditional_rows,
    confusability_checks,
    family_exponents,
)
from .probability import ENTROPY_CELLS, Alphabet, Channel, JointBatch, check_sizes
from .typeclasses import (
    SymbolSequence,
    TypeVector,
    _as_rng,
    code_places,
    distinct_rows,
    sample_conditional_type_class,
    type_class_size,
)

FAMILY_ORDER = tuple(PACKING_FAMILIES)
# slack on a report's needs when it is checked against a delta
NEED_TOL = 1e-12


@dataclass(frozen=True)
class CodebookPair:
    """Two constant-composition books sharing one time-sharing sequence."""

    u_seq: np.ndarray          # (n,)
    x_book: np.ndarray         # (m_x, n)
    y_book: np.ndarray         # (m_y, n)
    u_alphabet: Alphabet
    x_alphabet: Alphabet
    y_alphabet: Alphabet
    p_ux: TypeVector           # target joint type of (u, x word)
    p_uy: TypeVector

    def __post_init__(self) -> None:
        for name, ndim, alph in (("u_seq", 1, self.u_alphabet),
                                 ("x_book", 2, self.x_alphabet),
                                 ("y_book", 2, self.y_alphabet)):
            arr = check_symbols(getattr(self, name), alph.size, name)
            if arr.ndim != ndim:
                raise ValidationError(f"{name} must be a {ndim}-D integer array")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        u = self.u_seq
        n = u.size
        if n == 0:
            raise ValidationError("blocklength must be positive")
        for book, name in ((self.x_book, "x_book"), (self.y_book, "y_book")):
            if book.shape[0] == 0 or book.shape[1] != n:
                raise ValidationError(f"{name} must be nonempty with row length {n}")
        for book, target, name in ((self.x_book, self.p_ux, "x_book"),
                                   (self.y_book, self.p_uy, "y_book")):
            if target.n != n:
                raise ValidationError(f"target type for {name} has wrong blocklength")
            if len(distinct_rows(book)[0]) != book.shape[0]:
                raise ValidationError(f"{name} has duplicate codewords")
            su = self.u_alphabet.size
            s2 = target.counts.size // su
            for r in range(book.shape[0]):
                got = np.bincount(u * s2 + book[r], minlength=su * s2)
                if not np.array_equal(got, target.counts.ravel()):
                    raise ValidationError(
                        f"{name} row {r} does not have the target joint type"
                    )

    @property
    def n(self) -> int:
        return int(self.u_seq.size)

    @property
    def m_x(self) -> int:
        return int(self.x_book.shape[0])

    @property
    def m_y(self) -> int:
        return int(self.y_book.shape[0])

    @property
    def rates(self) -> RatePair:
        return RatePair(math.log2(self.m_x) / self.n, math.log2(self.m_y) / self.n)

    def input_law(self) -> InputLaw:
        """The (U, X, Y) product law realized by the books' exact types."""
        su = self.u_alphabet.size
        cux = self.p_ux.counts.reshape(su, -1).astype(np.float64)
        cuy = self.p_uy.counts.reshape(su, -1).astype(np.float64)
        nu = cux.sum(axis=1)
        return InputLaw.from_components(nu / self.n, conditional_rows(cux, nu),
                                        conditional_rows(cuy, nu))

    def restrict(self, x_rows, y_rows) -> "CodebookPair":
        return CodebookPair(self.u_seq, self.x_book[list(x_rows)],
                            self.y_book[list(y_rows)], self.u_alphabet,
                            self.x_alphabet, self.y_alphabet, self.p_ux, self.p_uy)


def check_channel(pair: CodebookPair, w: Channel) -> None:
    """Refuse a channel whose input alphabets are not the books'."""
    got = (w.x_alphabet.size, w.y_alphabet.size)
    want = (pair.x_alphabet.size, pair.y_alphabet.size)
    if got != want:
        raise ValidationError(
            f"channel input alphabets {got[0]}x{got[1]} do not match "
            f"the books' {want[0]}x{want[1]}")


def _conditional_class_size(p_joint: TypeVector) -> int:
    # words with joint type p_joint along a u of its U marginal: the joint
    # class size over the marginal's, an exact big-integer quotient
    u_type = TypeVector(p_joint.axes[:1],
                        p_joint.counts.reshape(p_joint.axes[0].size, -1)
                        .sum(axis=1), p_joint.n)
    return type_class_size(p_joint) // type_class_size(u_type)


def generate_codebooks(p_ux: TypeVector, p_uy: TypeVector, u_seq: SymbolSequence,
                       m_x: int, m_y: int, rng, max_draws: int | None = None
                       ) -> CodebookPair:
    """Draw two books of distinct words uniformly from conditional classes.

    Duplicates are resampled; the draw budget defaults to 50 per requested
    word plus 1000.  Books larger than the conditional type class raise
    ConstructionError immediately.  Every word comes from one stream:
    ``rng`` is a Generator or a seed ``numpy.random.default_rng`` takes.
    """
    check_count("m_x", m_x, 1)
    check_count("m_y", m_y, 1)
    if max_draws is not None:
        check_count("max_draws", max_draws, 1)
    rng = _as_rng(rng)
    u_arr = u_seq.array()
    for target, m, name in ((p_ux, m_x, "x"), (p_uy, m_y, "y")):
        check_sizes(f"generate_codebooks: p_u{name}", target.axes[:1], (u_seq.alphabet,))
        have = _conditional_class_size(target)
        if have < m:
            raise ConstructionError(
                f"conditional type class for the {name} book has only {have} "
                f"members, cannot hold {m} distinct words"
            )
    books = []
    for target, m in ((p_ux, m_x), (p_uy, m_y)):
        budget = max_draws if max_draws is not None else 50 * m + 1000
        seen: set[bytes] = set()
        rows: list[np.ndarray] = []
        draws = 0
        while len(rows) < m:
            if draws >= budget:
                raise ConstructionError(
                    f"resampling budget ({budget} draws) exhausted at "
                    f"{len(rows)}/{m} distinct words"
                )
            draws += 1
            word = sample_conditional_type_class(target, u_seq, rng).array()
            key = word.tobytes()
            if key in seen:
                continue
            seen.add(key)
            rows.append(word)
        books.append(np.stack(rows))
    return CodebookPair(u_arr, books[0], books[1], u_seq.alphabet,
                        p_ux.axes[1], p_uy.axes[1], p_ux, p_uy)


class Tally(NamedTuple):
    """Wrong-word pattern counts of every true-word tuple, by joint type.

    ``types`` holds the distinct count rows, one cell per (U, true words,
    wrong words) symbol tuple in C order, in ascending order, as a
    C-contiguous array of the smallest dtype that holds n.  Entry e says
    that the true-word tuple ``np.unravel_index(pair[e], m)``, of one word
    per book of sizes ``m``, realizes ``types[type[e]]`` in ``count[e]``
    wrong-word patterns; each (tuple, type) appears once, in ascending
    (pair, type) order.  Each field has the smallest unsigned dtype that
    holds its values: ``pair`` the last tuple, ``count`` the patterns of
    one tuple, ``type`` the tuples times their patterns.
    """

    types: np.ndarray
    m: tuple[int, ...]
    pair: np.ndarray
    type: np.ndarray
    count: np.ndarray


def _code_factors(code: np.ndarray, wrong_cells: int):
    """Rank-one terms of each code word's places over (true, wrong) cells.

    Cell a * B + b pairs true-side cell a with wrong-side cell b, B =
    ``wrong_cells``.  Returns ``alpha`` (W, A, T) and ``beta`` (W, B, T)
    with code[w, a * B + b] = sum over g of alpha[w, a, g] * beta[w, b, g].
    A word's places over one true cell's block are a run of consecutive
    powers of the radix, so blocks whose runs cover the same wrong cells
    share one term: the whole blocks a word covers, and the partial blocks
    at its two ends (T <= 3), padded with zero terms.
    """
    places = code.reshape(len(code), -1, wrong_cells)
    terms = []
    for word in places:
        runs: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
        for a in np.flatnonzero(word.any(axis=1)):
            last = word[a, np.flatnonzero(word[a])[-1]]
            run = word[a] // last
            alpha = runs.setdefault(run.tobytes(),
                                    (np.zeros(len(word), np.int64), run))[0]
            alpha[a] = last
        terms.append(list(runs.values()))
    width = max(map(len, terms))
    alpha = np.zeros((len(code), places.shape[1], width), dtype=np.int64)
    beta = np.zeros((len(code), wrong_cells, width), dtype=np.int64)
    for w, word in enumerate(terms):
        for g, (a, b) in enumerate(word):
            alpha[w, :, g], beta[w, :, g] = a, b
    return alpha, beta


def _tally(u: np.ndarray, su: int, books, competitors) -> Tally:
    """Tally of every tuple of one word per book, in C order.

    ``books`` holds one (book, alphabet size) pair per true word.  Each
    wrong word copies the true book named by its position in
    ``competitors`` and skips that book's true word; later competitors vary
    fastest.  A position's cell pairs its true-side cell a (u and the true
    words) with its wrong-side cell b, so each code word (``code_places``)
    of a tuple's type against a pattern of wrong words is a sum over
    positions of alpha[a] * beta[b] (``_code_factors``).  A chunk's codes
    against every pattern are then one exact int64 product of its tuples'
    true-side factors with the patterns' wrong-side factors: every partial
    sum is part of a code below 2^63.  Each tuple keeps the patterns that
    skip its own true words; one sort of the chunk's codes finds its
    types, and a sort of each tuple's type ids its (tuple, type, count)
    entries, appended to one array per field at each merge of the distinct
    types found so far.  Every scratch array of a chunk holds at most
    ENTROPY_CELLS entries, or one tuple's row of them if more; the
    wrong-side factor, held for the whole call, has n T entries per
    pattern and code word.  The types are decoded to count rows at the
    end.
    """
    n = u.size
    wrong_cells = math.prod(books[c][1] for c in competitors)
    cells = su * math.prod(s for _, s in books) * wrong_cells
    code = code_places(n + 1, cells)
    alpha, beta = _code_factors(code, wrong_cells)
    m = tuple(book.shape[0] for book, _ in books)
    # cell indices on each side are in C order over that side's axes; the
    # wrong-side cells of every pattern of one word per competitor's book,
    # the patterns in C order
    wrong_cell = np.zeros((1, n), dtype=np.int64)
    for c in competitors:
        book, s = books[c]
        wrong_cell = (wrong_cell[:, None] * s + book).reshape(-1, n)
    # (W, n T, patterns): the wrong-side factor of every pattern
    right = beta[:, wrong_cell].reshape(len(code), len(wrong_cell), -1)
    right = np.ascontiguousarray(right.transpose(0, 2, 1))
    # row i of others[c]: the words of competitor c's book other than word i
    others = [np.nonzero(~np.eye(m[c], dtype=bool))[1].reshape(m[c], -1)
              for c in competitors]
    k = math.prod(m[c] - 1 for c in competitors)
    dtype = np.min_scalar_type(n)
    n_tuples = math.prod(m)
    # (pair, type, count) entries: one array per field, in the smallest
    # dtype of the field's largest value, which is the last tuple, a type id
    # (at most one per pattern of every tuple) and one tuple's patterns.
    # Chunks' entries wait in ``parts`` until the next table merge appends
    # them: ndarray.resize reallocates, so a large field grows where it
    # lies or by remapping its pages, and is never held twice, as it would
    # be if every chunk's parts were joined at the end
    entries = [np.zeros(0, dtype=np.min_scalar_type(v))
               for v in (n_tuples - 1, n_tuples * max(k, 1), k)]
    parts = ([], [], [])
    step = max(1, ENTROPY_CELLS // (len(code) * max(right.shape[1:])))
    # the distinct codes found so far; a chunk's codes wait in ``pending``
    # until they outnumber the table, then both are merged and every
    # entry's type index is remapped
    table = np.zeros((0, len(code)), dtype=np.int64)
    pending = []
    stacked = 0
    for lo in range(0, n_tuples, step):
        idx = np.unravel_index(np.arange(lo, min(lo + step, n_tuples)), m)
        rows = len(idx[0])
        true_cell = u
        for (book, s), i in zip(books, idx):
            true_cell = true_cell * s + book[i]
        codes = np.matmul(alpha[:, true_cell].reshape(len(code), rows, -1),
                          right)
        # each tuple's columns: the patterns skipping its true words
        cols = np.zeros((rows, 1), dtype=np.intp)
        for c, o in zip(competitors, others):
            cols = (cols[:, :, None] * m[c] + o[idx[c]][:, None, :]).reshape(
                rows, -1)
        codes = np.take_along_axis(codes, cols[None], axis=2)
        del cols
        types, local = distinct_rows(codes.reshape(len(code), -1).T)
        del codes
        # runs of equal ids in each tuple's sorted type ids
        local = np.sort(local.reshape(rows, k), axis=1)
        first = np.ones(local.shape, dtype=bool)
        first[:, 1:] = local[:, 1:] != local[:, :-1]
        at = np.flatnonzero(first)
        pending.append(types)
        for part, v, field in zip(parts, (lo + at // k,
                                          stacked + local.ravel()[at],
                                          np.diff(at, append=local.size)),
                                  entries):
            part.append(v.astype(field.dtype))
        # free this chunk's sort before the next chunk's product
        del local, first, at, v
        stacked += len(types)
        if stacked > 2 * len(table) or lo + step >= n_tuples:
            table, inverse = distinct_rows(np.concatenate([table] + pending))
            held = len(entries[0])
            for field, part in zip(entries, parts):
                field.resize(held + sum(map(len, part)), refcheck=False)
                np.concatenate(part, out=field[held:])
                part.clear()
            # a block at a time: each gather holds ENTROPY_CELLS ids
            ids = entries[1]
            for s in range(0, len(ids), ENTROPY_CELLS):
                ids[s:s + ENTROPY_CELLS] = inverse[ids[s:s + ENTROPY_CELLS]]
            pending, stacked = [], len(table)
    # each cell has one nonzero place, in its own word
    types = np.empty((len(table), cells), dtype=dtype)
    for c, (w, p) in enumerate(zip(code.argmax(axis=0), code.max(axis=0))):
        types[:, c] = table[:, w] // p % (n + 1)
    return Tally(types, m, *entries)


def _tally_family(pair: CodebookPair, family: str) -> Tally:
    """Tally of every message pair (i, j) against the family's wrong words."""
    return _tally(pair.u_seq, pair.u_alphabet.size,
                  ((pair.x_book, pair.x_alphabet.size),
                   (pair.y_book, pair.y_alphabet.size)),
                  [0 if c == "X~" else 1 for c in PACKING_FAMILIES[family][0]])


def _family_batch(pair: CodebookPair, family: str, tally: Tally) -> JointBatch:
    """The joints of a family's types over (U, X, Y) and its wrong words."""
    size = {"U": pair.u_alphabet.size, "X": pair.x_alphabet.size,
            "Y": pair.y_alphabet.size}
    labels = ("U", "X", "Y") + PACKING_FAMILIES[family][0]
    shape = tuple(size[lab[0]] for lab in labels)
    return JointBatch.from_counts(labels, tally.types.reshape((-1,) + shape),
                                  pair.n)


def _blocks(*fields):
    """Blocks of ENTROPY_CELLS entries of a tally's fields: each block's
    slice, then its values of the fields as intp arrays reused for every
    block (``ufunc.at`` takes its fast path on intp indices and values of
    the target's dtype)."""
    size = len(fields[0])
    bufs = [np.empty(min(size, ENTROPY_CELLS), dtype=np.intp) for _ in fields]
    for lo in range(0, size, ENTROPY_CELLS):
        block = slice(lo, lo + ENTROPY_CELLS)
        values = [buf[:min(size - lo, ENTROPY_CELLS)] for buf in bufs]
        for buf, field in zip(values, fields):
            buf[:] = field[block]
        yield block, *values


def _type_counts(tally: Tally) -> tuple[np.ndarray, np.ndarray]:
    """Each type's count summed over all true-word tuples and its largest
    count for any one tuple."""
    # float sums are exact: a tally holds far fewer than 2^53 patterns
    totals = np.zeros(len(tally.types))
    peaks = np.zeros(len(tally.types), dtype=np.int64)
    for _, t, c in _blocks(tally.type, tally.count):
        totals += np.bincount(t, c, len(tally.types))
        np.maximum.at(peaks, t, c)
    return totals.astype(np.int64), peaks


def _need(log2_lhs, f, n: int, offset: float, coeff: int):
    """Smallest delta with 2^log2_lhs <= 2^(-n (f - offset - coeff delta))."""
    return (log2_lhs + n * (f - offset)) / (n * coeff)


def _log2(v: np.ndarray) -> np.ndarray:
    """math.log2 of each positive integer, taken once per distinct value;
    np.log2 can differ in the last bit."""
    distinct, inverse = np.unique(v, return_inverse=True)
    return np.array([math.log2(x) for x in distinct.tolist()])[inverse]


@dataclass(frozen=True, eq=False)
class TypeNeeds:
    """One packing check per type, as arrays in ascending type order: the
    count rows, the tallies (lhs = counts / denom, exact), the exponents
    and the smallest delta each type needs.  Equality and hashing go by
    the arrays' contents."""

    types: np.ndarray
    counts: np.ndarray
    denom: int
    f_values: np.ndarray
    needs: np.ndarray

    @classmethod
    def of(cls, types, counts, denom: int, f_values, n: int, offset: float,
           coeff: int) -> "TypeNeeds":
        # the reduced fraction's logs, as math.log2 of a Fraction's terms
        g = np.gcd(counts, denom)
        return cls(types, counts, denom, f_values,
                   _need(_log2(counts // g) - _log2(denom // g), f_values, n,
                         offset, coeff))

    def worst(self, floor: float) -> float:
        return float(self.needs.max(initial=floor))

    def __eq__(self, other) -> bool:
        return (isinstance(other, TypeNeeds) and self.denom == other.denom
                and all(np.array_equal(a, b) for a, b in zip(
                    (self.types, self.counts, self.f_values, self.needs),
                    (other.types, other.counts, other.f_values, other.needs))))

    def __hash__(self) -> int:
        # the integer arrays in one dtype: equal contents hash alike
        return hash((self.denom, self.types.shape,
                     self.types.astype(np.int64).tobytes(),
                     self.counts.astype(np.int64).tobytes()))


@dataclass(frozen=True)
class FamilyReport:
    family: str
    delta_coeff: int
    rate_offset: float
    worst_need_delta: float
    table: TypeNeeds = field(repr=False)


@dataclass(frozen=True)
class PackingReport:
    n: int
    rates: RatePair
    kind: str                     # "average" or "per_pair_max"
    families: dict[str, FamilyReport]

    def satisfied(self, delta: float) -> bool:
        check_delta(delta)
        return all(rep.worst_need_delta <= delta + NEED_TOL
                   for rep in self.families.values())


def packing_reports(pair: CodebookPair) -> tuple[PackingReport, PackingReport]:
    """(average, per-pair maximum) reports from one tally per family.

    The average report tests the mean tally per type against
    2^(-n (F - c delta)), the per-pair report the worst single-pair tally
    against 2^(-n (F - Rx - Ry - c delta)), with c = 2, 3, 3, 4.
    """
    rates = pair.rates
    offset = rates.rx + rates.ry
    avg: dict[str, FamilyReport] = {}
    peak: dict[str, FamilyReport] = {}
    for family in FAMILY_ORDER:
        tally = _tally_family(pair, family)
        f_of = family_exponents(_family_batch(pair, family, tally), family, rates)
        totals, peaks = _type_counts(tally)
        coeff = PACKING_FAMILIES[family][2]
        for reports, counts, denom, off in (
                (avg, totals, pair.m_x * pair.m_y, 0.0), (peak, peaks, 1, offset)):
            table = TypeNeeds.of(tally.types, counts, denom, f_of, pair.n, off,
                                 coeff)
            reports[family] = FamilyReport(family, coeff, off,
                                           table.worst(-math.inf), table)
        del tally  # hold one family's tally at a time
    return (PackingReport(pair.n, rates, "average", avg),
            PackingReport(pair.n, rates, "per_pair_max", peak))


@dataclass(frozen=True)
class StageReport:
    family: str
    book: str
    kept: tuple[int, ...]
    threshold_score: float


@dataclass(frozen=True)
class AuditViolation:
    pattern: str
    example: tuple
    constraint: str
    lhs: float
    rhs: float


@dataclass(frozen=True)
class AuditReport:
    ok: bool
    pattern_counts: dict[str, int]
    distinct_types: dict[str, int]
    violations: tuple[AuditViolation, ...]


@dataclass(frozen=True)
class ExpurgationResult:
    final: CodebookPair
    kept_x: tuple[int, ...]
    kept_y: tuple[int, ...]
    expurgated_book: str
    stages: tuple[StageReport, ...]
    achieved_delta: dict[str, float]
    target_delta: float
    original_sizes: tuple[int, int]
    product_ok: bool
    audit: AuditReport            # of the final books at the original rates


def _pair_needs(pair: CodebookPair, family: str, tally: Tally,
                rates: RatePair) -> np.ndarray:
    """(m_x, m_y) grid of each message pair's smallest delta validating its
    per-pair bounds of the family (0.0 without patterns), with exponents
    and the min-rate offset taken at ``rates``: the family constraint's
    bound on each type, less log2(count) / n."""
    f_of = family_exponents(_family_batch(pair, family, tally), family, rates)
    _, _, min_coeff, delta_coeff = PACKING_FAMILIES[family][1].rhs
    # math.log2, as the average needs use: np.log2 can differ in the last bit
    log2 = np.array([-math.inf] + [
        math.log2(c) for c in range(1, int(tally.count.max(initial=0)) + 1)])
    worst = np.zeros(math.prod(tally.m))
    for block, p in _blocks(tally.pair):
        np.maximum.at(worst, p, _need(log2[tally.count[block]],
                                      f_of[tally.type[block]], pair.n,
                                      min_coeff * rates.lower, delta_coeff))
    return worst.reshape(pair.m_x, pair.m_y)


def _audit(pair: CodebookPair, tallies: dict[str, Tally], rates: RatePair,
           delta: float, law: InputLaw | None = None) -> AuditReport:
    """Check each family's realized types once each; a violation's example
    is the first message pair realizing its type."""
    if law is None:
        law = pair.input_law()
    violations = []
    for family, tally in tallies.items():
        first = np.full(len(tally.types), math.prod(tally.m), dtype=np.intp)
        for _, p, t in _blocks(tally.pair, tally.type):
            np.minimum.at(first, t, p)
        checks = confusability_checks(_family_batch(pair, family, tally), law,
                                      rates, delta)
        for r, c in zip(*np.nonzero(checks.violated)):
            violations.append(AuditViolation(
                family, tuple(map(int, np.unravel_index(first[r], tally.m))),
                checks.names[c], float(checks.lhs[r, c]), checks.rhs[c]))
    return AuditReport(not violations,
                       {f: int(t.count.sum()) for f, t in tallies.items()},
                       {f: len(t.types) for f, t in tallies.items()},
                       tuple(violations))


def expurgate(pair: CodebookPair, delta: float) -> ExpurgationResult:
    """Halve one book four times, once per packing family.

    The book whose own rate is larger is the one expurgated (ties fall to
    the Y book): the surviving per-pair bounds then carry the smaller
    rate as their offset, which is the tighter of the two choices.
    Scoring is deterministic: a word's score in a family is the largest
    delta needed to validate any per-pair bound it participates in, with
    competitor tallies taken over the original books; the best-scoring
    ceil(M/2) words survive each stage (ties keep lower indices).  Rates
    and offsets refer to the original sizes throughout.  Returns the final
    books, stage logs, the delta each family actually achieves, and the
    audit of the final books at ``delta`` (as ``audit_confusability``).
    """
    check_delta(delta)
    rates = pair.rates
    tallies = {f: _tally_family(pair, f) for f in FAMILY_ORDER}
    needs = {f: _pair_needs(pair, f, tallies[f], rates) for f in FAMILY_ORDER}
    achieved = {f: float(needs[f].max()) for f in FAMILY_ORDER}
    score_y = rates.rx <= rates.ry
    book = ("none" if max(achieved.values()) <= delta
            else "Y" if score_y else "X")
    final, stages = pair, []
    kept_x, kept_y = tuple(range(pair.m_x)), tuple(range(pair.m_y))
    if book != "none" and (pair.m_y if score_y else pair.m_x) >= 2:
        del tallies  # hold one set of tallies at a time
        order = (("pair", "triple_x", "triple_y", "quad") if score_y
                 else ("pair", "triple_y", "triple_x", "quad"))
        active = list(kept_y if score_y else kept_x)
        for family in order:
            # rows: the other book's words, columns: the expurgated book's
            grid = needs[family] if score_y else needs[family].T
            scores = grid[:, active].max(axis=0)
            keep_count = (len(active) + 1) // 2
            ranking = np.argsort(scores, kind="stable")
            kept = sorted(active[t] for t in ranking[:keep_count])
            stages.append(StageReport(family, book, tuple(kept),
                                      float(scores[ranking[keep_count - 1]])))
            active = kept
        kept_x, kept_y = ((kept_x, tuple(active)) if score_y
                          else (tuple(active), kept_y))
        final = pair.restrict(kept_x, kept_y)
        # a type's values do not depend on the batch it is evaluated in
        tallies = {f: _tally_family(final, f) for f in FAMILY_ORDER}
        achieved = {f: float(_pair_needs(final, f, tallies[f], rates).max())
                    for f in FAMILY_ORDER}
    return ExpurgationResult(
        final=final, kept_x=kept_x, kept_y=kept_y, expurgated_book=book,
        stages=tuple(stages), achieved_delta=achieved, target_delta=delta,
        original_sizes=(pair.m_x, pair.m_y),
        product_ok=16 * len(kept_x) * len(kept_y) >= pair.m_x * pair.m_y,
        audit=_audit(final, tallies, rates, delta))


def audit_confusability(pair: CodebookPair, rates: RatePair, delta: float,
                        law: InputLaw | None = None) -> AuditReport:
    """Check every realized competitor joint type against the exponent
    engine's rate-constraint family.

    Patterns sharing a joint type are checked once.  The default law is
    the one the books realize exactly, so marginal pinning holds by
    construction and any violation is a genuine rate-constraint failure.
    """
    check_delta(delta)
    return _audit(pair, {f: _tally_family(pair, f) for f in FAMILY_ORDER},
                  rates, delta, law)


@dataclass(frozen=True)
class SingleUserReport:
    n: int
    rate: float
    avg_worst_need_delta: float
    per_word_worst_need_delta: float
    avg: TypeNeeds = field(repr=False)

    def satisfied(self, delta: float) -> bool:
        check_delta(delta)
        return (self.avg_worst_need_delta <= delta + NEED_TOL
                and self.per_word_worst_need_delta <= delta + NEED_TOL)


def single_user_packing_check(u_seq: SymbolSequence, book: np.ndarray,
                              alphabet: Alphabet) -> SingleUserReport:
    """Packing tallies for one book against its own wrong words.

    For each realized (U, X, X~) type with I = I(X; X~ | U): the average
    over words i of #{k != i with that type} is compared to
    2^(-n (I - R - 2 delta)), the per-word maximum to
    2^(-n (I - 2R - 3 delta)).
    """
    book = check_symbols(book, alphabet.size, "book")
    u = u_seq.array()
    if book.ndim != 2 or len(book) == 0 or book.shape[1] != u.size:
        raise ValidationError("book shape does not match the shared sequence")
    m, n = book.shape
    rate = math.log2(m) / n
    su, s = u_seq.alphabet.size, alphabet.size
    tally = _tally(u, su, ((book, s),), (0,))
    info = JointBatch.from_counts(
        ("U", "X", "X~"), tally.types.reshape(-1, su, s, s), n).per_chunk(
        lambda chunk: chunk.conditional_mutual_information(("X",), ("X~",), ("U",)))
    totals, peaks = _type_counts(tally)
    avg = TypeNeeds.of(tally.types, totals, m, info, n, rate, 2)
    peak = TypeNeeds.of(tally.types, peaks, 1, info, n, 2 * rate, 3)
    return SingleUserReport(n, rate, avg.worst(0.0), peak.worst(0.0), avg)
