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
exact tallies as fractions plus the smallest delta that would satisfy each
family.  ``expurgate`` halves the higher-rate book four times (one family
per stage, worst offenders dropped) which trades a factor 16 in size for
per-pair guarantees; ``audit_confusability`` then re-checks every realized
competitor type against the rate-constraint family used by the exponent
minimization.

A tally counts the wrong-word patterns of each message pair in one block
and stores each distinct type once.  Each distinct type is evaluated once
per family: all of a family's types form one ``JointBatch``, whose scratch
memory is bounded per chunk of rows (``probability.ENTROPY_CELLS``).  Its
values equal those of one ``JointDist`` per type bit for bit, so reports,
kept words and audits are identical to a type-by-type evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .errors import ConstructionError, ValidationError
from .exponents import (
    PACKING_FAMILIES,
    InputLaw,
    RatePair,
    check_delta,
    confusability_checks,
    family_exponents,
)
from .probability import Alphabet, JointBatch
from .typeclasses import (
    SymbolSequence,
    TypeVector,
    empirical_type,
    sample_conditional_type_class,
)

FAMILY_ORDER = tuple(PACKING_FAMILIES)
AVG_DELTA_COEFF = {"pair": 2, "triple_x": 3, "triple_y": 3, "quad": 4}
PAIR_DELTA_COEFF = {"pair": 3, "triple_x": 4, "triple_y": 4, "quad": 5}


def _as_int_matrix(a, name: str) -> np.ndarray:
    arr = np.asarray(a)
    if arr.ndim != 2 or not np.issubdtype(arr.dtype, np.integer):
        raise ValidationError(f"{name} must be a 2-D integer array")
    out = arr.astype(np.int64)
    out.setflags(write=False)
    return out


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
        u = np.asarray(self.u_seq)
        if u.ndim != 1 or not np.issubdtype(u.dtype, np.integer):
            raise ValidationError("u_seq must be a 1-D integer array")
        u = u.astype(np.int64)
        u.setflags(write=False)
        object.__setattr__(self, "u_seq", u)
        object.__setattr__(self, "x_book", _as_int_matrix(self.x_book, "x_book"))
        object.__setattr__(self, "y_book", _as_int_matrix(self.y_book, "y_book"))
        n = u.size
        if n == 0:
            raise ValidationError("blocklength must be positive")
        for book, alph, name in ((self.x_book, self.x_alphabet, "x_book"),
                                 (self.y_book, self.y_alphabet, "y_book")):
            if book.shape[0] == 0 or book.shape[1] != n:
                raise ValidationError(f"{name} must be nonempty with row length {n}")
            if book.min() < 0 or book.max() >= alph.size:
                raise ValidationError(f"{name} contains symbols outside its alphabet")
        if u.min() < 0 or u.max() >= self.u_alphabet.size:
            raise ValidationError("u_seq contains symbols outside its alphabet")
        for book, target, name in ((self.x_book, self.p_ux, "x_book"),
                                   (self.y_book, self.p_uy, "y_book")):
            if target.n != n:
                raise ValidationError(f"target type for {name} has wrong blocklength")
            rows = {row.tobytes() for row in book}
            if len(rows) != book.shape[0]:
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
        su, sx = self.u_alphabet.size, self.x_alphabet.size
        sy = self.y_alphabet.size
        cux = self.p_ux.counts.reshape(su, sx).astype(np.float64)
        cuy = self.p_uy.counts.reshape(su, sy).astype(np.float64)
        nu = cux.sum(axis=1)
        safe = np.where(nu > 0, nu, 1.0)
        px = cux / safe[:, None]
        py = cuy / safe[:, None]
        px[nu == 0] = 1.0 / sx
        py[nu == 0] = 1.0 / sy
        return InputLaw.from_components(nu / self.n, px, py)

    def restrict(self, x_rows, y_rows) -> "CodebookPair":
        return CodebookPair(self.u_seq, self.x_book[list(x_rows)],
                            self.y_book[list(y_rows)], self.u_alphabet,
                            self.x_alphabet, self.y_alphabet, self.p_ux, self.p_uy)


def _conditional_class_size(p_joint: TypeVector) -> int:
    su = p_joint.axes[0].size
    counts = p_joint.counts.reshape(su, -1)
    total = 1
    for u in range(su):
        row = counts[u]
        size = math.factorial(int(row.sum()))
        for c in row:
            size //= math.factorial(int(c))
        total *= size
    return total


def generate_codebooks(p_ux: TypeVector, p_uy: TypeVector, u_seq: SymbolSequence,
                       m_x: int, m_y: int, rng, max_draws: int | None = None
                       ) -> CodebookPair:
    """Draw two books of distinct words uniformly from conditional classes.

    Duplicates are resampled; the draw budget defaults to 50 per requested
    word plus 1000.  Books larger than the conditional type class raise
    ConstructionError immediately.
    """
    if m_x < 1 or m_y < 1:
        raise ValidationError("book sizes must be >= 1")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    u_arr = u_seq.array()
    for target, m, name in ((p_ux, m_x, "x"), (p_uy, m_y, "y")):
        if target.axes[0].size != u_seq.alphabet.size:
            raise ValidationError(f"p_u{name}: U alphabet size mismatch")
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


def _tally(u: np.ndarray, su: int, books, rows, competitors) -> dict:
    """dict true-word indices -> dict type-key -> pattern count.

    ``books`` holds one (book, alphabet size) pair per true word and
    ``rows`` the indices each book may use.  Each wrong word copies the
    true book named by its position in ``competitors`` and skips that
    book's true index.  A key counts the cells of (U, true words, wrong
    words) in C order.  Each true-word tuple counts the types of all its
    wrong-word tuples (later competitors varying fastest) in one block, and
    every distinct key is stored once across the whole tally.
    """
    sizes = [s for _, s in books] + [books[c][1] for c in competitors]
    # a symbol's place value in the C-order cell index is the product of
    # the sizes of the axes after it
    place = [math.prod(sizes[t + 1:]) for t in range(len(sizes))]
    cells = su * math.prod(sizes)
    true = [book * p for (book, _), p in zip(books, place)]
    wrong = [books[c][0] * p for c, p in zip(competitors, place[len(books):])]
    wrong_rows = [np.asarray(rows[c], dtype=np.int64) for c in competitors]
    base = u * math.prod(sizes)
    canon: dict[tuple, tuple] = {}
    out: dict[tuple, dict[tuple, int]] = {}
    for idx in product(*rows):
        block = base + sum(t[i] for t, i in zip(true, idx))
        for c, w, r in zip(competitors, wrong, wrong_rows):
            block = block[..., None, :] + w[r[r != idx[c]]]
        block = block.reshape(-1, u.size)
        k = block.shape[0]
        block += cells * np.arange(k)[:, None]
        cnt = np.bincount(block.ravel(), minlength=k * cells).reshape(k, cells)
        d: dict[tuple, int] = {}
        for key in map(tuple, cnt.tolist()):
            d[key] = d.get(key, 0) + 1
        out[idx] = {canon.setdefault(key, key): count
                    for key, count in d.items()}
    return out


def _tally_family(pair: CodebookPair, family: str, x_rows, y_rows):
    """dict (i, j) -> dict type-key -> pattern count, competitor indices
    drawn from the same row sets."""
    return _tally(pair.u_seq, pair.u_alphabet.size,
                  ((pair.x_book, pair.x_alphabet.size),
                   (pair.y_book, pair.y_alphabet.size)), (x_rows, y_rows),
                  [0 if c == "X~" else 1 for c in PACKING_FAMILIES[family][0]])


def _family_axes(pair: CodebookPair, family: str) -> tuple[Alphabet, ...]:
    by_label = {"U": pair.u_alphabet, "X": pair.x_alphabet, "Y": pair.y_alphabet,
                "X~": pair.x_alphabet, "Y~": pair.y_alphabet}
    return tuple(by_label[lab].relabel(lab)
                 for lab in ("U", "X", "Y") + PACKING_FAMILIES[family][0])


def _type_values(tally, axes: tuple[Alphabet, ...], n: int, value
                 ) -> dict[tuple, float]:
    """``value(batch)`` of every type a tally realizes, all distinct types
    evaluated in one JointBatch."""
    keys = list(dict.fromkeys(key for counts in tally.values() for key in counts))
    return dict(zip(keys, value(_type_batch(keys, axes, n)).tolist()))


def _type_batch(keys, axes: tuple[Alphabet, ...], n: int) -> JointBatch:
    """The joints ``TypeVector(axes, key, n).to_joint()`` of flat count keys."""
    counts = np.asarray(keys, dtype=np.int64).reshape(
        (len(keys),) + tuple(a.size for a in axes))
    return JointBatch.from_counts(tuple(a.label for a in axes), counts, n)


def _family_exponents(pair: CodebookPair, family: str, tally, rates: RatePair
                      ) -> dict[tuple, float]:
    return _type_values(tally, _family_axes(pair, family), pair.n,
                        lambda batch: family_exponents(batch, family, rates))


def _totals_and_peaks(tally) -> tuple[dict[tuple, int], dict[tuple, int]]:
    """Per type, the count summed over all true words and its largest
    count for any one choice of true words."""
    totals: dict[tuple, int] = {}
    peaks: dict[tuple, int] = {}
    for counts in tally.values():
        for key, cnt in counts.items():
            totals[key] = totals.get(key, 0) + cnt
            if cnt > peaks.get(key, 0):
                peaks[key] = cnt
    return totals, peaks


def _need(log2_lhs: float, f: float, n: int, offset: float, coeff: int) -> float:
    """Smallest delta with 2^log2_lhs <= 2^(-n (f - offset - coeff delta))."""
    return (log2_lhs + n * (f - offset)) / (n * coeff)


@dataclass(frozen=True)
class TypeTallyEntry:
    key: tuple
    count: int
    lhs: Fraction
    f_value: float
    need_delta: float


@dataclass(frozen=True)
class FamilyReport:
    family: str
    delta_coeff: int
    rate_offset: float
    worst_need_delta: float
    entries: tuple[TypeTallyEntry, ...]


@dataclass(frozen=True)
class PackingReport:
    n: int
    rates: RatePair
    kind: str                     # "average" or "per_pair_max"
    families: dict[str, FamilyReport]

    def satisfied(self, delta: float, tol: float = 1e-12) -> bool:
        check_delta(delta)
        return all(rep.worst_need_delta <= delta + tol
                   for rep in self.families.values())


def _entries(counts: dict, denom: int, values: dict, n: int, offset: float,
             coeff: int, worst: float) -> tuple[float, tuple[TypeTallyEntry, ...]]:
    """Entries for lhs = count / denom in key order, and the largest need
    among them and ``worst``."""
    entries = []
    for key, cnt in sorted(counts.items()):
        lhs = Fraction(cnt, denom)
        need = _need(math.log2(lhs.numerator) - math.log2(lhs.denominator),
                     values[key], n, offset, coeff)
        worst = max(worst, need)
        entries.append(TypeTallyEntry(key, cnt, lhs, values[key], need))
    return worst, tuple(entries)


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
        tally = _tally_family(pair, family, range(pair.m_x), range(pair.m_y))
        f_of = _family_exponents(pair, family, tally, rates)
        totals, peaks = _totals_and_peaks(tally)
        del tally  # hold one family's tally at a time
        coeff = AVG_DELTA_COEFF[family]
        avg[family] = FamilyReport(family, coeff, 0.0, *_entries(
            totals, pair.m_x * pair.m_y, f_of, pair.n, 0.0, coeff, -math.inf))
        peak[family] = FamilyReport(family, coeff, offset, *_entries(
            peaks, 1, f_of, pair.n, offset, coeff, -math.inf))
    return (PackingReport(pair.n, rates, "average", avg),
            PackingReport(pair.n, rates, "per_pair_max", peak))


@dataclass(frozen=True)
class StageReport:
    family: str
    book: str
    kept: tuple[int, ...]
    threshold_score: float


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


def _worst_pair_need(counts: dict, f_of: dict, n: int, offset: float,
                     coeff: int) -> float:
    """Smallest delta validating one message pair's per-pair bounds."""
    worst = 0.0
    for key, cnt in counts.items():
        worst = max(worst, _need(math.log2(cnt), f_of[key], n, offset, coeff))
    return worst


def _pair_needs(pair: CodebookPair, tallies: dict, f_of: dict,
                rates: RatePair) -> dict[str, dict[tuple, float]]:
    """Per family, each message pair's worst per-pair need at min-rate
    offset."""
    return {family: {ij: _worst_pair_need(counts, f_of[family], pair.n,
                                          rates.lower, PAIR_DELTA_COEFF[family])
                     for ij, counts in tallies[family].items()}
            for family in FAMILY_ORDER}


def _achieved_deltas(needs: dict) -> dict[str, float]:
    """Smallest delta validating every per-pair bound of each family."""
    return {family: max(needs[family].values(), default=0.0)
            for family in FAMILY_ORDER}


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
    books, stage logs, and the delta each family actually achieves.
    """
    check_delta(delta)
    rates = pair.rates
    full_x = tuple(range(pair.m_x))
    full_y = tuple(range(pair.m_y))
    # The exponent of a type depends only on the type and the original
    # rates, and the kept rows realize a subset of the full rows' types, so
    # one exponent table per family serves every stage.
    tallies = {f: _tally_family(pair, f, full_x, full_y) for f in FAMILY_ORDER}
    f_of = {f: _family_exponents(pair, f, tallies[f], rates) for f in FAMILY_ORDER}
    needs = _pair_needs(pair, tallies, f_of, rates)
    start = _achieved_deltas(needs)
    base = dict(final=pair, kept_x=full_x, kept_y=full_y,
                target_delta=delta, original_sizes=(pair.m_x, pair.m_y))
    if max(start.values()) <= delta:
        return ExpurgationResult(stages=(), achieved_delta=start,
                                 expurgated_book="none", product_ok=True, **base)

    score_y = rates.rx <= rates.ry
    book = "Y" if score_y else "X"
    if (pair.m_y if score_y else pair.m_x) < 2:
        return ExpurgationResult(stages=(), achieved_delta=start,
                                 expurgated_book=book, product_ok=True, **base)

    order = (("pair", "triple_x", "triple_y", "quad") if score_y
             else ("pair", "triple_y", "triple_x", "quad"))
    active = list(range(pair.m_y if score_y else pair.m_x))
    others = full_x if score_y else full_y
    stages = []
    for family in order:
        need = needs[family]
        scores = [max(need[(o, w) if score_y else (w, o)] for o in others)
                  for w in active]
        keep_count = (len(active) + 1) // 2
        ranking = np.argsort(np.asarray(scores), kind="stable")
        kept = sorted(active[t] for t in ranking[:keep_count])
        stages.append(StageReport(family, book, tuple(kept),
                                  float(scores[ranking[keep_count - 1]])))
        active = kept

    kept_x = full_x if score_y else tuple(active)
    kept_y = tuple(active) if score_y else full_y
    final = pair.restrict(kept_x, kept_y)
    kept_tallies = {f: _tally_family(pair, f, kept_x, kept_y) for f in FAMILY_ORDER}
    achieved = _achieved_deltas(_pair_needs(pair, kept_tallies, f_of, rates))
    product_ok = 16 * len(kept_x) * len(kept_y) >= pair.m_x * pair.m_y
    return ExpurgationResult(final=final, kept_x=kept_x, kept_y=kept_y,
                             expurgated_book=book, stages=tuple(stages),
                             achieved_delta=achieved, target_delta=delta,
                             original_sizes=(pair.m_x, pair.m_y),
                             product_ok=product_ok)


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


def audit_confusability(pair: CodebookPair, rates: RatePair, delta: float,
                        law: InputLaw | None = None) -> AuditReport:
    """Check every realized competitor joint type against the exponent
    engine's rate-constraint family.

    Patterns sharing a joint type are checked once.  The default law is
    the one the books realize exactly, so marginal pinning holds by
    construction and any violation is a genuine rate-constraint failure.
    """
    check_delta(delta)
    if law is None:
        law = pair.input_law()
    x_rows = range(pair.m_x)
    y_rows = range(pair.m_y)
    violations = []
    pattern_counts: dict[str, int] = {}
    distinct: dict[str, int] = {}
    for family in FAMILY_ORDER:
        tally = _tally_family(pair, family, x_rows, y_rows)
        axes = _family_axes(pair, family)
        reps: dict[tuple, tuple] = {}
        total = 0
        for ij, d in tally.items():
            for key, cnt in d.items():
                total += cnt
                if key not in reps:
                    reps[key] = ij
        pattern_counts[family] = total
        distinct[family] = len(reps)
        keys = sorted(reps)
        checks = confusability_checks(_type_batch(keys, axes, pair.n), law,
                                      rates, delta)
        for r, c in zip(*np.nonzero(checks.violated)):
            violations.append(AuditViolation(
                family, reps[keys[r]], checks.names[c],
                float(checks.lhs[r, c]), checks.rhs[c]))
    return AuditReport(len(violations) == 0, pattern_counts, distinct,
                       tuple(violations))


@dataclass(frozen=True)
class SingleUserReport:
    n: int
    rate: float
    avg_worst_need_delta: float
    per_word_worst_need_delta: float
    avg_entries: tuple[TypeTallyEntry, ...]

    def satisfied(self, delta: float, tol: float = 1e-12) -> bool:
        check_delta(delta)
        return (self.avg_worst_need_delta <= delta + tol
                and self.per_word_worst_need_delta <= delta + tol)


def single_user_packing_check(u_seq: SymbolSequence, book: np.ndarray,
                              alphabet: Alphabet) -> SingleUserReport:
    """Packing tallies for one book against its own wrong words.

    For each realized (U, X, X~) type with I = I(X; X~ | U): the average
    over words i of #{k != i with that type} is compared to
    2^(-n (I - R - 2 delta)), the per-word maximum to
    2^(-n (I - 2R - 3 delta)).
    """
    book = _as_int_matrix(book, "book")
    m, n = book.shape
    u = u_seq.array()
    if m < 1 or n != u.size:
        raise ValidationError("book shape does not match the shared sequence")
    rate = math.log2(m) / n
    tally = _tally(u, u_seq.alphabet.size, ((book, alphabet.size),),
                   (range(m),), (0,))
    axes = (u_seq.alphabet.relabel("U"), alphabet.relabel("X"),
            alphabet.relabel("X~"))
    info = _type_values(tally, axes, n, lambda batch: batch.per_chunk(
        lambda chunk: chunk.conditional_mutual_information(("X",), ("X~",), ("U",))))
    totals, peaks = _totals_and_peaks(tally)
    avg_worst, entries = _entries(totals, m, info, n, rate, 2, 0.0)
    peak_worst, _ = _entries(peaks, 1, info, n, 2 * rate, 3, 0.0)
    return SingleUserReport(n, rate, avg_worst, peak_worst, entries)
