"""Minimum-equivocation decoding and block error probability estimation.

The decoder scores a candidate pair (i, j) by the conditional entropy
H(X,Y | Z,U) of the empirical joint type of (u, x_i, y_j, z) and picks the
smallest score; near ties (within TIE_TOL) are declared ambiguous and
count as errors.  An error to a competitor therefore requires the true
pair's equivocation to weakly exceed the competitor's, which is exactly
the event the exponent minimization constrains.

Error probability under uniform messages is computed exactly by output
enumeration for small |Z|^n, or by Monte Carlo with block-indexed seeding
so estimates are reproducible and independent of block scheduling.

One block scorer serves every decoder.  A score depends only on the
joint type of (u, x_i, y_j, z), so the scorer sums each type's x log x
terms once, into a table built per codebook pair.  Pairs with equal
(u, x, y) counts n_c form a class; a sequence's type with a pair of the
class is fixed by its counts k_{c,z}, z < |Z| - 1, which the class numbers
in mixed radix n_c + 1.  One 2-D matrix product gives a chunk of received
sequences its entries: fixed rows that hold each pair's place of every
(position, symbol) in its class's numbering, times the chunk's one-hot
outputs.  The table is built only when all classes together hold at most
ENTROPY_CELLS entries.  Otherwise the scorer counts the chunk's types
against all pairs with one product of a fixed cell-major 0/1 matrix, which
marks where each pair sits in each (u, x, y) cell, and the chunk's one-hot
outputs.  Products are sums of whole numbers, exact in any summation
order.  Either way a type's score adds its x log x terms over the cells in
C order, in the order numpy sums one row of them
(``probability.term_sums``), so every score keeps the bits of a row sum.
The scorer works in chunks whose scratch arrays hold at most ENTROPY_CELLS
entries each, and decides each chunk along the pair axis before scoring
the next.  Monte Carlo packs each received sequence into int64 code
words of radix |Z| (``typeclasses.code_places``), scores each distinct
code of an RNG block once, and remembers up to MEMO_ENTRIES
decisions across blocks in a sorted code table; one sort of the table and
the block's codes finds both the block's distinct codes and the remembered
ones.  The exact path generates its outputs chunk by chunk and adds their
error mass in enumeration order.  The RNG draws, and the floating-point
operations on scores and error masses in their order, are those of a
decoder that scores one sequence at a time, so both estimates equal that
decoder's bit for bit (``tests/decoder_oracle.py`` is such a decoder).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codebooks import CodebookPair, check_channel
from .errors import ScaleGuardError, ValidationError, check_count, check_symbols
from .probability import ENTROPY_CELLS, Channel, term_sums
from .typeclasses import code_places, distinct_rows, xlogx_table

TIE_TOL = 1e-12
MAX_EXACT_OUTPUTS = 1 << 22
RNG_BLOCK = 4096
# decisions remembered across Monte Carlo blocks
MEMO_ENTRIES = 1 << 16


@dataclass(frozen=True)
class DecodeOutcome:
    i: int | None
    j: int | None
    ambiguous: bool
    score: float


@dataclass(frozen=True)
class ErrorEstimate:
    p: float
    stderr: float
    trials: int
    method: str
    per_pair: np.ndarray | None = None


class _BlockScorer:
    """Decoder scores of blocks of received sequences for one codebook pair."""

    def __init__(self, pair: CodebookPair, sz: int) -> None:
        n = self.n = pair.n
        self.sz = sz
        self.p_count = p_count = pair.m_x * pair.m_y
        su, sx, sy = (pair.u_alphabet.size, pair.x_alphabet.size,
                      pair.y_alphabet.size)
        self.uxy = su * sx * sy
        self.cells = self.uxy * sz
        self.su = su
        self.xlogx = xlogx_table(n)
        # per received sequence: the count tensor's P cells entries, the
        # output one-hot's n |Z| and the exact path's P n log-likelihoods;
        # each array of a chunk stays within ENTROPY_CELLS entries (512 KB
        # at 8 bytes).  On a 12x12 binary pair at n = 12, chunks 4 times
        # larger score in about the same time and 16 times larger take
        # about 15% longer, at that much more memory
        self.chunk_rows = max(1, ENTROPY_CELLS // max(
            p_count * max(self.cells, n), n * sz))
        # a chunk's cell codes and x log x terms, reused from chunk to
        # chunk: arrays this large made anew for every chunk can cost a page
        # fault per 4 KB each time, when the allocator hands the freed top
        # of its heap back to the system
        self._codes = np.empty(0, dtype=np.intp)
        self._terms = np.empty(0)
        # (P, n): the (u, x, y) cell of each pair at each position.  Counts
        # are sums of at most n ones, exact in any summation order: in
        # float32 up to n = 2^24
        cell = ((pair.u_seq * sx + pair.x_book[:, None, :]) * sy
                + pair.y_book[None, :, :]).reshape(-1, n)
        self.dtype = np.float32 if n <= 1 << 24 else np.float64
        self.index, self.types = (self._type_table(cell, pair.u_seq)
                                  or (None, None))
        if self.types is None:
            # (|U||X||Y| P, n) one-hot, cell-major: row c P + p marks the
            # positions where pair p sits in (u, x, y) cell c, so its
            # product with a chunk's (n, |Z| B) output one-hot holds every
            # pair's counts as (cell, pair, z, sequence)
            self.onehot = np.zeros((self.uxy * p_count, n), self.dtype)
            self.onehot[cell * p_count + np.arange(p_count)[:, None],
                        np.arange(n)] = 1.0

    def _type_table(self, cell: np.ndarray, u_seq: np.ndarray):
        """Index rows and the x log x sum of every joint type a pair can
        have with a received sequence; None if the sums take more than
        ENTROPY_CELLS entries.

        Pairs with equal (u, x, y) counts n_c form a class.  A sequence's
        type with a pair of the class is fixed by its counts k_{c,z} for
        z < |Z| - 1; the class numbers them in mixed radix n_c + 1, first
        digit least significant, after the entries of the classes before
        it.  For |Z| >= 3 no sequence reaches an entry whose last count
        n_c - sum_z k_{c,z} is negative; it holds some finite value.  The
        index rows' product with a chunk's (n |Z|, B) output one-hot gives
        each (pair, sequence) its entry, then the chunk's (u, z) counts:
        sums of whole numbers below ENTROPY_CELLS and n, exact in float32.
        """
        n, sz, p_count = self.n, self.sz, cell.shape[0]
        counts = np.bincount(
            (np.arange(p_count)[:, None] * self.uxy + cell).ravel(),
            minlength=p_count * self.uxy).reshape(p_count, self.uxy)
        classes, member = distinct_rows(counts)
        sizes, total = [], 0
        for row in classes.tolist():
            sizes.append(math.prod(c + 1 for c in row) ** (sz - 1))
            total += sizes[-1]
            if total > ENTROPY_CELLS:
                return None
        offsets = np.cumsum([0] + sizes[:-1])
        # radix and place of every digit k_{c,z}, in (c, z) C order
        radix = np.repeat(classes + 1, sz - 1, axis=1)
        place = np.cumprod(radix, axis=1) // radix
        # each position adds its output symbol's place (the last symbol
        # has none); the first also adds the class offset
        places = np.zeros((len(classes), self.uxy, sz), dtype=np.int64)
        places[:, :, :-1] = place.reshape(len(classes), self.uxy, sz - 1)
        stride = places[member[:, None], cell]
        stride[:, 0] += offsets[member][:, None]
        uz = np.zeros((self.su, sz, n, sz), self.dtype)
        uz[u_seq[:, None], np.arange(sz), np.arange(n)[:, None],
           np.arange(sz)] = 1.0
        index = np.concatenate((stride.reshape(p_count, n * sz),
                                uz.reshape(-1, n * sz))).astype(self.dtype)
        types = np.empty(total)
        step = max(1, ENTROPY_CELLS // self.cells)
        for start in range(0, total, step):
            stop = min(start + step, total)
            entry = np.arange(start, stop)
            k = np.searchsorted(offsets, entry, side="right") - 1
            # (u x y, z, entry) count columns of these entries
            column = np.empty((self.uxy, sz, entry.size), dtype=np.int64)
            column[:, :-1] = ((entry - offsets[k]) // place[k].T
                              % radix[k].T).reshape(self.uxy, sz - 1, -1)
            column[:, -1] = classes[k].T - column[:, :-1].sum(axis=1)
            types[start:stop] = self._xlogx_sums(column.reshape(self.cells, -1))
        return index, types

    def _xlogx_sums(self, counts: np.ndarray) -> np.ndarray:
        """The x log x sum of each column of a (cells, ...) count array,
        adding its cells in C order as numpy sums one row of them."""
        if counts.size > self._terms.size:
            self._terms = np.empty(counts.size)
        # every count is 0..n, except the negative ones of table entries no
        # sequence reaches, so "clip" clips no count that is used; unlike
        # the default mode it lets take write straight into out
        return term_sums(np.take(
            self.xlogx, counts, mode="clip",
            out=self._terms[:counts.size].reshape(counts.shape)))

    def score(self, z: np.ndarray):
        """Scores (B, P), winner (B,) and ambiguity (B,) of a (B, n) block.

        The winner is the lowest index whose score is within TIE_TOL of the
        row minimum; a row is ambiguous when more than one pair is.
        """
        b, n, sz, p_count = z.shape[0], self.n, self.sz, self.p_count
        outputs = np.zeros((n, sz, b), dtype=self.dtype)
        outputs[np.arange(n)[:, None], z.T, np.arange(b)] = 1.0
        if self.types is not None:
            found = np.matmul(self.index, outputs.reshape(n * sz, b))
            xl4 = self.types.take(found[:p_count].astype(np.intp))
            cuz = found[p_count:].astype(np.intp)
        else:
            size = self.cells * p_count * b
            if size > self._codes.size:
                self._codes = np.empty(size, dtype=np.intp)
            counts = np.matmul(self.onehot, outputs.reshape(n, sz * b))
            # (u x y, z, pair, sequence): a cell's (P, B) counts are
            # contiguous
            codes = self._codes[:size].reshape(self.uxy, sz, p_count, b)
            np.copyto(codes, counts.reshape(self.uxy, p_count, sz, b)
                      .transpose(0, 2, 1, 3), casting="unsafe")
            xl4 = self._xlogx_sums(codes.reshape(self.cells, p_count, b))
            # any one pair's counts, summed over (x, y): the (u, z) counts
            cuz = codes[:, :, 0].reshape(self.su, -1, sz, b).sum(axis=1)
        xl_uz = self._xlogx_sums(cuz.reshape(-1, b))
        scores = (xl_uz - xl4) / n
        tied = scores <= scores.min(axis=0) + TIE_TOL
        return scores.T, tied.argmax(axis=0), tied.sum(axis=0) > 1

    def decode(self, z: np.ndarray) -> np.ndarray:
        """Decoded flat pair index of each row of z, -1 where ambiguous."""
        out = np.empty(z.shape[0], dtype=np.int64)
        for s in range(0, z.shape[0], self.chunk_rows):
            _, winner, ambiguous = self.score(z[s:s + self.chunk_rows])
            out[s:s + self.chunk_rows] = np.where(ambiguous, -1, winner)
        return out


def _score_one(pair: CodebookPair, w: Channel, z_seq):
    check_channel(pair, w)
    sz = w.z_alphabet.size
    z = check_symbols(z_seq, sz, "z_seq")
    if z.shape != (pair.n,):
        raise ValidationError(f"z_seq must have shape ({pair.n},)")
    scores, winner, ambiguous = _BlockScorer(pair, sz).score(z[None, :])
    return scores[0], int(winner[0]), bool(ambiguous[0])


def equivocation_scores(pair: CodebookPair, w: Channel, z_seq) -> np.ndarray:
    """(m_x, m_y) matrix of decoder scores for one received sequence."""
    return _score_one(pair, w, z_seq)[0].reshape(pair.m_x, pair.m_y)


def alpha_decode(pair: CodebookPair, w: Channel, z_seq) -> DecodeOutcome:
    """Decode one received sequence; ties are ambiguous (an error)."""
    scores, winner, ambiguous = _score_one(pair, w, z_seq)
    if ambiguous:
        return DecodeOutcome(None, None, True, float(scores[winner]))
    return DecodeOutcome(winner // pair.m_y, winner % pair.m_y, False,
                         float(scores[winner]))


def error_prob_exact(pair: CodebookPair, w: Channel,
                     max_outputs: int = MAX_EXACT_OUTPUTS) -> ErrorEstimate:
    """Exact average error probability by enumerating every output sequence.

    Cost grows as |Z|^n times the number of candidate pairs; the guard
    refuses beyond ``max_outputs`` output sequences.  Outputs are generated
    chunk by chunk in lexicographic order, never all at once.
    """
    check_channel(pair, w)
    check_count("max_outputs", max_outputs, 1)
    sz = w.z_alphabet.size
    n = pair.n
    total = sz ** n
    if total > max_outputs:
        raise ScaleGuardError(
            f"|Z|^n = {sz}^{n} exceeds the enumeration guard ({max_outputs}); "
            "use error_prob_mc or raise max_outputs"
        )
    scorer = _BlockScorer(pair, sz)
    p_count = scorer.p_count
    # per-pair log likelihood of each output symbol at each position
    with np.errstate(divide="ignore"):
        logw = np.log2(w.w)
    pos_ll = logw[pair.x_book[:, None, :], pair.y_book[None, :, :], :] \
        .reshape(p_count, n, sz)
    place = sz ** np.arange(n - 1, -1, -1, dtype=np.int64)
    positions = np.arange(n)
    pairs = np.arange(p_count)
    err = np.zeros(p_count)
    for start in range(0, total, scorer.chunk_rows):
        # base-|Z| digits, most significant first: itertools.product order
        z = np.arange(start, min(start + scorer.chunk_rows, total),
                      dtype=np.int64)[:, None] // place % sz
        like = np.exp2(pos_ll[:, positions, z].sum(axis=-1)).T   # (B, P)
        live = like.any(axis=1)
        wrong = scorer.decode(z[live])[:, None] != pairs
        # add output by output: a block-wide sum would reorder the additions
        err = np.add.accumulate(
            np.vstack((err, np.where(wrong, like[live], 0.0))))[-1]
    per_pair = err.reshape(pair.m_x, pair.m_y)
    return ErrorEstimate(float(err.mean()), 0.0, 0, "exact", per_pair)


def error_prob_mc(pair: CodebookPair, w: Channel, trials: int, seed: int
                  ) -> ErrorEstimate:
    """Monte Carlo error estimate under uniform messages.

    Trials are grouped into fixed blocks of RNG_BLOCK, each with its own
    generator seeded from (seed, block index): reruns reproduce exactly,
    and growing the trial count extends the sequence without disturbing
    earlier trials.  Each distinct received sequence of a block is decoded
    once, and remembered decisions are reused in later blocks.
    """
    check_channel(pair, w)
    check_count("trials", trials, 1)
    check_count("seed", seed, 0)
    sz = w.z_alphabet.size
    n = pair.n
    scorer = _BlockScorer(pair, sz)
    # (|Z| - 1, P, n) cumulative channel rows of every pair, last symbol
    # dropped: the rows never decrease, so a uniform r picks symbol
    # min(#{c : r >= cdf[c]}, |Z| - 1) = #{c < |Z| - 1 : r >= cdf[c]}
    cdf = np.cumsum(w.w[pair.x_book[:, None, :], pair.y_book[None, :, :], :],
                    axis=-1).reshape(-1, n, sz)
    cdf = np.ascontiguousarray(np.moveaxis(cdf[..., :-1], -1, 0))
    place = code_places(sz, n).T
    # the memo: distinct code words in ascending order and their decisions
    table = np.zeros((0, place.shape[1]), dtype=np.int64)
    known = np.zeros(0, dtype=np.int64)
    errors = 0
    done = 0
    blk = 0
    while done < trials:
        b = min(RNG_BLOCK, trials - done)
        rng = np.random.default_rng(np.random.SeedSequence((seed, blk)))
        ii = rng.integers(0, pair.m_x, size=b)
        jj = rng.integers(0, pair.m_y, size=b)
        truth = ii * pair.m_y + jj
        z_all = (rng.random((b, n)) >= cdf[:, truth]).sum(axis=0)
        codes, where = distinct_rows(np.concatenate((table, z_all @ place)))
        seen, inverse = where[:len(table)], where[len(table):]
        decided = np.full(len(codes), -2, dtype=np.int64)
        decided[seen] = known
        fresh = np.flatnonzero(decided == -2)
        # a row of the block with each code
        row = np.empty(len(codes), dtype=np.int64)
        row[inverse] = np.arange(b)
        decided[fresh] = scorer.decode(z_all[row[fresh]])
        kept = np.zeros(len(codes), dtype=bool)
        kept[seen] = True
        kept[fresh[:max(0, MEMO_ENTRIES - len(table))]] = True
        table, known = codes[kept], decided[kept]
        errors += int(np.count_nonzero(decided[inverse] != truth))
        done += b
        blk += 1
    p = errors / trials
    stderr = math.sqrt(p * (1.0 - p) / trials)
    return ErrorEstimate(float(p), float(stderr), trials, "mc")

