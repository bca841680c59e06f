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

One block scorer serves every decoder: it counts the joint types of a
block of received sequences against all candidate pairs at once, in
chunks whose scratch arrays hold at most SCORE_CELLS entries each, and
decides each chunk before scoring the next.  Monte Carlo scores each
distinct received sequence of an RNG block once, and remembers up to
MEMO_ENTRIES decisions across blocks; the exact path generates its outputs
chunk by chunk and adds their error mass in enumeration order.  The RNG
draws and the order of every floating-point operation are those of a
decoder that scores one sequence at a time, so both estimates equal that
decoder's bit for bit (``tests/decoder_oracle.py`` is such a decoder).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .codebooks import CodebookPair
from .errors import ScaleGuardError, ValidationError
from .probability import Channel
from .typeclasses import distinct_rows, xlogx_table

TIE_TOL = 1e-12
MAX_EXACT_OUTPUTS = 1 << 22
RNG_BLOCK = 4096
# entries per scratch array of a scored chunk (512 KB of int64); larger
# chunks raise peak memory without speeding up the scorer
SCORE_CELLS = 1 << 16
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


def _check_channel(pair: CodebookPair, w: Channel) -> None:
    if (w.x_alphabet.size != pair.x_alphabet.size
            or w.y_alphabet.size != pair.y_alphabet.size):
        raise ValidationError("channel alphabets do not match the codebooks")


class _BlockScorer:
    """Decoder scores of blocks of received sequences for one codebook pair."""

    def __init__(self, pair: CodebookPair, sz: int) -> None:
        self.n = pair.n
        self.p_count = pair.m_x * pair.m_y
        su, sx, sy = (pair.u_alphabet.size, pair.x_alphabet.size,
                      pair.y_alphabet.size)
        self.cells = su * sx * sy * sz
        self.uz_cells = su * sz
        # (P, n) flat cell index of (u_t, x_t, y_t, 0) for each pair
        self.pair_cells = (((pair.u_seq * sx + pair.x_book[:, None, :]) * sy
                            + pair.y_book[None, :, :]) * sz).reshape(-1, pair.n)
        self.u_cells = pair.u_seq * sz
        self.table = xlogx_table(pair.n)
        # each (B, P, cells) or (B, P, n) array of a chunk stays within
        # SCORE_CELLS entries
        self.chunk_rows = max(
            1, SCORE_CELLS // (self.p_count * max(self.cells, self.n)))

    def score(self, z: np.ndarray):
        """Scores (B, P), winner (B,) and ambiguity (B,) of a (B, n) block.

        The winner is the lowest index whose score is within TIE_TOL of the
        row minimum; a row is ambiguous when more than one pair is.
        """
        b, p_count = z.shape[0], self.p_count
        rows = np.arange(b * p_count).reshape(b, p_count, 1) * self.cells
        idx = rows + self.pair_cells + z[:, None, :]
        counts = np.bincount(idx.ravel(), minlength=b * p_count * self.cells)
        xl4 = np.take(self.table, counts.reshape(b * p_count, self.cells)) \
            .sum(axis=1).reshape(b, p_count)
        uz = np.arange(b)[:, None] * self.uz_cells + self.u_cells + z
        cuz = np.bincount(uz.ravel(), minlength=b * self.uz_cells)
        xl_uz = np.take(self.table, cuz.reshape(b, self.uz_cells)).sum(axis=1)
        scores = (xl_uz[:, None] - xl4) / self.n
        tied = scores <= scores.min(axis=1, keepdims=True) + TIE_TOL
        return scores, tied.argmax(axis=1), tied.sum(axis=1) > 1

    def decode(self, z: np.ndarray) -> np.ndarray:
        """Decoded flat pair index of each row of z, -1 where ambiguous."""
        out = np.empty(z.shape[0], dtype=np.int64)
        for s in range(0, z.shape[0], self.chunk_rows):
            _, winner, ambiguous = self.score(z[s:s + self.chunk_rows])
            out[s:s + self.chunk_rows] = np.where(ambiguous, -1, winner)
        return out


def _score_one(pair: CodebookPair, w: Channel, z_seq):
    _check_channel(pair, w)
    z = np.asarray(z_seq)
    if z.shape != (pair.n,):
        raise ValidationError(f"z_seq must have shape ({pair.n},)")
    if z.dtype.kind not in "iu":
        raise ValidationError("z_seq must hold integer symbols")
    sz = w.z_alphabet.size
    if z.min() < 0 or z.max() >= sz:
        raise ValidationError("z_seq contains symbols outside the output alphabet")
    scores, winner, ambiguous = _BlockScorer(pair, sz).score(
        z.astype(np.int64)[None, :])
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
    _check_channel(pair, w)
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


def _check_count(name: str, value, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer")
    if value < least:
        raise ValidationError(f"{name} must be >= {least}")


def error_prob_mc(pair: CodebookPair, w: Channel, trials: int, seed: int
                  ) -> ErrorEstimate:
    """Monte Carlo error estimate under uniform messages.

    Trials are grouped into fixed blocks of RNG_BLOCK, each with its own
    generator seeded from (seed, block index): reruns reproduce exactly,
    and growing the trial count extends the sequence without disturbing
    earlier trials.  Each distinct received sequence is decoded once.
    """
    _check_channel(pair, w)
    _check_count("trials", trials, 1)
    _check_count("seed", seed, 0)
    sz = w.z_alphabet.size
    n = pair.n
    scorer = _BlockScorer(pair, sz)
    key_type = np.min_scalar_type(sz - 1)
    memo: dict[bytes, int] = {}
    errors = 0
    done = 0
    blk = 0
    while done < trials:
        b = min(RNG_BLOCK, trials - done)
        rng = np.random.default_rng(np.random.SeedSequence((seed, blk)))
        ii = rng.integers(0, pair.m_x, size=b)
        jj = rng.integers(0, pair.m_y, size=b)
        rows = w.w[pair.x_book[ii], pair.y_book[jj], :]      # (b, n, sz)
        cdf = np.cumsum(rows, axis=-1)
        r = rng.random((b, n, 1))
        z_all = np.minimum((r >= cdf).sum(axis=-1), sz - 1)
        del rows, cdf, r
        distinct, inverse = distinct_rows(z_all)
        keys = [row.tobytes() for row in distinct.astype(key_type)]
        decoded = np.fromiter((memo.get(k, -2) for k in keys), np.int64,
                              len(keys))
        fresh = np.flatnonzero(decoded == -2)
        decoded[fresh] = scorer.decode(distinct[fresh])
        for k in fresh[:max(0, MEMO_ENTRIES - len(memo))]:
            memo[keys[k]] = int(decoded[k])
        truth = ii * pair.m_y + jj
        errors += int(np.count_nonzero(decoded[inverse] != truth))
        done += b
        blk += 1
    p = errors / trials
    stderr = math.sqrt(p * (1.0 - p) / trials)
    return ErrorEstimate(float(p), float(stderr), trials, "mc")


def bound_curve(exponent: float, n_values, delta: float = 0.0) -> np.ndarray:
    """Upper-bound curve 2^(-n (exponent - delta)) over blocklengths."""
    ns = np.asarray(list(n_values), dtype=np.float64)
    if ns.size and ns.min() < 1:
        raise ValidationError("blocklengths must be >= 1")
    return np.exp2(-ns * (exponent - delta))
