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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .codebooks import CodebookPair
from .errors import ScaleGuardError, ValidationError
from .probability import Channel
from .typeclasses import xlogx_table

TIE_TOL = 1e-12
MAX_EXACT_OUTPUTS = 1 << 22


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


def _pair_bases(pair: CodebookPair) -> np.ndarray:
    """(m_x * m_y, n) flattened cell index of (u_t, x_t, y_t) per pair."""
    sx, sy = pair.x_alphabet.size, pair.y_alphabet.size
    b = (pair.u_seq[None, None, :] * sx + pair.x_book[:, None, :]) * sy \
        + pair.y_book[None, :, :]
    return b.reshape(-1, pair.n)


def _equivocation_scores(pair: CodebookPair, bases: np.ndarray, sz: int,
                         z: np.ndarray, table: np.ndarray) -> np.ndarray:
    """H(X,Y | Z,U) of every candidate pair's empirical type, flat (P,)."""
    n = pair.n
    cells4 = (pair.u_alphabet.size * pair.x_alphabet.size
              * pair.y_alphabet.size * sz)
    idx = bases * sz + z[None, :]
    p_count = bases.shape[0]
    counts = np.zeros((p_count, cells4), dtype=np.int64)
    np.add.at(counts, (np.repeat(np.arange(p_count), n), idx.ravel()), 1)
    xl4 = np.take(table, counts).sum(axis=1)
    cuz = np.bincount(pair.u_seq * sz + z, minlength=pair.u_alphabet.size * sz)
    xl_uz = float(np.take(table, cuz).sum())
    return (xl_uz - xl4) / n


def equivocation_scores(pair: CodebookPair, w: Channel, z_seq) -> np.ndarray:
    """(m_x, m_y) matrix of decoder scores for one received sequence."""
    _check_channel(pair, w)
    z = np.asarray(z_seq, dtype=np.int64)
    if z.shape != (pair.n,):
        raise ValidationError(f"z_seq must have shape ({pair.n},)")
    sz = w.z_alphabet.size
    if z.min() < 0 or z.max() >= sz:
        raise ValidationError("z_seq contains symbols outside the output alphabet")
    scores = _equivocation_scores(pair, _pair_bases(pair), sz, z,
                                  xlogx_table(pair.n))
    return scores.reshape(pair.m_x, pair.m_y)


def _decide(scores: np.ndarray) -> tuple[int, bool]:
    best = scores.min()
    tied = np.flatnonzero(scores <= best + TIE_TOL)
    return int(tied[0]), tied.size > 1


def alpha_decode(pair: CodebookPair, w: Channel, z_seq) -> DecodeOutcome:
    """Decode one received sequence; ties are ambiguous (an error)."""
    scores = equivocation_scores(pair, w, z_seq).ravel()
    winner, ambiguous = _decide(scores)
    if ambiguous:
        return DecodeOutcome(None, None, True, float(scores[winner]))
    return DecodeOutcome(winner // pair.m_y, winner % pair.m_y, False,
                         float(scores[winner]))


def error_prob_exact(pair: CodebookPair, w: Channel,
                     max_outputs: int = MAX_EXACT_OUTPUTS) -> ErrorEstimate:
    """Exact average error probability by enumerating every output sequence.

    Cost grows as |Z|^n times the number of candidate pairs; the guard
    refuses beyond ``max_outputs`` output sequences.
    """
    _check_channel(pair, w)
    sz = w.z_alphabet.size
    n = pair.n
    if sz ** n > max_outputs:
        raise ScaleGuardError(
            f"|Z|^n = {sz}^{n} exceeds the enumeration guard ({max_outputs}); "
            "use error_prob_mc or raise max_outputs"
        )
    bases = _pair_bases(pair)
    table = xlogx_table(n)
    p_count = bases.shape[0]
    # per-pair log likelihood of each output symbol at each position
    with np.errstate(divide="ignore"):
        logw = np.log2(w.w)
    pos_ll = logw[pair.x_book[:, None, :], pair.y_book[None, :, :], :] \
        .reshape(p_count, n, sz)
    err = np.zeros(p_count)
    for z_tuple in product(range(sz), repeat=n):
        z = np.asarray(z_tuple, dtype=np.int64)
        ll = pos_ll[:, np.arange(n), z].sum(axis=1)
        like = np.exp2(ll)
        if not like.any():
            continue
        scores = _equivocation_scores(pair, bases, sz, z, table)
        winner, ambiguous = _decide(scores)
        if ambiguous:
            err += like
        else:
            mask = np.ones(p_count, dtype=bool)
            mask[winner] = False
            err += like * mask
    per_pair = err.reshape(pair.m_x, pair.m_y)
    return ErrorEstimate(float(err.mean()), 0.0, 0, "exact", per_pair)


RNG_BLOCK = 4096


def error_prob_mc(pair: CodebookPair, w: Channel, trials: int, seed: int
                  ) -> ErrorEstimate:
    """Monte Carlo error estimate under uniform messages.

    Trials are grouped into fixed blocks of RNG_BLOCK, each with its own
    generator seeded from (seed, block index): reruns reproduce exactly,
    and growing the trial count extends the sequence without disturbing
    earlier trials.
    """
    _check_channel(pair, w)
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    sz = w.z_alphabet.size
    n = pair.n
    bases = _pair_bases(pair)
    table = xlogx_table(n)
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
        for t in range(b):
            scores = _equivocation_scores(pair, bases, sz, z_all[t], table)
            winner, ambiguous = _decide(scores)
            if ambiguous or winner != ii[t] * pair.m_y + jj[t]:
                errors += 1
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
