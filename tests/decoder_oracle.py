"""One-sequence-at-a-time reference decoder, for tests.

This is the minimum-equivocation decoder written the plain way: each
received sequence gets its own (P, cells) count table filled by
``np.add.at``, the winner is the first index within the tie tolerance of
the minimum, Monte Carlo decodes trial by trial, and exact enumeration
walks ``itertools.product`` and adds each output's error mass in turn.
It reads only the public attributes of the codebook pair and channel, so
the package's block scorer is checked against an independent route.

The floating-point operations and their order are those of the block
scorer's contract (the same x log x table, per-row sums and enumeration
order), so agreement is exact, not within a tolerance.
"""

from itertools import product

import numpy as np

TIE_TOL = 1e-12  # decoder tie tolerance, must match the package
RNG_BLOCK = 4096  # Monte Carlo trials per seeded generator, ditto


def xlogx(n):
    table = np.zeros(n + 1, dtype=np.float64)
    g = np.arange(1, n + 1, dtype=np.float64)
    table[1:] = g * np.log2(g)
    return table


def pair_bases(pair):
    sx, sy = pair.x_alphabet.size, pair.y_alphabet.size
    b = (pair.u_seq[None, None, :] * sx + pair.x_book[:, None, :]) * sy \
        + pair.y_book[None, :, :]
    return b.reshape(-1, pair.n)


def scores(pair, sz, z):
    """H(X,Y | Z,U) of every candidate pair's empirical type, flat (P,)."""
    n = pair.n
    table = xlogx(n)
    bases = pair_bases(pair)
    cells4 = (pair.u_alphabet.size * pair.x_alphabet.size
              * pair.y_alphabet.size * sz)
    idx = bases * sz + np.asarray(z, dtype=np.int64)[None, :]
    p_count = bases.shape[0]
    counts = np.zeros((p_count, cells4), dtype=np.int64)
    np.add.at(counts, (np.repeat(np.arange(p_count), n), idx.ravel()), 1)
    xl4 = np.take(table, counts).sum(axis=1)
    cuz = np.bincount(pair.u_seq * sz + z, minlength=pair.u_alphabet.size * sz)
    xl_uz = float(np.take(table, cuz).sum())
    return (xl_uz - xl4) / n


def decide(s):
    best = s.min()
    tied = np.flatnonzero(s <= best + TIE_TOL)
    return int(tied[0]), tied.size > 1


def mc_errors(pair, w, trials, seed):
    """Error count of the Monte Carlo estimate, one trial at a time."""
    sz = w.z_alphabet.size
    n = pair.n
    errors = 0
    done = 0
    blk = 0
    while done < trials:
        b = min(RNG_BLOCK, trials - done)
        rng = np.random.default_rng(np.random.SeedSequence((seed, blk)))
        ii = rng.integers(0, pair.m_x, size=b)
        jj = rng.integers(0, pair.m_y, size=b)
        rows = w.w[pair.x_book[ii], pair.y_book[jj], :]
        cdf = np.cumsum(rows, axis=-1)
        r = rng.random((b, n, 1))
        z_all = np.minimum((r >= cdf).sum(axis=-1), sz - 1)
        for t in range(b):
            winner, ambiguous = decide(scores(pair, sz, z_all[t]))
            if ambiguous or winner != ii[t] * pair.m_y + jj[t]:
                errors += 1
        done += b
        blk += 1
    return errors


def exact_errors(pair, w):
    """(P,) error probability per message pair, one output at a time."""
    sz = w.z_alphabet.size
    n = pair.n
    p_count = pair.m_x * pair.m_y
    with np.errstate(divide="ignore"):
        logw = np.log2(w.w)
    pos_ll = logw[pair.x_book[:, None, :], pair.y_book[None, :, :], :] \
        .reshape(p_count, n, sz)
    err = np.zeros(p_count)
    for z_tuple in product(range(sz), repeat=n):
        z = np.asarray(z_tuple, dtype=np.int64)
        like = np.exp2(pos_ll[:, np.arange(n), z].sum(axis=1))
        if not like.any():
            continue
        winner, ambiguous = decide(scores(pair, sz, z))
        if ambiguous:
            err += like
        else:
            mask = np.ones(p_count, dtype=bool)
            mask[winner] = False
            err += like * mask
    return err
