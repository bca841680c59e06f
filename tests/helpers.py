"""Shared builders for the test suite.

Channels are built as dense (x, y, z) arrays; laws via the component
constructor.  Random channels get a 0.05 probability floor so every
divergence stays finite and small perturbations stay well conditioned.
"""

import random

import numpy as np

from macexp import Alphabet, Channel, InputLaw, SymbolSequence, TypeVector
from macexp.codebooks import generate_codebooks
from macexp.exponents import _branch_axes
from macexp.fileio import codebook_from_dict


def chan(rows3) -> Channel:
    a = np.asarray(rows3, dtype=np.float64)
    return Channel(Alphabet(a.shape[0], "X"), Alphabet(a.shape[1], "Y"),
                   Alphabet(a.shape[2], "Z"), a)


def xor_bsc(eps: float) -> Channel:
    """Binary adder mod 2 followed by a symmetric bit flip."""
    w = np.zeros((2, 2, 2))
    for x in range(2):
        for y in range(2):
            w[x, y, x ^ y] = 1.0 - eps
            w[x, y, 1 - (x ^ y)] = eps
    return chan(w)


def identity_channel() -> Channel:
    """Noiseless channel revealing the pair: z = 2 x + y."""
    w = np.zeros((2, 2, 4))
    for x in range(2):
        for y in range(2):
            w[x, y, 2 * x + y] = 1.0
    return chan(w)


def adder_channel() -> Channel:
    """Binary adder: z = x + y over {0, 1, 2}."""
    w = np.zeros((2, 2, 3))
    for x in range(2):
        for y in range(2):
            w[x, y, x + y] = 1.0
    return chan(w)


def useless_channel() -> Channel:
    w = np.full((2, 2, 2), 0.5)
    return chan(w)


def random_channel(rng, sx: int = 2, sy: int = 2, sz: int = 2) -> Channel:
    w = rng.gamma(1.0, 1.0, size=(sx, sy, sz)) + 0.05
    w /= w.sum(axis=2, keepdims=True)
    return chan(w)


UNIFORM_COMPONENTS = ([1.0], [[0.5, 0.5]], [[0.5, 0.5]])


def uniform_law() -> InputLaw:
    return InputLaw.from_components(*UNIFORM_COMPONENTS)


def branch_sizes(spec, law: InputLaw, w: Channel) -> tuple[int, ...]:
    """The axis sizes of a branch over this law and channel."""
    return tuple(a.size for a in _branch_axes(spec, law, w))


def binary_codebooks(n: int, m_x: int, m_y: int, seed: int,
                     x_ones: int | None = None, y_ones: int | None = None):
    """Books over binary alphabets with a constant (single-symbol) u."""
    x_ones = n // 2 if x_ones is None else x_ones
    y_ones = n // 2 if y_ones is None else y_ones
    u_alph = Alphabet(1, "U")
    x_alph = Alphabet(2, "X")
    y_alph = Alphabet(2, "Y")
    u_seq = SymbolSequence(u_alph, (0,) * n)
    p_ux = TypeVector((u_alph, x_alph),
                      np.asarray([[n - x_ones, x_ones]], dtype=np.int64), n)
    p_uy = TypeVector((u_alph, y_alph),
                      np.asarray([[n - y_ones, y_ones]], dtype=np.int64), n)
    return generate_codebooks(p_ux, p_uy, u_seq, m_x, m_y, seed)


def mixed_pair():
    """Books over a two-symbol u with a ternary X and a binary Y alphabet.

    With |X| != |Y| and |U| = 2, a tally that swaps the X and Y sizes or
    the order of the competitor axes produces different type keys.
    """
    u_alph, x_alph, y_alph = Alphabet(2, "U"), Alphabet(3, "X"), Alphabet(2, "Y")
    u_seq = SymbolSequence(u_alph, (0, 1, 1, 0, 0, 1, 0, 1))
    p_ux = TypeVector((u_alph, x_alph),
                      np.asarray([[2, 1, 1], [1, 1, 2]], dtype=np.int64), 8)
    p_uy = TypeVector((u_alph, y_alph),
                      np.asarray([[2, 2], [1, 3]], dtype=np.int64), 8)
    return generate_codebooks(p_ux, p_uy, u_seq, 6, 4, rng=5)


def perfbench_book(variant: int, prefix: str, m: int, n: int):
    """The books of one variant of a perfbench workload, ``prefix``
    "decode" (decode_n12) or "codebook" (codebook_check_n12): two books of
    m distinct binary words with n/2 ones, drawn by shuffling from one
    stream seeded by the prefix and the variant."""
    rng = random.Random(f"{prefix}-{variant}")

    def book():
        words = []
        while len(words) < m:
            word = [0] * (n // 2) + [1] * (n - n // 2)
            rng.shuffle(word)
            if word not in words:
                words.append(word)
        return words

    half = [[n // 2, n - n // 2]]
    return codebook_from_dict({
        "kind": "codebook_pair", "n": n, "u_size": 1, "x_size": 2,
        "y_size": 2, "u": [0] * n, "cx": book(), "cy": book(),
        "p_ux": half, "p_uy": half})
