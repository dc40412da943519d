"""TI's v1 stream replay: numpy's SeedSequence hash, PCG64 and ``Generator.choice``,
each run for a whole block of stream keys at once, bit for bit as numpy runs them one key
at a time.

A key ``k``'s stream is ``default_rng(SeedSequence(k))``. ``_seed_words`` hashes a block of
keys as SeedSequence hashes each, and ``_generator`` seeds one key's ``PCG64`` from its words
through a subclass of numpy's seed-sequence interface, defined on first use.
``_holdout_picks`` replays ``choice``'s Floyd steps step-major over a block of keys, drawing
from ``_uint32_draws``, PCG64 run on arrays.
"""

from __future__ import annotations

import functools
import operator
from typing import Callable, Iterator

import numpy as np

# numpy's SeedSequence hash (bit_generator.pyx), fixed under NEP 19.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hasher(const: int, mult: int) -> Callable[[np.ndarray], np.ndarray]:
    """SeedSequence's ``hashmix``, carrying its running hash constant."""
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> 16
    return hashmix


def _seed_words(*key: int | np.ndarray) -> np.ndarray:
    """``SeedSequence(k).generate_state(4, np.uint64)``, one row for each key ``k``
    of ``key`` in C order, all hashed at once as SeedSequence hashes each. An int
    part is shared by every key and coerces to 32-bit words as in SeedSequence; the
    array parts broadcast together, giving each key one part below 2**32."""
    entropy = []  # one uint32 array per entropy word
    for part in key:
        if np.ndim(part) == 0:
            n = operator.index(part)
            entropy += [np.array([n >> s & _MASK32], np.uint32)
                        for s in range(0, n.bit_length() or 1, 32)]
        elif np.any(part > _MASK32):
            raise ValueError("an array key part must fit in one 32-bit word")
        else:
            entropy.append(part.astype(np.uint32))
    entropy += [np.zeros(1, np.uint32)] * (4 - len(entropy))  # fill the 4-word pool
    hashmix = _hasher(_INIT_A, _MULT_A)
    # Past the pool, each entropy word mixes into it just as a pool word does.
    pool = [hashmix(word) for word in entropy[:4]] + entropy[4:]
    for src in range(len(pool)):
        for dst in range(4):
            if src != dst:
                mixed = pool[dst] * _MIX_MULT_L - hashmix(pool[src]) * _MIX_MULT_R
                pool[dst] = mixed ^ mixed >> 16
    hashmix = _hasher(_INIT_B, _MULT_B)
    state = np.stack([hashmix(pool[i % 4]) for i in range(8)], axis=-1)
    return state.astype("<u4").view("<u8").astype(np.uint64).reshape(-1, 4)


@functools.cache
def _pcg64() -> tuple[type, type]:
    """``PCG64``, and the seed sequence that hands it a key's ``_seed_words`` row: looked up and
    defined on first use, so importing the package leaves numpy.random unloaded. A subclass of
    ``ISeedSequence``, not a class registered with it, so that the ABC caches it after the first
    ``isinstance`` check each ``PCG64`` makes."""

    class SeedWords(np.random.bit_generator.ISeedSequence):
        """All PCG64 reads from a SeedSequence: ``generate_state(4, np.uint64)``."""

        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint64) -> np.ndarray:
            return self.words

    return np.random.PCG64, SeedWords


def _generator(words: np.ndarray) -> np.random.Generator:
    """``default_rng(SeedSequence(k))``, from key ``k``'s ``_seed_words`` row."""
    pcg64, seed_words = _pcg64()
    return np.random.Generator(pcg64(seed_words(words)))


# PCG64 (numpy's pcg64.h) on (high, low) uint64 arrays. Constants are uint64 arrays, so
# numpy 1.x's value-based casting and NEP 50 agree, and no scalar overflow warns.
_U1, _U32, _U58, _U63, _U64, _LO32, _2POW32 = (
    np.array([v], np.uint64) for v in (1, 32, 58, 63, 64, _MASK32, 2**32))
_MULT_HI, _MULT_LO = np.array([[2549297995355413924], [4865540595714422341]], np.uint64)


def _uint32_draws(words: np.ndarray) -> Iterator[np.ndarray]:
    """Each key's ``PCG64`` 32-bit draws, one array of keys per step, seeded from its
    ``_seed_words`` row (the last axis) as ``pcg64_set_seed`` seeds: each XSL-RR output,
    low half first, as ``next_uint32``."""
    inc_hi, inc_lo = words[..., 2] << _U1 | words[..., 3] >> _U63, words[..., 3] << _U1 | _U1

    def step(hi, lo):  # state * multiplier + inc; lo * _MULT_LO's high word by 32-bit limbs
        lo0, lo1, mult0, mult1 = lo & _LO32, lo >> _U32, _MULT_LO & _LO32, _MULT_LO >> _U32
        cross0, cross1 = lo0 * mult1, lo1 * mult0
        mid = (lo0 * mult0 >> _U32) + (cross0 & _LO32) + (cross1 & _LO32)
        carry = lo1 * mult1 + (cross0 >> _U32) + (cross1 >> _U32) + (mid >> _U32)
        new_lo = lo * _MULT_LO + inc_lo
        return hi * _MULT_LO + lo * _MULT_HI + carry + inc_hi + (new_lo < inc_lo), new_lo

    # Seeding steps from state 0 (to inc), adds the seed words (with carry), steps again.
    hi, lo = step(inc_hi + words[..., 0] + (inc_lo + words[..., 1] < inc_lo), inc_lo + words[..., 1])
    while True:
        hi, lo = step(hi, lo)
        xor, rot = hi ^ lo, hi >> _U58
        output = xor >> rot | xor << (_U64 - rot & _U63)
        yield output & _LO32
        yield output >> _U32


#: The largest holdout drawn for all keys at once. It keeps every replayed key below the
#: holdouts ``choice`` tail-shuffles (n > 10,000 and holdout > n // 50 > 199). A Generator
#: per key overtakes the replay at a holdout between about 101 and 150 that moves with the keys.
_BATCH_MAX_HOLDOUT = 100


def _holdout_picks(words: np.ndarray, sizes: np.ndarray, holdout: int) -> np.ndarray:
    """``np.sort(_generator(w).choice(n, holdout, replace=False))`` for each key's row ``w`` of
    a (keys... x 4) block of ``_seed_words``, ``n`` its entry of ``sizes`` broadcast over the
    keys (one size per spread of a simulations x spreads block). Keys of holdout < n < 2**32
    games replay ``choice``'s Floyd loop together, up to a holdout of ``_BATCH_MAX_HOLDOUT``:
    for j = n - holdout ... n - 1, each takes its next 32-bit draw, Lemire-bounded on [0, j], or
    j if that is picked already. Picks are held step-major, so a step checks them along the
    leading axis, with j, the bound and its rejection threshold computed per size. A key leaves
    the replay at the first step where Lemire would reject its draw; ``choice`` itself draws
    each key that leaves it or never enters it (n <= holdout: no draw on [0, 0], or refused)."""
    picks = np.empty((holdout, *words.shape[:-1]), np.uint64)
    replay = (holdout < sizes) & (sizes < 2**32) & (holdout <= _BATCH_MAX_HOLDOUT)
    replay = np.broadcast_to(replay, picks.shape[1:]).copy()
    draws = _uint32_draws(words)
    for t in range(holdout if replay.any() else 0):
        j = np.maximum(sizes - (holdout - t), 0).astype(np.uint64)
        bound = j + _U1
        scaled = next(draws) * bound
        value = scaled >> _U32
        replay &= scaled & _LO32 >= (_2POW32 - bound) % bound
        picks[t] = np.where((picks[:t] == value).any(axis=0), j, value)
    picks = np.moveaxis(picks, 0, -1).astype(np.int64, order="C")  # key-major, to sort each key
    sizes = np.broadcast_to(sizes, replay.shape)
    for i in zip(*np.nonzero(~replay)):
        picks[i] = _generator(words[i]).choice(sizes[i], holdout, replace=False)
    picks.sort()
    return picks
