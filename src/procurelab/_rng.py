"""Deterministic sample streams built on the SplitMix64 mixer.

Every stochastic routine in the package draws from these helpers so that a
seed fixes the output bit-for-bit on any platform: the generator works in
wrapping uint64 arithmetic and never touches platform RNG state.

Draw k of the stream for a seed mixes seed + (k + 1) * gamma.  A child seed,
derive_seed(seed, salt), mixes (seed ^ salt) + gamma, and salts fold left,
so derive_seed(seed, *salts, k) is derive_seed(derive_seed(seed, *salts), k).
A loop that takes a few uniforms from each of many children k can make
them in one array pass: row i of uniform_rows(seed, ks, n) is
uniform_stream(derive_seed(seed, ks[i]), n), bit for bit, from the same
mixer.
"""
from __future__ import annotations

import hashlib

import numpy as np

from .game_core import BLOCK, DomainError

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK = 0xFFFFFFFFFFFFFFFF


def _finalize(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 output mix; overwrites an array argument in place."""
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _counters(start: int, n: int) -> np.ndarray:
    """(start + 1) * gamma, ..., (start + n) * gamma: the Weyl terms of draws
    start, ..., start + n - 1, wrapping in uint64."""
    if start < 0 or n < 0:
        raise DomainError(f"draws need start >= 0 and count >= 0, got start={start}, n={n}")
    z = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    z *= _GAMMA
    return z


def _unit(z: np.ndarray) -> np.ndarray:
    """Mix seeded counters into floats in [0, 1); overwrites z."""
    z = _finalize(z)
    z >>= np.uint64(11)
    out = z.astype(np.float64)
    out *= 2.0**-53
    return out


def uniform_block(seed: int, start: int, n: int) -> np.ndarray:
    """Draws start, ..., start + n - 1 of the uniform_stream for `seed`.

    Draw k depends on seed and k only, so a stream can be made a block at a
    time, and each block equals the same slice of the whole stream.
    """
    z = _counters(start, n)
    z += np.uint64(seed & _MASK)
    return _unit(z)


def uniform_stream(seed: int, n: int) -> np.ndarray:
    """n floats in [0, 1) from the SplitMix64 sequence for `seed`."""
    if n <= BLOCK:
        return uniform_block(seed, 0, n)
    out = np.empty(n)
    for i in range(0, n, BLOCK):
        out[i:i + BLOCK] = uniform_block(seed, i, min(BLOCK, n - i))
    return out


def uniform_rows(seed: int, ks: np.ndarray, n: int) -> np.ndarray:
    """A (len(ks), n) array whose row i is uniform_stream(derive_seed(seed, ks[i]), n).

    ks is an array of integer salts; like derive_seed, it reads each one
    modulo 2**64.  Meant for many short child streams: the whole array is
    made at once, not a block at a time.
    """
    children = np.asarray(ks).astype(np.uint64)
    children ^= np.uint64(seed & _MASK)
    children += _GAMMA
    z = _counters(0, n) + _finalize(children)[:, None]
    return _unit(z)


def derive_seed(seed: int, *salts: int | str) -> int:
    """Deterministic child seed; distinct salts give decorrelated streams.

    String salts are folded through blake2s, never the builtin hash, so the
    derivation is stable across interpreter runs.
    """
    z = np.uint64(seed & _MASK)
    with np.errstate(over="ignore"):
        for salt in salts:
            if isinstance(salt, str):
                salt = int.from_bytes(
                    hashlib.blake2s(salt.encode(), digest_size=8).digest(), "big"
                )
            z = _finalize((z ^ np.uint64(salt & _MASK)) + _GAMMA)
    return int(z)
