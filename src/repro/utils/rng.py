"""Deterministic random-number-generator plumbing.

Every stochastic component in the library receives an explicit
:class:`numpy.random.Generator`.  To keep experiments reproducible while still
letting subsystems draw independently, generators are *derived* from a parent
seed plus a stable string key rather than shared or re-seeded ad hoc.

Two ways to derive a stream
---------------------------
* :func:`derive_rng` builds one fresh generator from ``(seed, *keys)``: a
  ``SeedSequence`` over two 32-bit entropy words (the seed and
  ``stable_hash(*keys)``), then a PCG64 seeded from it.  Simple, and the
  reference every other path is checked against, but ~20 µs per stream.
* :func:`derive_states` is its batch twin.  It replicates the
  ``SeedSequence`` entropy mixing and PCG64 state derivation as vectorized
  ``uint32``/``uint64`` array arithmetic, so a whole population of key
  paths gets its initial ``(state, inc)`` pairs from a few dozen numpy
  operations.  :func:`mul128_add` / :func:`output_doubles` then step every
  stream in lockstep and produce its ``random()`` doubles, and a
  :class:`StreamActivator` re-points one reusable generator at any
  precomputed state (a state assignment, ~1.5 µs) for the draws that cannot
  be vectorized (ziggurat normals, Poisson, rejection sampling).

  A batch of one costs about a hundred tiny numpy operations, more than a
  single :func:`derive_rng`, so a lone stream (one site compiled on demand,
  the reference browser) is still seeded with :func:`derive_rng`.

The kernels are asserted bit-identical to numpy, values and stream state
both, by ``tests/test_columnar_samplers.py``: if a numpy upgrade changes
either algorithm those tests fail instead of the batch paths silently
diverging from :func:`derive_rng`.

The same holds for the precomputed-distribution draws: :func:`choose_index`
and :func:`sample_without_replacement` reproduce ``Generator.choice`` with
``p=`` from a CDF built once (:func:`weighted_cdf`) instead of re-validating
and re-normalising ``p`` on every call.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Iterable, Sequence

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "derive_rng",
    "derive_states",
    "spawn_rngs",
    "stable_hash",
    "fast_uniform",
    "key_entropy",
    "seed_states",
    "mul128_add",
    "output_doubles",
    "join128",
    "StreamActivator",
    "weighted_cdf",
    "choose_index",
    "sample_without_replacement",
]


def fast_uniform(rng: np.random.Generator, low: float, high: float) -> float:
    """Scalar ``rng.uniform(low, high)`` without the numpy dispatch overhead.

    ``Generator.uniform`` computes ``low + (high - low) * next_double`` in C;
    evaluating the same expression on ``rng.random()`` (the same draw from
    the same stream) produces the bit-identical float roughly 3x faster for
    scalars.  Exactness is asserted by ``tests/test_profiles.py``, so hot
    paths may substitute this freely without perturbing any derived stream.
    """
    return low + (high - low) * float(rng.random())


def stable_hash(*parts: object) -> int:
    """Return a stable 64-bit hash of the given parts.

    Python's builtin ``hash`` is randomised per process for strings, so it
    cannot be used to derive reproducible seeds.  This uses blake2b over the
    ``repr`` of each part instead.
    """
    digest = hashlib.blake2b(digest_size=8)
    for part in parts:
        digest.update(repr(part).encode("utf-8"))
        digest.update(b"\x1f")
    return int.from_bytes(digest.digest(), "big")


def derive_rng(seed: int, *keys: object) -> np.random.Generator:
    """Derive an independent generator from a base seed and a key path.

    The same ``(seed, *keys)`` tuple always yields the same generator state,
    and distinct key paths yield statistically independent streams.

    >>> a = derive_rng(7, "partners", "criteo")
    >>> b = derive_rng(7, "partners", "criteo")
    >>> float(a.random()) == float(b.random())
    True
    """
    mixed = np.random.SeedSequence([seed & 0xFFFFFFFF, stable_hash(*keys) & 0xFFFFFFFF])
    return np.random.default_rng(mixed)


def spawn_rngs(seed: int, keys: Iterable[object]) -> list[np.random.Generator]:
    """Derive one generator per key, preserving the key order."""
    return [derive_rng(seed, key) for key in keys]


# ---------------------------------------------------------------------------
# Vectorized SeedSequence -> PCG64 seeding and stepping
#
# Constants from numpy's SeedSequence (entropy hashing / pool mixing) and the
# PCG64 LCG multiplier.  128-bit values are carried as ``(hi, lo)`` uint64
# array pairs.

_INIT_A = np.uint32(0x43B0D7E5)
_MULT_A = np.uint32(0x931E8875)
_INIT_B = np.uint32(0x8B51F9DD)
_MULT_B = np.uint32(0x58F38DED)
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_MULT_HI = np.uint64(2549297995355413924)
_MULT_LO = np.uint64(4865540595714422341)
_MASK32 = np.uint64(0xFFFFFFFF)
_U32_16 = np.uint32(16)
_U64_1 = np.uint64(1)
_U64_11 = np.uint64(11)
_U64_32 = np.uint64(32)
_U64_58 = np.uint64(58)
_U64_63 = np.uint64(63)
_U64_64 = np.uint64(64)
_DOUBLE_SCALE = 2.0 ** -53

#: ``(state_hi, state_lo, inc_hi, inc_lo)`` uint64 arrays, one lane per stream.
StreamStates = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def key_entropy(key_paths: Iterable[Sequence[object]]) -> np.ndarray:
    """The second ``SeedSequence`` entropy word of each key path's stream."""
    return np.fromiter(
        (stable_hash(*keys) & 0xFFFFFFFF for keys in key_paths), dtype=np.uint32
    )


def mul128_add(
    hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One PCG64 LCG step, elementwise: ``state = state * MULT + inc`` mod 2^128.

    The multiply is schoolbook over 32-bit limbs so every partial product
    fits a uint64 without losing carries.
    """
    with np.errstate(over="ignore"):
        a0 = lo & _MASK32
        a1 = lo >> _U64_32
        b0 = _MULT_LO & _MASK32
        b1 = _MULT_LO >> _U64_32
        p00 = a0 * b0
        p01 = a0 * b1
        p10 = a1 * b0
        p11 = a1 * b1
        mid = (p00 >> _U64_32) + (p01 & _MASK32) + (p10 & _MASK32)
        new_lo = (p00 & _MASK32) | ((mid & _MASK32) << _U64_32)
        carry = (mid >> _U64_32) + (p01 >> _U64_32) + (p10 >> _U64_32)
        new_hi = p11 + carry + lo * _MULT_HI + hi * _MULT_LO
        new_lo2 = new_lo + inc_lo
        new_hi = new_hi + inc_hi + (new_lo2 < new_lo).astype(np.uint64)
        return new_hi, new_lo2


def output_doubles(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """The XSL-RR output of each (post-step) state, as ``random()`` doubles."""
    with np.errstate(over="ignore"):
        x = hi ^ lo
        rot = hi >> _U64_58
        out = (x >> rot) | (x << ((_U64_64 - rot) & _U64_63))
        return (out >> _U64_11) * _DOUBLE_SCALE


def seed_states(seed: int, entropy: np.ndarray) -> StreamStates:
    """Batch-replicate ``default_rng(SeedSequence([seed, e]))`` per entropy word.

    Returns each stream's post-seeding PCG64 state — exactly the state a
    fresh :func:`derive_rng` generator starts from.
    """
    n = entropy.shape[0]
    with np.errstate(over="ignore"):
        words = np.zeros((4, n), dtype=np.uint32)
        words[0] = np.uint32(seed & 0xFFFFFFFF)
        words[1] = entropy
        pool = np.zeros((4, n), dtype=np.uint32)
        hashconst = np.full(n, _INIT_A, dtype=np.uint32)

        def hashed(value: np.ndarray) -> np.ndarray:
            nonlocal hashconst
            value = value ^ hashconst
            hashconst = hashconst * _MULT_A
            value = value * hashconst
            return value ^ (value >> _U32_16)

        for i in range(4):
            pool[i] = hashed(words[i])
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    mixed = pool[dst] * _MIX_MULT_L - hashed(pool[src]) * _MIX_MULT_R
                    pool[dst] = mixed ^ (mixed >> _U32_16)

        out32 = np.zeros((8, n), dtype=np.uint64)
        hashconst_b = np.full(n, _INIT_B, dtype=np.uint32)
        for i in range(8):
            value = pool[i % 4] ^ hashconst_b
            hashconst_b = hashconst_b * _MULT_B
            value = value * hashconst_b
            out32[i] = value ^ (value >> _U32_16)

        val = [out32[2 * j] | (out32[2 * j + 1] << _U64_32) for j in range(4)]
        # initstate = val0:val1, initseq = val2:val3 (big-halves first);
        # inc = (initseq << 1) | 1, state = (inc + initstate) * MULT + inc.
        inc_lo = (val[3] << _U64_1) | _U64_1
        inc_hi = (val[2] << _U64_1) | (val[3] >> _U64_63)
        t_lo = val[1] + inc_lo
        t_hi = val[0] + inc_hi + (t_lo < val[1]).astype(np.uint64)
    hi, lo = mul128_add(t_hi, t_lo, inc_hi, inc_lo)
    return hi, lo, inc_hi, inc_lo


def derive_states(seed: int, key_paths: Iterable[Sequence[object]]) -> StreamStates:
    """Batch twin of :func:`derive_rng`: every key path's initial PCG64 state.

    Lane ``i`` holds the state ``derive_rng(seed, *key_paths[i])`` starts
    from.
    """
    return seed_states(seed, key_entropy(key_paths))


def join128(hi: np.ndarray, lo: np.ndarray) -> list[int]:
    """``(hi, lo)`` uint64 lanes as the Python ints a PCG64 state dict holds."""
    return [(h << 64) | l for h, l in zip(hi.tolist(), lo.tolist())]


class StreamActivator:
    """One reusable generator, re-pointed at precomputed PCG64 states.

    :meth:`activate` assigns a state dict (``has_uint32``/``uinteger``
    cleared, as a freshly seeded generator has them) instead of building a
    new ``SeedSequence`` and generator, so the activated generator continues
    the stream exactly as the :func:`derive_rng` generator in that state
    would.  Not thread-safe: one activator per thread.
    """

    __slots__ = ("generator", "_bit_generator", "_template", "_inner")

    def __init__(self) -> None:
        self.generator = np.random.Generator(np.random.PCG64(0))
        self._bit_generator = self.generator.bit_generator
        self._inner = {"state": 0, "inc": 0}
        self._template = {
            "bit_generator": "PCG64",
            "state": self._inner,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def activate(self, state: int, inc: int) -> np.random.Generator:
        """The shared generator, now at PCG64 ``(state, inc)``."""
        inner = self._inner
        inner["state"] = state
        inner["inc"] = inc
        self._bit_generator.state = self._template
        return self.generator


# ---------------------------------------------------------------------------
# Draws from precomputed distributions


def weighted_cdf(weights: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """``(p, cdf)`` for ``Generator.choice(..., p=p)`` over ``weights``.

    ``p = w / w.sum()`` is the normalisation callers hand to ``choice``, and
    the CDF repeats ``choice``'s own arithmetic on it (``cdf = p.cumsum();
    cdf /= cdf[-1]``), so bisecting it lands on the same index.

    Raises :class:`~repro.errors.ConfigurationError` for weights ``choice``
    would reject: a negative or non-finite entry, or no positive weight.
    """
    w = np.asarray(weights, dtype=float)
    total = w.sum()
    # A finite total rules out every inf/NaN entry.
    if not (np.isfinite(total) and total > 0 and (w >= 0).all()):
        raise ConfigurationError(
            f"weights must be finite and non-negative with a positive sum, got {w.tolist()}"
        )
    p = w / total
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return p, cdf


def choose_index(rng: np.random.Generator, cdf: Sequence[float]) -> int:
    """``int(rng.choice(len(p), p=p))`` for the ``cdf`` of :func:`weighted_cdf`.

    ``choice`` draws one ``random()`` and right-bisects its CDF; so does
    this, skipping the per-call validation and re-normalisation of ``p``.
    ``cdf`` is a list (``weighted_cdf(...)[1].tolist()``): ``bisect`` over
    Python floats beats ``searchsorted`` for one scalar.
    """
    return bisect_right(cdf, rng.random())


def sample_without_replacement(
    rng: np.random.Generator,
    p: np.ndarray,
    cdf: np.ndarray,
    size: int,
) -> np.ndarray:
    """``rng.choice(len(p), size=size, replace=False, p=p)`` with a precomputed CDF.

    ``Generator.choice`` spends most of its ~25 µs per call validating and
    re-normalising ``p`` and rebuilding its cumulative distribution; the hot
    loops draw from the *same* distribution thousands of times per crawl.
    This reproduces numpy's draw algorithm — batched uniform draw,
    right-bisect into the CDF, de-duplicate keeping first occurrences, redraw
    over the zeroed remainder on collision — bit-identically (same stream
    consumption, same result order).  ``tests/test_profiles.py`` asserts
    exact agreement with ``Generator.choice``, values and stream state both,
    so a numpy algorithm change cannot silently break byte-identity.
    """
    x = rng.random((size,))
    new = cdf.searchsorted(x, side="right")
    if size == 1:
        return new
    _, unique_indices = np.unique(new, return_index=True)
    if unique_indices.size == size:  # common case: no collision
        return new
    unique_indices.sort()
    new = new.take(unique_indices)
    found = np.zeros(size, dtype=new.dtype)
    found[: new.size] = new
    n_uniq = new.size
    p = p.copy()
    while n_uniq < size:
        x = rng.random((size - n_uniq,))
        p[found[0:n_uniq]] = 0
        remaining_cdf = np.cumsum(p)
        remaining_cdf /= remaining_cdf[-1]
        new = remaining_cdf.searchsorted(x, side="right")
        _, unique_indices = np.unique(new, return_index=True)
        unique_indices.sort()
        new = new.take(unique_indices)
        found[n_uniq : n_uniq + new.size] = new
        n_uniq += new.size
    return found
