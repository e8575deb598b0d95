"""Unit tests for the vectorized RNG kernels of :mod:`repro.utils.rng`.

Same contract as ``tests/test_profiles.py``, one level lower: the batch
seeding path (the columnar simulator's visit streams, publisher generation,
page compilation) re-implements numpy's ``SeedSequence`` entropy mixing and
the PCG64 step/output functions as array arithmetic.  Given the same seeding inputs,
the kernels must produce the *same values* and the *same stream state* as
``numpy.random.Generator`` — bit-for-bit, since one flipped bit anywhere
breaks the crawl's byte-identity guarantee.  If a numpy upgrade changes
either algorithm these tests fail loudly instead of the batch paths
silently diverging from ``derive_rng``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.rng import (
    StreamActivator,
    derive_rng,
    derive_states,
    fast_uniform,
    join128,
    key_entropy,
    mul128_add,
    output_doubles,
    seed_states,
    stable_hash,
)


def reference_generators(seed, domains, day):
    return [derive_rng(seed, "visit", domain, day) for domain in domains]


def generator_state(gen):
    state = gen.bit_generator.state["state"]
    return state["state"], state["inc"]


def split128(value):
    return np.uint64(value >> 64), np.uint64(value & 0xFFFFFFFFFFFFFFFF)


def visit_states(seed, domains, day):
    return derive_states(seed, [("visit", domain, day) for domain in domains])


DOMAINS = [f"site-{i:06d}.example" for i in range(64)] + ["x.y", "a-very.long.domain.example"]


class TestSeedStates:
    @pytest.mark.parametrize("seed", [0, 5, 23, 77, 2019, 2**31 - 1, 2**63 - 1])
    @pytest.mark.parametrize("day", [0, 1, 33])
    def test_matches_derive_rng_initial_state(self, seed, day):
        """Batch seeding lands every stream on derive_rng's exact PCG64 state."""
        hi, lo, inc_hi, inc_lo = seed_states(
            seed, key_entropy(("visit", domain, day) for domain in DOMAINS)
        )
        for i, gen in enumerate(reference_generators(seed, DOMAINS, day)):
            state, inc = generator_state(gen)
            assert (int(hi[i]) << 64) | int(lo[i]) == state
            assert (int(inc_hi[i]) << 64) | int(lo[i] * 0 + inc_lo[i]) == inc

    def test_visit_entropy_matches_stable_hash(self):
        entropy = key_entropy(("visit", domain, 7) for domain in DOMAINS)
        assert entropy.dtype == np.uint32
        for i, domain in enumerate(DOMAINS):
            assert int(entropy[i]) == stable_hash("visit", domain, 7) & 0xFFFFFFFF


class TestVectorStep:
    def test_matches_generator_random_for_thousands_of_draws(self):
        """Values AND final stream state agree with numpy, elementwise."""
        seed, day = 13, 2
        gens = reference_generators(seed, DOMAINS, day)
        hi, lo, inc_hi, inc_lo = visit_states(seed, DOMAINS, day)
        for _ in range(2000):
            hi, lo = mul128_add(hi, lo, inc_hi, inc_lo)
            doubles = output_doubles(hi, lo)
            for i, gen in enumerate(gens):
                assert float(doubles[i]) == float(gen.random())
        for i, gen in enumerate(gens):
            state, inc = generator_state(gen)
            assert (int(hi[i]) << 64) | int(lo[i]) == state
            assert (int(inc_hi[i]) << 64) | int(inc_lo[i]) == inc

    def test_state_activation_resumes_the_stream(self):
        """A scalar Generator activated with a kernel state continues the
        exact stream — the hook the per-page ad simulators rely on."""
        seed, day = 5, 0
        domains = DOMAINS[:8]
        hi, lo, inc_hi, inc_lo = visit_states(seed, domains, day)
        # Consume three draws vectorized, then hand over to a scalar
        # Generator and compare the *next* draws with an untouched reference.
        for _ in range(3):
            hi, lo = mul128_add(hi, lo, inc_hi, inc_lo)
        activate = StreamActivator().activate
        states, incs = join128(hi, lo), join128(inc_hi, inc_lo)
        for i, reference in enumerate(reference_generators(seed, domains, day)):
            for _ in range(3):
                reference.random()
            gen = activate(states[i], incs[i])
            # The whole state dict, has_uint32/uinteger included.
            assert gen.bit_generator.state == reference.bit_generator.state
            for _ in range(50):
                assert float(gen.random()) == float(reference.random())
            assert fast_uniform(gen, 5.0, 40.0) == fast_uniform(reference, 5.0, 40.0)
            assert float(gen.lognormal(1.5, 0.4)) == float(reference.lognormal(1.5, 0.4))
            assert int(gen.integers(1, 4)) == int(reference.integers(1, 4))
            # 32-bit draws leave half a word buffered; activation drops it.
            assert int(gen.integers(0, 100, dtype=np.int32)) == int(
                reference.integers(0, 100, dtype=np.int32)
            )
            assert gen.bit_generator.state == reference.bit_generator.state

    def test_folded_uniform_constants_are_bit_exact(self):
        """``5 + 35*u`` / ``3 + 17*u`` over vector doubles equal fast_uniform.

        The columnar plain-page path folds ``low + (high-low)*u`` into
        literal constants; IEEE evaluation order must leave every double
        unchanged versus the scalar helper.
        """
        seed, day = 99, 1
        domains = DOMAINS[:16]
        hi, lo, inc_hi, inc_lo = visit_states(seed, domains, day)
        gens = reference_generators(seed, domains, day)
        for k in range(500):
            hi, lo = mul128_add(hi, lo, inc_hi, inc_lo)
            u = output_doubles(hi, lo)
            resource = 5.0 + 35.0 * u
            script = 3.0 + 17.0 * u
            for i, gen in enumerate(gens):
                expected = float(gen.random())
                low, high = ((5.0, 40.0), (3.0, 20.0))[k % 2]
                value = low + (high - low) * expected
                assert float((resource if k % 2 == 0 else script)[i]) == value


class TestKeyFamilies:
    """The batch twin of ``derive_rng`` for the population and page streams."""

    SEEDS = [0, 7, 2019, 2**32 + 7]

    @staticmethod
    def check_family(seed, key_paths):
        hi, lo, inc_hi, inc_lo = derive_states(seed, key_paths)
        references = [derive_rng(seed, *keys) for keys in key_paths]
        for i, reference in enumerate(references):
            state, inc = generator_state(reference)
            assert (int(hi[i]) << 64) | int(lo[i]) == state
            assert (int(inc_hi[i]) << 64) | int(inc_lo[i]) == inc
        for _ in range(1000):
            hi, lo = mul128_add(hi, lo, inc_hi, inc_lo)
            doubles = output_doubles(hi, lo).tolist()
            assert doubles == [float(reference.random()) for reference in references]
        for i, reference in enumerate(references):
            state, inc = generator_state(reference)
            assert (int(hi[i]) << 64) | int(lo[i]) == state
            assert (int(inc_hi[i]) << 64) | int(inc_lo[i]) == inc

    @pytest.mark.parametrize("seed", SEEDS)
    def test_publisher_streams(self, seed):
        self.check_family(seed, [("publisher", rank) for rank in (1, 2, 3, 499, 500, 35_000)])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_page_streams(self, seed):
        self.check_family(seed, [("page", domain) for domain in DOMAINS[:12] + DOMAINS[-2:]])
