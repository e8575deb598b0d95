"""Unit tests for precompiled site profiles (the fast-path substrate).

Each sampler in :mod:`repro.ecosystem.profiles` shortcuts a per-page
derivation; these tests pin the contract that matters: given the same RNG
state, the precompiled sampler must produce the *same values* and leave the
*same stream state* as the model code it replaces.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ecosystem.profiles import (
    LatencyDraw,
    SiteProfileTable,
    sample_without_replacement,
)
from repro.ecosystem.publishers import PopulationConfig, generate_population
from repro.models import HBFacet
from repro.utils.rng import choose_index, weighted_cdf


def fresh_pair(seed=123):
    return np.random.default_rng(seed), np.random.default_rng(seed)


class TestSampleWithoutReplacement:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("n", [8, 9, 12, 83])
    def test_matches_generator_choice_exactly(self, size, n):
        """Values AND stream state agree with numpy for thousands of draws.

        This is the guard that makes the replica safe: if a numpy upgrade
        changes ``Generator.choice``'s draw algorithm, this test fails loudly
        instead of the fast path silently diverging from the slow path.
        """
        weights = np.random.default_rng(n * size).random(n) + 0.01
        p = weights / weights.sum()
        cdf = np.cumsum(p)
        cdf /= cdf[-1]
        a, b = fresh_pair(seed=n * 31 + size)
        for _ in range(400):
            expected = a.choice(n, size=size, replace=False, p=p)
            got = sample_without_replacement(b, p, cdf, size)
            assert list(expected) == list(got)
        assert a.bit_generator.state == b.bit_generator.state

    def test_collision_heavy_distribution(self):
        """A near-degenerate distribution forces the redraw loop constantly."""
        p = np.asarray([0.96, 0.01, 0.01, 0.01, 0.01])
        p = p / p.sum()
        cdf = np.cumsum(p)
        cdf /= cdf[-1]
        a, b = fresh_pair(seed=99)
        for _ in range(300):
            expected = a.choice(5, size=3, replace=False, p=p)
            got = sample_without_replacement(b, p, cdf, 3)
            assert list(expected) == list(got)
        assert a.bit_generator.state == b.bit_generator.state


class TestChooseIndex:
    @pytest.mark.parametrize("n", [2, 3, 4, 10, 20, 83])
    def test_matches_generator_choice_exactly(self, n):
        """One-draw weighted choice over a precomputed CDF: values AND stream
        state agree with ``Generator.choice(n, p=p)``, draw for draw."""
        weights = np.random.default_rng(n).random(n) + 0.01
        p, cdf = weighted_cdf(weights)
        assert p.tolist() == (weights / weights.sum()).tolist()
        cdf_list = cdf.tolist()
        a, b = fresh_pair(seed=n * 17)
        for _ in range(2000):
            assert int(a.choice(n, p=weights / weights.sum())) == choose_index(b, cdf_list)
        assert a.bit_generator.state == b.bit_generator.state

    def test_configured_shares(self):
        """The population's own share tables, including a zero-share entry."""
        for weights in ([0.480, 0.347, 0.173], [0.64, 0.24, 0.07, 0.05], [1.0, 0.0, 2.5]):
            p, cdf = weighted_cdf(weights)
            a, b = fresh_pair(seed=len(weights))
            for _ in range(1000):
                assert int(a.choice(len(weights), p=p)) == choose_index(b, cdf.tolist())
            assert a.bit_generator.state == b.bit_generator.state


class TestLatencyDraw:
    def test_matches_latency_model_sample(self, registry):
        for partner in registry.partners[:20]:
            for scale in (1.0, 0.72, 0.58, 0.35):
                draw = LatencyDraw.compile(partner.latency, scale)
                a, b = fresh_pair(seed=hash((partner.name, scale)) & 0xFFFF)
                for _ in range(200):
                    assert partner.latency.sample(a, scale=scale) == draw.sample(b)
                assert a.bit_generator.state == b.bit_generator.state


class TestPartnerProfile:
    def test_respond_matches_environment_partner_response(
        self, environment, small_population
    ):
        table = SiteProfileTable(environment, seed=13)
        for publisher in small_population.hb_publishers()[:12]:
            profile = table.profile_for(publisher)
            slots = publisher.auctioned_slots
            for partner, pprofile in zip(publisher.partners, profile.partner_profiles):
                a, b = fresh_pair(seed=publisher.rank)
                for slot in slots:
                    expected = environment.partner_response(
                        a, partner, slot, publisher.facet,
                        latency_scale=publisher.latency_scale,
                    )
                    got = pprofile.respond(b, slot.code, slot.primary_size)
                    assert got.latency_ms == expected.latency_ms
                    assert got.bid_cpm == expected.bid_cpm
                    assert got.size == expected.size
                    assert got.slot_code == expected.slot_code
                    assert got.partner is partner
                assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("facet", list(HBFacet))
    def test_respond_matches_environment_for_every_slot_size(
        self, environment, registry, facet
    ):
        """A shared profile serves slots of any size, draw for draw: the
        price location is looked up by the slot's size label."""
        from repro.models import STANDARD_SIZES, AdSlot

        table = SiteProfileTable(environment, seed=13)
        slots = [AdSlot(code=f"s-{size.label}", primary_size=size) for size in STANDARD_SIZES]
        for partner in registry.partners[:10]:
            for scale in (1.0, 0.72):
                pprofile = table._partner_profile(partner, scale, facet)
                a, b = fresh_pair(seed=len(partner.name) * 7 + int(scale * 10))
                for _ in range(20):
                    for slot in slots:
                        expected = environment.partner_response(
                            a, partner, slot, facet, latency_scale=scale
                        )
                        got = pprofile.respond(b, slot.code, slot.primary_size)
                        assert (got.latency_ms, got.bid_cpm) == (
                            expected.latency_ms, expected.bid_cpm,
                        )
                assert a.bit_generator.state == b.bit_generator.state

    def test_non_standard_slot_sizes_are_covered(self, environment, small_population):
        """A site whose slots use a size outside ``STANDARD_SIZES`` still
        gets exact price locations, for its own partners and for every
        internal-auction candidate."""
        import dataclasses

        from repro.models import AdSlot, AdSlotSize

        table = SiteProfileTable(environment, seed=13)
        publisher = next(
            p for p in small_population.hb_publishers() if p.facet is HBFacet.SERVER_SIDE
        )
        odd = AdSlot(code="odd-slot", primary_size=AdSlotSize(250, 250))
        publisher = dataclasses.replace(
            publisher, slots=(odd,), auctioned_slots=(odd,)
        )
        profile = table.profile_for(publisher)
        used = (*profile.partner_profiles, *profile.internal_auction.profiles)
        a, b = fresh_pair(seed=5)
        for pprofile in used:
            expected = environment.partner_response(
                a, pprofile.partner, odd, publisher.facet,
                latency_scale=publisher.latency_scale,
            )
            got = pprofile.respond(b, odd.code, odd.primary_size)
            assert (got.latency_ms, got.bid_cpm) == (expected.latency_ms, expected.bid_cpm)
        assert a.bit_generator.state == b.bit_generator.state

    def test_ad_server_latency_matches_environment_bitwise(
        self, environment, small_population
    ):
        """The compiled mu must use np.log exactly like the slow path.

        math.log and np.log disagree in the last ulp for some inputs, which
        is enough to shift a lognormal draw and break byte-identity.
        """
        table = SiteProfileTable(environment, seed=13)
        for publisher in small_population.hb_publishers()[:8]:
            profile = table.profile_for(publisher)
            a, b = fresh_pair(seed=publisher.rank)
            for _ in range(100):
                expected = environment.ad_server_latency(
                    a, latency_scale=publisher.latency_scale
                )
                assert profile.ad_server_latency(b) == expected
            assert a.bit_generator.state == b.bit_generator.state

    def test_sample_internal_bidders_matches_environment(
        self, environment, small_population
    ):
        table = SiteProfileTable(environment, seed=13)
        for publisher in small_population.hb_publishers():
            if publisher.facet is not HBFacet.SERVER_SIDE:
                continue
            profile = table.profile_for(publisher)
            aggregator = publisher.partners[0]
            a, b = fresh_pair(seed=publisher.rank)
            for _ in range(40):
                expected = environment.sample_internal_bidders(a, exclude=(aggregator,))
                got = profile.internal_auction.sample(b)
                assert [p.name for p in expected] == [g.partner.name for g in got]
            assert a.bit_generator.state == b.bit_generator.state
            break
        else:
            pytest.skip("no server-side publisher in the sample population")


class TestSiteProfileTable:
    def test_page_matches_slow_build(self, environment, small_population):
        from repro.browser.page import build_page

        table = SiteProfileTable(environment, seed=13)
        for publisher in list(small_population)[:10]:
            profile = table.profile_for(publisher)
            assert profile.page == build_page(publisher, seed=13)

    def test_batch_seeded_pages_match_slow_build(self, environment, small_population):
        """``precompile`` seeds page streams in one vectorized pass; every
        page (and its resource URL list) equals the per-site derivation."""
        from repro.browser.page import build_page
        from repro.utils.urls import build_url

        table = SiteProfileTable(environment, seed=13)
        sites = list(small_population)
        assert len(sites) == 600
        table.precompile(sites)
        assert table.compiles == len(sites)
        for publisher in sites:
            profile = table.profile_for(publisher)
            page = build_page(publisher, seed=13)
            assert profile.page == page
            assert profile.resource_urls == tuple(
                build_url(host, path) for host, path in page.baseline_resources
            )

    def test_profiles_are_cached_per_domain(self, environment, small_population):
        table = SiteProfileTable(environment, seed=13)
        publisher = list(small_population)[0]
        first = table.profile_for(publisher)
        assert table.profile_for(publisher) is first
        assert table.compiles == 1

    def test_table_recompiles_for_a_different_publisher_object(
        self, environment, small_population
    ):
        import dataclasses

        table = SiteProfileTable(environment, seed=13)
        publisher = next(p for p in small_population if not p.uses_hb)
        table.profile_for(publisher)
        changed = dataclasses.replace(publisher, latency_scale=publisher.latency_scale * 2)
        profile = table.profile_for(changed)
        assert profile.publisher is changed
        assert table.compiles == 2

    def test_equal_keys_share_one_partner_profile(self, environment, small_population):
        """Two sites with the same (partner, latency scale, facet) hold the
        very same PartnerProfile object, and the same internal pool when
        they exclude the same partners."""
        table = SiteProfileTable(environment, seed=13)
        seen: dict[tuple, object] = {}
        pools: dict[tuple, object] = {}
        references = 0
        for publisher in small_population.hb_publishers():
            profile = table.profile_for(publisher)
            used = list(zip(publisher.partners, profile.partner_profiles))
            pool = profile.internal_auction
            if pool is not None:
                used += [(candidate.partner, candidate) for candidate in pool.profiles]
                excluded = frozenset(publisher.partners) - {c.partner for c in pool.profiles}
                key = (excluded, publisher.latency_scale, publisher.facet)
                assert pools.setdefault(key, pool) is pool
            for partner, pprofile in used:
                key = (partner.name, publisher.latency_scale, publisher.facet)
                assert seen.setdefault(key, pprofile) is pprofile
                references += 1
        assert len(seen) * 10 < references
        assert len(pools) < len(small_population.hb_publishers())

    def test_profile_count_is_bounded_by_partner_scale_facet(self, environment, registry):
        """A 2,000-site table holds at most partners x 3 scales x facets
        distinct partner profiles, however many sites it compiles."""
        population = generate_population(PopulationConfig(seed=11).scaled(2_000), registry)
        sites = list(population)
        table = SiteProfileTable(environment, seed=11)
        table.precompile(sites)
        scales = {p.latency_scale for p in sites}
        assert len(scales) == 3
        distinct = set()
        pools = set()
        per_site = 0
        for publisher in population.hb_publishers():
            profile = table.profile_for(publisher)
            used = profile.partner_profiles
            if profile.internal_auction is not None:
                pools.add(id(profile.internal_auction))
                used = used + profile.internal_auction.profiles
            per_site += len(used)
            distinct.update(id(p) for p in used)
        assert len(distinct) <= len(registry) * len(scales) * len(HBFacet)
        # The point of sharing: far fewer objects than per-site references.
        assert len(distinct) * 10 < per_site
        assert len(pools) < len(population.hb_publishers())

    def test_threads_compiling_one_table_share_profiles(self, environment, small_population):
        """Threads racing to compile overlapping sites on one table still
        hand every site with an equal key the same partner profile."""
        import sys
        import threading

        table = SiteProfileTable(environment, seed=13)
        sites = small_population.hb_publishers()
        chunks = [sites[start:] + sites[:start] for start in range(0, 48, 6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=table.precompile, args=(chunk,)) for chunk in chunks]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        seen: dict[tuple, object] = {}
        for publisher in sites:
            profile = table.profile_for(publisher)
            pool = profile.internal_auction
            for pprofile in (*profile.partner_profiles, *(pool.profiles if pool else ())):
                key = (pprofile.partner.name, publisher.latency_scale, publisher.facet)
                assert seen.setdefault(key, pprofile) is pprofile

    def test_bounded_eviction(self, environment, small_population):
        table = SiteProfileTable(environment, seed=13, max_sites=8)
        for publisher in list(small_population)[:20]:
            table.profile_for(publisher)
        assert len(table) <= 8

    def test_precompile_batches_under_one_lock_acquisition(
        self, environment, small_population
    ):
        """Warming N fresh sites takes ONE lock acquisition, not N — and a
        fully warm batch takes zero.  This is the serialization fix the
        columnar path leans on at every shard start."""
        import threading

        class CountingLock:
            def __init__(self):
                self.inner = threading.Lock()
                self.acquisitions = 0

            def __enter__(self):
                self.acquisitions += 1
                return self.inner.__enter__()

            def __exit__(self, *exc):
                return self.inner.__exit__(*exc)

        table = SiteProfileTable(environment, seed=13)
        lock = CountingLock()
        table._lock = lock
        sites = list(small_population)[:24]
        table.precompile(sites)
        assert table.compiles == len(sites)
        # One acquisition publishes the whole batch; compiling also fills the
        # shared waterfall cache once per distinct non-HB latency scale.
        waterfall_fills = len({p.latency_scale for p in sites if not p.uses_hb})
        assert lock.acquisitions == 1 + waterfall_fills
        for publisher in sites:
            assert table.profile_for(publisher).publisher is publisher

        table.precompile(sites)  # warm: no compiles, no lock traffic
        assert table.compiles == len(sites)
        assert lock.acquisitions == 1 + waterfall_fills

    def test_precompile_respects_the_site_bound(self, environment, small_population):
        table = SiteProfileTable(environment, seed=13, max_sites=8)
        table.precompile(list(small_population)[:20])
        assert len(table) <= 8

    def test_seed_mismatch_refused_by_browser_engine(self, environment):
        from repro.browser.engine import BrowserEngine

        table = SiteProfileTable(environment, seed=13)
        with pytest.raises(ValueError):
            BrowserEngine(environment, seed=14, profiles=table)


class TestFastUniform:
    def test_matches_generator_uniform_exactly(self):
        from repro.utils.rng import fast_uniform

        for low, high in [(5.0, 40.0), (3.0, 20.0), (15.0, 45.0), (30.0, 150.0),
                          (0.005, 0.02), (0.02, 0.12), (20.0, 120.0)]:
            a, b = fresh_pair(seed=int(high))
            for _ in range(2000):
                assert float(a.uniform(low, high)) == fast_uniform(b, low, high)
            assert a.bit_generator.state == b.bit_generator.state
