"""Unit and calibration tests for publisher population generation."""

import collections
from dataclasses import fields

import numpy as np
import pytest

from repro.ecosystem.publishers import (
    _SIZE_BY_LABEL,
    _SIZE_WEIGHTS,
    PopulationConfig,
    Publisher,
    generate_population,
)
from repro.errors import ConfigurationError
from repro.models import AdSlot, AdSlotSize, HBFacet, WrapperKind
from repro.utils.rng import derive_rng


class TestPopulationConfig:
    def test_default_matches_paper_scale(self):
        config = PopulationConfig()
        assert config.total_sites == 35_000
        assert config.adoption_probability(1) == pytest.approx(0.215)
        assert config.adoption_probability(10_000) == pytest.approx(0.145)
        assert config.adoption_probability(30_000) == pytest.approx(0.115)

    def test_scaled_preserves_tier_proportions(self):
        config = PopulationConfig().scaled(3_500)
        assert config.total_sites == 3_500
        assert config.adoption_tiers[0][0] == 500
        assert config.adoption_tiers[1][0] == 1_500

    def test_facet_shares_sum_to_one(self):
        config = PopulationConfig()
        assert sum(share for _, share in config.facet_shares) == pytest.approx(1.0)

    def test_rejects_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            PopulationConfig(total_sites=0)
        with pytest.raises(ConfigurationError):
            PopulationConfig(facet_shares=((HBFacet.CLIENT_SIDE, 0.5),))
        with pytest.raises(ConfigurationError):
            PopulationConfig(misconfigured_wrapper_rate=1.5)

    @pytest.mark.parametrize(
        "shares",
        [
            ((WrapperKind.PREBID, 1.2), (WrapperKind.GPT, -0.2)),
            ((WrapperKind.PREBID, 0.0), (WrapperKind.GPT, 0.0)),
            ((WrapperKind.PREBID, float("nan")), (WrapperKind.GPT, 0.5)),
        ],
    )
    def test_generation_rejects_invalid_wrapper_shares(self, registry, shares):
        """Shares ``Generator.choice(p=...)`` would refuse fail loudly, not
        skew the population through a non-monotonic CDF."""
        config = PopulationConfig(total_sites=50, wrapper_shares=shares)
        with pytest.raises(ConfigurationError, match="non-negative"):
            generate_population(config, registry)


class TestPublisherValidation:
    def test_non_hb_publisher_needs_no_hb_fields(self):
        publisher = Publisher(domain="plain.example", rank=3, uses_hb=False)
        assert publisher.n_partners == 0
        assert publisher.url == "https://plain.example/"

    def test_hb_publisher_requires_partners_and_slots(self, registry):
        dfp = registry.get("DFP")
        with pytest.raises(ConfigurationError):
            Publisher(domain="x.example", rank=1, uses_hb=True, facet=HBFacet.HYBRID,
                      wrapper=WrapperKind.PREBID, partners=(), slots=())

    def test_server_side_publisher_must_expose_one_partner(self, registry):
        dfp, criteo = registry.get("DFP"), registry.get("Criteo")
        slot = AdSlot(code="s", primary_size=AdSlotSize(300, 250))
        with pytest.raises(ConfigurationError):
            Publisher(domain="x.example", rank=1, uses_hb=True, facet=HBFacet.SERVER_SIDE,
                      wrapper=WrapperKind.GPT, partners=(dfp, criteo), slots=(slot,))

    def test_auctioned_slots_default_to_display_slots(self, registry):
        dfp = registry.get("DFP")
        slot = AdSlot(code="s", primary_size=AdSlotSize(300, 250))
        publisher = Publisher(domain="x.example", rank=1, uses_hb=True, facet=HBFacet.SERVER_SIDE,
                              wrapper=WrapperKind.GPT, partners=(dfp,), ad_server=dfp, slots=(slot,))
        assert publisher.auctioned_slots == publisher.slots

    def test_rank_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            Publisher(domain="x.example", rank=0, uses_hb=False)


class TestGeneratedPopulation:
    def test_generation_is_deterministic(self, registry):
        config = PopulationConfig(seed=3).scaled(200)
        a = generate_population(config, registry)
        b = generate_population(config, registry)
        assert a.domains == b.domains
        assert [p.uses_hb for p in a] == [p.uses_hb for p in b]

    def test_population_size_and_lookup(self, small_population):
        assert len(small_population) == 600
        first = small_population[0]
        assert small_population.by_domain(first.domain) is first
        with pytest.raises(KeyError):
            small_population.by_domain("missing.example")

    def test_adoption_rate_is_paper_like(self, small_population):
        assert 0.09 <= small_population.adoption_rate() <= 0.21

    def test_facet_mix_is_paper_like(self, small_population):
        counts = small_population.facet_counts()
        total = sum(counts.values())
        assert counts[HBFacet.SERVER_SIDE] / total > counts[HBFacet.HYBRID] / total
        assert counts[HBFacet.HYBRID] / total > counts[HBFacet.CLIENT_SIDE] / total

    def test_server_side_sites_expose_exactly_one_partner(self, small_population):
        for publisher in small_population.hb_publishers():
            if publisher.facet is HBFacet.SERVER_SIDE:
                assert publisher.n_partners == 1
                assert publisher.ad_server is publisher.partners[0]

    def test_client_side_sites_have_no_known_ad_server(self, small_population):
        for publisher in small_population.hb_publishers():
            if publisher.facet is HBFacet.CLIENT_SIDE:
                assert publisher.ad_server is None
                assert publisher.own_ad_server_host.startswith("ads.")

    def test_majority_of_hb_sites_use_one_partner(self, small_population):
        counts = collections.Counter(p.n_partners for p in small_population.hb_publishers())
        total = sum(counts.values())
        assert counts[1] / total > 0.40

    def test_dfp_present_on_most_hb_sites(self, small_population):
        hb = small_population.hb_publishers()
        share = sum(1 for p in hb if "DFP" in p.partner_names) / len(hb)
        assert share > 0.65

    def test_every_hb_site_has_slots_and_timeout(self, small_population):
        for publisher in small_population.hb_publishers():
            assert publisher.n_display_slots >= 1
            assert publisher.n_auctioned_slots >= publisher.n_display_slots
            assert publisher.timeout_ms > 0

    def test_top_ranked_sites_get_lower_latency_scale(self, small_population):
        config = small_population.config
        top = [p for p in small_population if p.rank <= config.top_rank_threshold]
        rest = [p for p in small_population if p.rank > config.head_rank_threshold]
        assert all(p.latency_scale < 1.0 for p in top)
        assert all(p.latency_scale == 1.0 for p in rest)

    def test_some_sites_auction_device_duplicates(self, registry):
        config = PopulationConfig(seed=99, multi_device_duplicate_rate=0.5).scaled(300)
        population = generate_population(config, registry)
        inflated = [p for p in population.hb_publishers()
                    if p.n_auctioned_slots > p.n_display_slots]
        assert inflated, "expected at least one publisher auctioning device duplicates"


# ---------------------------------------------------------------------------
# Oracle: the per-site generator, one derive_rng stream and one
# Generator.choice(p=...) per categorical draw.  generate_population batch-
# seeds the streams and bisects precomputed CDFs; it must match this
# draw-for-draw.


def _oracle_choose_from_shares(rng, shares):
    values = [value for value, _ in shares]
    weights = np.asarray([weight for _, weight in shares], dtype=float)
    weights = weights / weights.sum()
    return values[int(rng.choice(len(values), p=weights))]


def _oracle_sample_size(rng, facet):
    weights = _SIZE_WEIGHTS[facet]
    labels = list(weights)
    probabilities = np.asarray([weights[label] for label in labels], dtype=float)
    probabilities = probabilities / probabilities.sum()
    return _SIZE_BY_LABEL[labels[int(rng.choice(len(labels), p=probabilities))]]


def _oracle_build_slots(rng, config, facet, domain):
    mean = dict(config.slot_mean_by_facet)[facet]
    n_slots = 1 + int(rng.poisson(max(mean - 1.0, 0.1)))
    slots = []
    for index in range(n_slots):
        primary = _oracle_sample_size(rng, facet)
        extra_sizes = ()
        if rng.random() < 0.3:
            extra_sizes = (_oracle_sample_size(rng, facet),)
        slots.append(AdSlot(code=f"div-gpt-ad-{domain}-{index}", primary_size=primary,
                            sizes=(primary, *extra_sizes)))
    auctioned = list(slots)
    if rng.random() < config.multi_device_duplicate_rate:
        duplicates = int(rng.integers(2, 5))
        for copy_index in range(1, duplicates + 1):
            for slot in slots:
                auctioned.append(AdSlot(code=f"{slot.code}-device{copy_index}",
                                        primary_size=_oracle_sample_size(rng, facet),
                                        floor_cpm=slot.floor_cpm))
    return tuple(slots), tuple(auctioned)


def _oracle_weighted_sample(rng, candidates, count):
    weights = np.asarray([p.popularity_weight for p in candidates], dtype=float)
    weights = weights / weights.sum()
    count = min(count, len(candidates))
    chosen = rng.choice(len(candidates), size=count, replace=False, p=weights)
    return [candidates[int(i)] for i in np.atleast_1d(chosen)]


def _oracle_choose_partners(rng, config, registry, facet):
    ad_servers = registry.ad_servers()
    dfp = ad_servers[0] if ad_servers else registry.partners[0]
    if facet is HBFacet.SERVER_SIDE:
        if rng.random() < config.server_side_dfp_share:
            aggregator = dfp
        else:
            capable = [p for p in registry.server_side_capable() if p is not dfp]
            aggregator = _oracle_weighted_sample(rng, capable, 1)[0] if capable else dfp
        return (aggregator,), aggregator
    n_partners = int(_oracle_choose_from_shares(rng, list(config.partner_count_distribution)))
    partners = []
    if rng.random() < config.multi_partner_dfp_share:
        partners.append(dfp)
    candidates = [p for p in registry.partners if p is not dfp]
    needed = n_partners - len(partners)
    if needed > 0:
        partners.extend(_oracle_weighted_sample(rng, candidates, needed))
    unique = []
    for partner in partners:
        if partner not in unique:
            unique.append(partner)
    if facet is HBFacet.HYBRID:
        if any(p is dfp for p in unique):
            ad_server = dfp
        else:
            capable = [p for p in unique if p.can_run_server_side]
            ad_server = capable[0] if capable else dfp
    else:
        ad_server = None
    return tuple(unique), ad_server


def _oracle_latency_scale(rank, config):
    if rank <= config.top_rank_threshold:
        return config.top_rank_latency_scale
    if rank <= config.head_rank_threshold:
        return config.head_latency_scale
    return 1.0


def _oracle_publisher(rank, config, registry):
    rng = derive_rng(config.seed, "publisher", rank)
    domain = f"site-{rank:06d}.example"
    latency_scale = _oracle_latency_scale(rank, config)
    if not rng.random() < config.adoption_probability(rank):
        return Publisher(domain=domain, rank=rank, uses_hb=False, latency_scale=latency_scale)
    facet = _oracle_choose_from_shares(rng, list(config.facet_shares))
    partners, ad_server = _oracle_choose_partners(rng, config, registry, facet)
    if facet is HBFacet.SERVER_SIDE:
        wrapper = (WrapperKind.GPT if ad_server is not None and ad_server.can_serve_ads
                   else WrapperKind.CUSTOM)
    else:
        wrapper = _oracle_choose_from_shares(rng, list(config.wrapper_shares))
    slots, auctioned = _oracle_build_slots(rng, config, facet, domain)
    timeout_ms = config.default_timeout_ms
    if rng.random() < config.custom_timeout_rate:
        low, high = config.custom_timeout_range_ms
        timeout_ms = float(rng.uniform(low, high))
    misconfigured = (facet is not HBFacet.SERVER_SIDE
                     and rng.random() < config.misconfigured_wrapper_rate)
    return Publisher(domain=domain, rank=rank, uses_hb=True, facet=facet, wrapper=wrapper,
                     partners=partners, ad_server=ad_server, slots=slots,
                     auctioned_slots=auctioned, timeout_ms=timeout_ms,
                     misconfigured_wrapper=misconfigured, latency_scale=latency_scale)


class TestBatchSeededGeneration:
    @pytest.mark.parametrize("seed", [7, 1001, 2**32 + 7])
    def test_matches_per_site_oracle_field_by_field(self, seed, registry):
        config = PopulationConfig(seed=seed).scaled(1_500)
        population = generate_population(config, registry)
        assert len(population) == 1_500
        assert 0 < len(population.hb_publishers()) < 1_500
        for publisher in population:
            expected = _oracle_publisher(publisher.rank, config, registry)
            for field in fields(Publisher):
                got, want = getattr(publisher, field.name), getattr(expected, field.name)
                assert type(got) is type(want), (publisher.domain, field.name)
                assert got == want, (publisher.domain, field.name)
