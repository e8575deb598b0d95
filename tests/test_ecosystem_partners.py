"""Unit tests for demand-partner behaviour models."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.ecosystem.partners import BidBehavior, DemandPartner, LatencyModel
from repro.models import AdSlotSize, PartnerKind


def make_partner(**overrides):
    defaults = dict(
        name="TestBidder",
        kind=PartnerKind.SSP,
        bidder_code="testbidder",
        domains=("testbidder.com",),
        latency=LatencyModel(300.0, 0.4),
        bidding=BidBehavior(bid_probability=1.0, base_cpm=0.05),
    )
    defaults.update(overrides)
    return DemandPartner(**defaults)


class TestLatencyModel:
    def test_sample_respects_minimum(self):
        model = LatencyModel(median_ms=20.0, sigma=0.3, minimum_ms=15.0)
        rng = np.random.default_rng(0)
        assert all(model.sample(rng) >= 15.0 for _ in range(200))

    def test_sample_median_is_close_to_configured_median(self):
        model = LatencyModel(median_ms=400.0, sigma=0.5)
        rng = np.random.default_rng(1)
        samples = [model.sample(rng) for _ in range(4000)]
        assert 360.0 < float(np.median(samples)) < 440.0

    def test_scale_shifts_the_distribution(self):
        model = LatencyModel(median_ms=400.0, sigma=0.3)
        rng_a, rng_b = np.random.default_rng(2), np.random.default_rng(2)
        fast = [model.sample(rng_a, scale=0.5) for _ in range(500)]
        slow = [model.sample(rng_b, scale=1.0) for _ in range(500)]
        assert float(np.median(fast)) < float(np.median(slow))

    def test_rejects_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            LatencyModel(median_ms=0.0)
        with pytest.raises(ConfigurationError):
            LatencyModel(median_ms=100.0, sigma=0.0)
        with pytest.raises(ConfigurationError):
            LatencyModel(median_ms=100.0, minimum_ms=-5.0)

    def test_sample_rejects_non_positive_scale(self):
        model = LatencyModel(median_ms=100.0)
        with pytest.raises(ValueError):
            model.sample(np.random.default_rng(0), scale=0.0)

    def test_quantile_is_monotonic(self):
        model = LatencyModel(median_ms=300.0, sigma=0.5)
        assert model.quantile(0.25) < model.quantile(0.5) < model.quantile(0.9)


class TestBidBehavior:
    def test_bid_probability_zero_never_bids(self):
        behavior = BidBehavior(bid_probability=0.0)
        rng = np.random.default_rng(0)
        assert not any(behavior.will_bid(rng) for _ in range(100))

    def test_bid_probability_one_always_bids(self):
        behavior = BidBehavior(bid_probability=1.0)
        rng = np.random.default_rng(0)
        assert all(behavior.will_bid(rng) for _ in range(100))

    def test_cpm_scales_with_multipliers(self):
        behavior = BidBehavior(bid_probability=1.0, base_cpm=0.05, cpm_sigma=0.2)
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        size = AdSlotSize(300, 250)
        cheap = [behavior.sample_cpm(rng_a, size, size_multiplier=1.0) for _ in range(300)]
        pricey = [behavior.sample_cpm(rng_b, size, size_multiplier=3.0) for _ in range(300)]
        assert float(np.median(pricey)) > 2.0 * float(np.median(cheap))

    def test_cpm_is_positive_and_rounded(self):
        behavior = BidBehavior(bid_probability=1.0, base_cpm=0.0005, cpm_sigma=0.8)
        rng = np.random.default_rng(4)
        cpm = behavior.sample_cpm(rng, AdSlotSize(300, 50))
        assert cpm > 0
        assert cpm == round(cpm, 5)

    def test_rejects_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            BidBehavior(bid_probability=1.5)
        with pytest.raises(ConfigurationError):
            BidBehavior(base_cpm=0.0)
        with pytest.raises(ConfigurationError):
            BidBehavior(cpm_sigma=0.0)

    def test_sample_cpm_rejects_bad_multipliers(self):
        behavior = BidBehavior()
        with pytest.raises(ValueError):
            behavior.sample_cpm(np.random.default_rng(0), AdSlotSize(300, 250), size_multiplier=0.0)


class TestDemandPartner:
    def test_slug_and_primary_domain(self):
        partner = make_partner(name="Index Exchange", domains=("indexexchange.com", "casalemedia.com"))
        assert partner.slug == "index-exchange"
        assert partner.primary_domain == "indexexchange.com"
        assert "indexexchange.com" in partner.bid_endpoint()

    def test_respond_always_reports_latency(self):
        partner = make_partner()
        rng = np.random.default_rng(5)
        response = partner.respond(rng, "slot-1", AdSlotSize(300, 250))
        assert response.latency_ms > 0
        assert response.slot_code == "slot-1"
        assert response.did_bid  # bid probability forced to 1.0

    def test_no_bid_partner_returns_none_cpm(self):
        partner = make_partner(bidding=BidBehavior(bid_probability=0.0))
        response = partner.respond(np.random.default_rng(6), "slot-1", AdSlotSize(300, 250))
        assert response.bid_cpm is None
        assert not response.did_bid

    def test_internal_auction_adds_latency(self):
        quiet = make_partner(runs_internal_auction=False)
        chatty = make_partner(name="Chatty", domains=("chatty.com",), runs_internal_auction=True)
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        base = np.median([quiet.respond(rng_a, "s", AdSlotSize(300, 250)).latency_ms for _ in range(300)])
        extra = np.median([chatty.respond(rng_b, "s", AdSlotSize(300, 250)).latency_ms for _ in range(300)])
        assert extra > base

    def test_requires_at_least_one_domain(self):
        with pytest.raises(ConfigurationError):
            make_partner(domains=())

    def test_describe_is_json_friendly(self):
        description = make_partner().describe()
        assert description["name"] == "TestBidder"
        assert isinstance(description["domains"], list)
