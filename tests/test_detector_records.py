"""Unit tests for the detection output records."""

import pytest

from repro.detector.records import ObservedAuction, ObservedBid, SiteDetection
from repro.errors import DetectionError
from repro.models import HBFacet


def make_bid(**overrides):
    defaults = dict(partner="AppNexus", bidder_code="appnexus", slot_code="s1",
                    cpm=0.3, size="300x250", latency_ms=220.0)
    defaults.update(overrides)
    return ObservedBid(**defaults)


def make_auction(bids=None, **overrides):
    defaults = dict(slot_code="s1", size="300x250",
                    bids=tuple(bids if bids is not None else [make_bid()]),
                    start_ms=100.0, end_ms=700.0, facet=HBFacet.CLIENT_SIDE)
    defaults.update(overrides)
    return ObservedAuction(**defaults)


class TestObservedBid:
    def test_rejects_negative_cpm_or_latency(self):
        with pytest.raises(DetectionError):
            make_bid(cpm=-1.0)
        with pytest.raises(DetectionError):
            make_bid(latency_ms=-5.0)

    def test_rejects_unknown_source(self):
        with pytest.raises(DetectionError):
            make_bid(source="guess")


class TestObservedAuction:
    def test_latency_and_counts(self):
        auction = make_auction([make_bid(), make_bid(partner="Criteo", bidder_code="criteo", late=True)])
        assert auction.latency_ms == pytest.approx(600.0)
        assert auction.n_bids == 2
        assert len(auction.late_bids) == 1
        assert auction.late_bid_fraction == pytest.approx(0.5)

    def test_late_fraction_none_without_bids(self):
        assert make_auction([]).late_bid_fraction is None

    def test_winning_bid_lookup(self):
        auction = make_auction([make_bid(won=True), make_bid(partner="Criteo", bidder_code="criteo")])
        assert auction.winning_bid.partner == "AppNexus"
        assert make_auction([make_bid()]).winning_bid is None

    def test_rejects_end_before_start(self):
        with pytest.raises(DetectionError):
            make_auction(end_ms=50.0)


class TestSiteDetection:
    def test_detection_aggregates_auctions(self):
        detection = SiteDetection(
            domain="pub.example", rank=12, hb_detected=True, facet=HBFacet.HYBRID,
            partners=("DFP", "AppNexus"),
            auctions=(make_auction(), make_auction(bids=[make_bid(late=True)])),
            total_latency_ms=640.0,
        )
        assert detection.n_partners == 2
        assert detection.n_auctions == 2
        assert detection.n_bids == 2
        assert detection.n_late_bids == 1

    def test_hb_detected_requires_facet(self):
        with pytest.raises(DetectionError):
            SiteDetection(domain="pub.example", rank=1, hb_detected=True)

    def test_rank_must_be_positive(self):
        with pytest.raises(DetectionError):
            SiteDetection(domain="pub.example", rank=0, hb_detected=False)

    def test_negative_latency_rejected(self):
        with pytest.raises(DetectionError):
            SiteDetection(domain="pub.example", rank=1, hb_detected=True,
                          facet=HBFacet.CLIENT_SIDE, total_latency_ms=-1.0)
