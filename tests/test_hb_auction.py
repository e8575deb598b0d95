"""Unit tests for ground-truth auction records."""

import pytest

from repro.errors import AuctionError
from repro.hb.auction import BidOutcome, HeaderBiddingOutcome, SlotAuctionOutcome
from repro.models import AdSlot, AdSlotSize, HBFacet, SaleChannel


def make_bid(**overrides):
    defaults = dict(
        partner_name="AppNexus",
        bidder_code="appnexus",
        slot_code="slot-1",
        size=AdSlotSize(300, 250),
        cpm=0.4,
        requested_at_ms=100.0,
        responded_at_ms=350.0,
        late=False,
    )
    defaults.update(overrides)
    return BidOutcome(**defaults)


def make_slot_outcome(bids=(), **overrides):
    defaults = dict(
        slot=AdSlot(code="slot-1", primary_size=AdSlotSize(300, 250)),
        bids=tuple(bids),
        winning_channel=SaleChannel.HEADER_BIDDING,
        winner="AppNexus",
        clearing_cpm=0.4,
        auction_start_ms=100.0,
        ad_server_called_at_ms=600.0,
        ad_server_responded_at_ms=700.0,
    )
    defaults.update(overrides)
    return SlotAuctionOutcome(**defaults)


class TestBidOutcome:
    def test_latency_is_response_minus_request(self):
        assert make_bid().latency_ms == pytest.approx(250.0)

    def test_no_bid_has_no_price(self):
        no_bid = make_bid(cpm=None)
        assert not no_bid.is_bid

    def test_rejects_response_before_request(self):
        with pytest.raises(AuctionError):
            make_bid(responded_at_ms=50.0)

    def test_rejects_winning_no_bid(self):
        with pytest.raises(AuctionError):
            make_bid(cpm=None, won=True)

    def test_rejects_negative_cpm(self):
        with pytest.raises(AuctionError):
            make_bid(cpm=-0.5)


class TestSlotAuctionOutcome:
    def test_total_latency_spans_request_to_ad_server_response(self):
        outcome = make_slot_outcome([make_bid()])
        assert outcome.total_latency_ms == pytest.approx(600.0)

    def test_late_and_on_time_bids_partition_received_bids(self):
        bids = [make_bid(), make_bid(partner_name="Criteo", bidder_code="criteo", late=True),
                make_bid(partner_name="Sovrn", bidder_code="sovrn", cpm=None)]
        outcome = make_slot_outcome(bids)
        assert len(outcome.received_bids) == 2
        assert len(outcome.late_bids) == 1
        assert len(outcome.on_time_bids) == 1

    def test_participating_partners_are_deduplicated_in_order(self):
        bids = [make_bid(), make_bid(slot_code="slot-1"), make_bid(partner_name="Criteo", bidder_code="criteo")]
        outcome = make_slot_outcome(bids)
        assert outcome.participating_partners == ("AppNexus", "Criteo")

    def test_rejects_inconsistent_timestamps(self):
        with pytest.raises(AuctionError):
            make_slot_outcome(ad_server_called_at_ms=50.0)
        with pytest.raises(AuctionError):
            make_slot_outcome(ad_server_responded_at_ms=500.0, ad_server_called_at_ms=600.0)


class TestHeaderBiddingOutcome:
    def test_aggregates_across_slots(self):
        outcome = HeaderBiddingOutcome(
            domain="x.example",
            facet=HBFacet.CLIENT_SIDE,
            slot_outcomes=(make_slot_outcome([make_bid()]),
                           make_slot_outcome([make_bid(cpm=None)], winner=None,
                                             winning_channel=SaleChannel.FALLBACK, clearing_cpm=0.0)),
            wrapper_timeout_ms=3000.0,
        )
        assert outcome.n_auctions == 2
        assert len(outcome.all_bids) == 2
        assert len(outcome.received_bids) == 1
        assert outcome.total_latency_ms == pytest.approx(600.0)
        assert outcome.participating_partners == ("AppNexus",)
        assert set(outcome.bids_by_partner()) == {"AppNexus"}

    def test_requires_at_least_one_slot(self):
        with pytest.raises(AuctionError):
            HeaderBiddingOutcome(domain="x", facet=HBFacet.HYBRID, slot_outcomes=(),
                                 wrapper_timeout_ms=3000.0)
