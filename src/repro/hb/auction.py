"""Ground-truth auction outcome records.

The HB wrappers produce two kinds of artefacts for every page load:

1. the *observable* stream of DOM events and web requests that HBDetector is
   allowed to use, and
2. the *ground truth* outcome records defined here, which the simulation keeps
   so that detection accuracy can be validated and so that analysis results
   can be cross-checked against what really happened.

HBDetector must never read these records; only validation and calibration
tests do.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AuctionError
from repro.models import AdSlot, AdSlotSize, HBFacet, SaleChannel

__all__ = ["BidOutcome", "SlotAuctionOutcome", "HeaderBiddingOutcome"]


@dataclass(frozen=True, slots=True)
class BidOutcome:
    """One partner's answer to one slot's bid request (ground truth)."""

    partner_name: str
    bidder_code: str
    slot_code: str
    size: AdSlotSize
    cpm: float | None
    requested_at_ms: float
    responded_at_ms: float
    late: bool
    won: bool = False
    currency: str = "USD"

    def __post_init__(self) -> None:
        if self.responded_at_ms < self.requested_at_ms:
            raise AuctionError("a bid cannot be answered before it was requested")
        if self.cpm is not None and self.cpm < 0:
            raise AuctionError("bid CPM cannot be negative")
        if self.won and self.cpm is None:
            raise AuctionError("a no-bid cannot win an auction")

    @property
    def latency_ms(self) -> float:
        return self.responded_at_ms - self.requested_at_ms

    @property
    def is_bid(self) -> bool:
        """True when the partner returned an actual price (not a no-bid)."""
        return self.cpm is not None


@dataclass(frozen=True, slots=True)
class SlotAuctionOutcome:
    """The complete ground truth for one auctioned ad slot."""

    slot: AdSlot
    bids: tuple[BidOutcome, ...]
    winning_channel: SaleChannel
    winner: str | None
    clearing_cpm: float
    auction_start_ms: float
    ad_server_called_at_ms: float
    ad_server_responded_at_ms: float
    rendered: bool = True

    def __post_init__(self) -> None:
        if self.ad_server_called_at_ms < self.auction_start_ms:
            raise AuctionError("the ad server cannot be called before the auction starts")
        if self.ad_server_responded_at_ms < self.ad_server_called_at_ms:
            raise AuctionError("the ad server cannot respond before it is called")

    @property
    def total_latency_ms(self) -> float:
        """Time from the first bid request until the ad server responded."""
        return self.ad_server_responded_at_ms - self.auction_start_ms

    @property
    def received_bids(self) -> tuple[BidOutcome, ...]:
        return tuple(bid for bid in self.bids if bid.is_bid)

    @property
    def late_bids(self) -> tuple[BidOutcome, ...]:
        return tuple(bid for bid in self.bids if bid.is_bid and bid.late)

    @property
    def on_time_bids(self) -> tuple[BidOutcome, ...]:
        return tuple(bid for bid in self.bids if bid.is_bid and not bid.late)

    @property
    def participating_partners(self) -> tuple[str, ...]:
        seen: list[str] = []
        for bid in self.bids:
            if bid.partner_name not in seen:
                seen.append(bid.partner_name)
        return tuple(seen)


@dataclass(frozen=True, slots=True)
class HeaderBiddingOutcome:
    """Ground truth for every auction run during one page load."""

    domain: str
    facet: HBFacet
    slot_outcomes: tuple[SlotAuctionOutcome, ...]
    wrapper_timeout_ms: float
    misconfigured_wrapper: bool = False

    def __post_init__(self) -> None:
        if not self.slot_outcomes:
            raise AuctionError("a header bidding outcome needs at least one slot auction")
        if self.wrapper_timeout_ms <= 0:
            raise AuctionError("wrapper timeout must be positive")

    @property
    def n_auctions(self) -> int:
        return len(self.slot_outcomes)

    @property
    def all_bids(self) -> tuple[BidOutcome, ...]:
        return tuple(bid for outcome in self.slot_outcomes for bid in outcome.bids)

    @property
    def received_bids(self) -> tuple[BidOutcome, ...]:
        return tuple(bid for bid in self.all_bids if bid.is_bid)

    @property
    def total_latency_ms(self) -> float:
        """Page-level HB latency: first bid request to last ad-server response."""
        start = min(outcome.auction_start_ms for outcome in self.slot_outcomes)
        end = max(outcome.ad_server_responded_at_ms for outcome in self.slot_outcomes)
        return end - start

    @property
    def participating_partners(self) -> tuple[str, ...]:
        seen: list[str] = []
        for outcome in self.slot_outcomes:
            for name in outcome.participating_partners:
                if name not in seen:
                    seen.append(name)
        return tuple(seen)

    def bids_by_partner(self) -> dict[str, list[BidOutcome]]:
        """Group received bids by partner name."""
        grouped: dict[str, list[BidOutcome]] = {}
        for bid in self.received_bids:
            grouped.setdefault(bid.partner_name, []).append(bid)
        return grouped
