"""Detection output records.

These are the records HBDetector produces for every crawled page and that the
whole analysis layer consumes.  They intentionally contain only information
that is observable from the browser — no ground truth ever leaks in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import DetectionError
from repro.models import HBFacet

__all__ = ["ObservedBid", "ObservedAuction", "SiteDetection"]


@dataclass(frozen=True, slots=True)
class ObservedBid:
    """One bid the detector could attribute to a partner on a page."""

    partner: str
    bidder_code: str
    slot_code: str
    cpm: float | None
    size: str | None
    latency_ms: float | None
    late: bool = False
    won: bool = False
    source: str = "client"  # "client" (bidResponse events) or "server" (hb_* in responses)

    def __post_init__(self) -> None:
        if self.cpm is not None and self.cpm < 0:
            raise DetectionError("observed CPM cannot be negative")
        if self.latency_ms is not None and self.latency_ms < 0:
            raise DetectionError("observed latency cannot be negative")
        if self.source not in ("client", "server"):
            raise DetectionError(f"unknown bid source {self.source!r}")


@dataclass(frozen=True, slots=True)
class ObservedAuction:
    """One ad-slot auction reconstructed from the page's activity."""

    slot_code: str
    size: str | None
    bids: tuple[ObservedBid, ...]
    start_ms: float
    end_ms: float
    facet: HBFacet

    def __post_init__(self) -> None:
        if self.end_ms < self.start_ms:
            raise DetectionError("an auction cannot end before it starts")

    @property
    def latency_ms(self) -> float:
        return self.end_ms - self.start_ms

    @property
    def n_bids(self) -> int:
        return len(self.bids)

    @property
    def late_bids(self) -> tuple[ObservedBid, ...]:
        return tuple(bid for bid in self.bids if bid.late)

    @property
    def late_bid_fraction(self) -> float | None:
        """Share of this auction's bids that arrived too late (None if no bids)."""
        if not self.bids:
            return None
        return len(self.late_bids) / len(self.bids)

    @property
    def winning_bid(self) -> ObservedBid | None:
        winners = [bid for bid in self.bids if bid.won]
        return winners[0] if winners else None


@dataclass(frozen=True, slots=True)
class SiteDetection:
    """Everything the detector learned about one page load."""

    domain: str
    rank: int
    hb_detected: bool
    facet: HBFacet | None = None
    library: str | None = None
    partners: tuple[str, ...] = ()
    auctions: tuple[ObservedAuction, ...] = ()
    partner_latencies_ms: Mapping[str, float] = field(default_factory=dict)
    total_latency_ms: float | None = None
    detection_channels: tuple[str, ...] = ()
    crawl_day: int = 0
    page_load_ms: float | None = None

    def __post_init__(self) -> None:
        if self.hb_detected and self.facet is None:
            raise DetectionError(f"HB detected on {self.domain} but no facet classified")
        if self.total_latency_ms is not None and self.total_latency_ms < 0:
            raise DetectionError("total HB latency cannot be negative")
        if self.rank < 1:
            raise DetectionError("site rank is 1-based")

    @property
    def n_partners(self) -> int:
        return len(self.partners)

    @property
    def n_auctions(self) -> int:
        return len(self.auctions)

    @property
    def all_bids(self) -> tuple[ObservedBid, ...]:
        return tuple(bid for auction in self.auctions for bid in auction.bids)

    @property
    def n_bids(self) -> int:
        return len(self.all_bids)

    @property
    def n_late_bids(self) -> int:
        return sum(1 for bid in self.all_bids if bid.late)
