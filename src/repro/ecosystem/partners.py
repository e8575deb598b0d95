"""Demand-partner behaviour models.

A :class:`DemandPartner` is an ad-tech company that can be configured as a
bidder in a publisher's header-bidding wrapper (DSPs, SSPs, ad exchanges) or
act as the publisher's ad server (e.g. DoubleClick for Publishers).  The
partner's observable behaviour during an auction is fully described by two
models:

* :class:`LatencyModel` — how long the partner takes to answer a bid request
  (log-normal, parameterised by its median and a shape factor), and
* :class:`BidBehavior` — whether it bids at all for a vanilla (cookie-less)
  crawler profile, and how much it bids depending on the ad-slot size.

Both are sampled with explicit :class:`numpy.random.Generator` instances so
the whole ecosystem is reproducible from a single seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.errors import ConfigurationError
from repro.models import AdSlotSize, PartnerKind
from repro.utils.ids import slugify

__all__ = ["LatencyModel", "BidBehavior", "PartnerResponse", "DemandPartner"]


@dataclass(frozen=True)
class LatencyModel:
    """Log-normal response-latency model for a demand partner.

    ``median_ms`` is the distribution median; ``sigma`` is the log-space
    standard deviation (popular partners in the paper exhibit lower
    variability, i.e. smaller sigma).  ``minimum_ms`` is a hard floor that
    models the unavoidable network round trip.
    """

    median_ms: float
    sigma: float = 0.55
    minimum_ms: float = 15.0
    #: Probability that a response is served by an overloaded backend and takes
    #: ``slow_multiplier`` times longer than usual.  The paper attributes the
    #: chronic late bidders of Figure 18 to partners whose infrastructure
    #: cannot keep up with the broadcast volume of HB bid requests.
    slow_response_probability: float = 0.0
    slow_multiplier: float = 10.0

    def __post_init__(self) -> None:
        if self.median_ms <= 0:
            raise ConfigurationError("latency median must be positive")
        if self.sigma <= 0:
            raise ConfigurationError("latency sigma must be positive")
        if self.minimum_ms < 0:
            raise ConfigurationError("latency minimum cannot be negative")
        if not 0.0 <= self.slow_response_probability < 0.5:
            raise ConfigurationError("slow response probability must be in [0, 0.5)")
        if self.slow_multiplier < 1.0:
            raise ConfigurationError("slow multiplier must be >= 1")

    def sample(self, rng: np.random.Generator, scale: float = 1.0) -> float:
        """Draw one response latency in milliseconds.

        ``scale`` lets the caller model site-level effects (e.g. highly ranked
        publishers with better peering see systematically lower latencies).
        """
        if scale <= 0:
            raise ValueError("latency scale must be positive")
        mu = math.log(self.median_ms * scale)
        value = float(rng.lognormal(mean=mu, sigma=self.sigma))
        if self.slow_response_probability and rng.random() < self.slow_response_probability:
            value *= self.slow_multiplier
        return max(self.minimum_ms, value)

    def quantile(self, q: float, scale: float = 1.0) -> float:
        """Analytic quantile of the model (used by calibration tests)."""
        if not 0.0 < q < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        from scipy.stats import norm  # local import: scipy optional elsewhere

        mu = math.log(self.median_ms * scale)
        return max(self.minimum_ms, float(math.exp(mu + self.sigma * norm.ppf(q))))


@dataclass(frozen=True)
class BidBehavior:
    """How a partner decides whether and how much to bid.

    ``bid_probability`` is the chance of returning a bid for a vanilla,
    history-less profile (the paper's crawler deliberately carries no cookies,
    which is why only ~30% of auctions receive bids at all).  ``base_cpm`` is
    the median CPM the partner bids for the reference 300x250 slot; actual
    bids scale with the slot size elasticity and facet multiplier supplied by
    the caller, with log-normal noise of shape ``cpm_sigma``.
    """

    bid_probability: float = 0.25
    base_cpm: float = 0.05
    cpm_sigma: float = 1.1

    def __post_init__(self) -> None:
        if not 0.0 <= self.bid_probability <= 1.0:
            raise ConfigurationError("bid probability must be in [0, 1]")
        if self.base_cpm <= 0:
            raise ConfigurationError("base CPM must be positive")
        if self.cpm_sigma <= 0:
            raise ConfigurationError("CPM sigma must be positive")

    def will_bid(self, rng: np.random.Generator) -> bool:
        """Decide whether the partner bids at all for this request."""
        return bool(rng.random() < self.bid_probability)

    def sample_cpm(
        self,
        rng: np.random.Generator,
        size: AdSlotSize,
        *,
        size_multiplier: float = 1.0,
        facet_multiplier: float = 1.0,
    ) -> float:
        """Draw a bid price in CPM (USD per thousand impressions)."""
        if size_multiplier <= 0 or facet_multiplier <= 0:
            raise ValueError("CPM multipliers must be positive")
        location = self.base_cpm * size_multiplier * facet_multiplier
        mu = math.log(location)
        cpm = float(rng.lognormal(mean=mu, sigma=self.cpm_sigma))
        return round(max(cpm, 0.0001), 5)


@dataclass(frozen=True)
class PartnerResponse:
    """The outcome of sending one bid request to one partner for one slot."""

    partner: "DemandPartner"
    slot_code: str
    latency_ms: float
    bid_cpm: float | None
    size: AdSlotSize
    currency: str = "USD"

    @property
    def did_bid(self) -> bool:
        """True when the partner returned an actual bid (not a no-bid)."""
        return self.bid_cpm is not None


@dataclass(frozen=True)
class DemandPartner:
    """A named ad-tech company participating in header bidding.

    Attributes
    ----------
    name:
        Human-readable company / bidder name (e.g. ``"AppNexus"``).
    kind:
        Supply-chain role (DSP, SSP, ADX, ad server, agency).
    bidder_code:
        The short code the Prebid adapter uses (e.g. ``"appnexus"``).
    domains:
        Hostnames the partner's bid endpoints live on; the detector's
        known-partner list is built from these.
    latency:
        Response latency model.
    bidding:
        Bid decision / pricing model.
    popularity_weight:
        Relative likelihood that a publisher configures this partner.
    can_serve_ads / can_run_server_side:
        Whether the partner can act as the publisher ad server, respectively
        as the single server-side HB aggregation point.
    runs_internal_auction:
        ADX-style partners run their own RTB auction among affiliated DSPs
        before answering, which adds latency but not extra client traffic.
    """

    name: str
    kind: PartnerKind
    bidder_code: str
    domains: tuple[str, ...]
    latency: LatencyModel
    bidding: BidBehavior = field(default_factory=BidBehavior)
    popularity_weight: float = 1.0
    can_serve_ads: bool = False
    can_run_server_side: bool = False
    runs_internal_auction: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("partner name must be non-empty")
        if not self.domains:
            raise ConfigurationError(f"partner {self.name!r} needs at least one domain")
        if self.popularity_weight < 0:
            raise ConfigurationError("popularity weight cannot be negative")
        if not self.bidder_code:
            object.__setattr__(self, "bidder_code", slugify(self.name))

    @property
    def slug(self) -> str:
        """Stable lower-case identifier derived from the partner name."""
        return slugify(self.name)

    @property
    def primary_domain(self) -> str:
        return self.domains[0]

    def bid_endpoint(self) -> str:
        """The URL host+path bid requests are sent to."""
        return f"https://{self.primary_domain}/hb/bid"

    def respond(
        self,
        rng: np.random.Generator,
        slot_code: str,
        size: AdSlotSize,
        *,
        latency_scale: float = 1.0,
        size_multiplier: float = 1.0,
        facet_multiplier: float = 1.0,
    ) -> PartnerResponse:
        """Simulate the partner's answer to a single bid request.

        The returned latency already includes the partner's internal RTB
        auction, if it runs one.
        """
        latency = self.latency.sample(rng, scale=latency_scale)
        if self.runs_internal_auction:
            # An internal auction among affiliated DSPs adds a second, smaller
            # round of waiting before the partner can answer the wrapper.
            latency += self.latency.sample(rng, scale=latency_scale * 0.35)
        cpm: float | None = None
        if self.bidding.will_bid(rng):
            cpm = self.bidding.sample_cpm(
                rng,
                size,
                size_multiplier=size_multiplier,
                facet_multiplier=facet_multiplier,
            )
        return PartnerResponse(
            partner=self,
            slot_code=slot_code,
            latency_ms=latency,
            bid_cpm=cpm,
            size=size,
        )

    def describe(self) -> Mapping[str, object]:
        """Return a JSON-serialisable summary of the partner's configuration."""
        return {
            "name": self.name,
            "slug": self.slug,
            "kind": self.kind.value,
            "bidder_code": self.bidder_code,
            "domains": list(self.domains),
            "latency_median_ms": self.latency.median_ms,
            "latency_sigma": self.latency.sigma,
            "bid_probability": self.bidding.bid_probability,
            "base_cpm": self.bidding.base_cpm,
            "popularity_weight": self.popularity_weight,
            "can_serve_ads": self.can_serve_ads,
            "can_run_server_side": self.can_run_server_side,
            "runs_internal_auction": self.runs_internal_auction,
        }
