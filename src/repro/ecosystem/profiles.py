"""Precompiled site profiles: the immutable inputs of a page-load simulation.

Simulating one page visit derives a lot of state that never changes between
visits to the same site: the rendered page and its resource list, each demand
partner's log-normal latency parameters at the site's latency scale, the
combined price multiplier (size x facet x popularity x vanilla-profile) each
partner applies per ad slot, the static fields of every bid request, the
internal-bidder candidate pool of server-side/hybrid ad servers, and the
waterfall chain tables of non-HB pages.  The slow path re-derives all of it
on every load; over a 34-day longitudinal campaign that is 34 re-derivations
per site of values that are pure functions of ``(environment, seed, site)``.

This module compiles those inputs once per site into a flat, slotted
:class:`SiteProfile` held in a :class:`SiteProfileTable`.  The hot loops in
:mod:`repro.browser.engine`, :mod:`repro.hb.client_side`,
:mod:`repro.hb.server_side`, :mod:`repro.hb.hybrid` and
:mod:`repro.hb.waterfall` then read precomputed values instead of re-deriving
them per page.

Shared, site-independent parts
------------------------------
Most of a profile does not depend on the site at all.  A partner's compiled
behaviour (:class:`PartnerProfile`) is a pure function of
``(partner, latency_scale, facet)``: its log-normal price locations are keyed
by slot size label, not aligned with one site's slots.  An internal-auction
candidate pool (:class:`InternalPool`) is a pure function of
``(excluded partners, latency_scale, facet)``, and the waterfall tables
(:class:`SiteWaterfall`) of ``latency_scale`` alone.  Publishers draw their
latency scale from three values, so the table builds each of these objects
once and every site with the same key holds the *same* object.  A
server-side or hybrid site therefore costs one dictionary lookup for its
~80-partner internal auction instead of ~80 fresh profiles.

Equivalence contract
--------------------
The fast path must keep emitted detections **byte-identical** to the slow
reference path (``CrawlConfig(fast_path=False)``).  Every precomputed float
is therefore produced by the *same arithmetic expression* (same operand
order, same intermediate products) the slow path evaluates per page, and the
samplers below consume the page RNG stream in exactly the same call order as
the model classes they shortcut (:class:`~repro.ecosystem.partners.LatencyModel`,
:class:`~repro.ecosystem.partners.BidBehavior`,
:meth:`~repro.hb.environment.AuctionEnvironment.sample_internal_bidders`).
``tests/test_fastpath_equivalence.py`` asserts the end-to-end guarantee.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.browser.page import BASELINE_RESOURCE_URLS, Page, build_page, build_pages
from repro.ecosystem.bidding import popularity_price_multiplier
from repro.ecosystem.partners import DemandPartner, LatencyModel, PartnerResponse
from repro.ecosystem.publishers import Publisher
from repro.models import STANDARD_SIZES, AdSlotSize, HBFacet
from repro.utils.rng import sample_without_replacement, weighted_cdf

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hb.environment import AuctionEnvironment

__all__ = [
    "AD_SERVER_PATH_SCALE",
    "WATERFALL_MAX_LEVELS",
    "WATERFALL_SLOT_SIZE_LABELS",
    "waterfall_fill_probability",
    "waterfall_head_size",
    "LatencyDraw",
    "PartnerProfile",
    "InternalPool",
    "WaterfallPartnerProfile",
    "SiteWaterfall",
    "SiteProfile",
    "SiteProfileTable",
    "sample_without_replacement",
]


#: Size labels every partner profile's price mapping covers from the start.
_STANDARD_LABELS = frozenset(size.label for size in STANDARD_SIZES)


#: Waterfall model parameters shared with :mod:`repro.hb.waterfall` (which
#: imports them — this is the lowest layer, so sharing avoids an import
#: cycle).  A single definition means the compiled tables and the slow path
#: cannot drift apart.
AD_SERVER_PATH_SCALE: float = 0.6
WATERFALL_MAX_LEVELS: int = 4
#: Sizes :func:`repro.hb.waterfall.default_waterfall_slot` can draw.
WATERFALL_SLOT_SIZE_LABELS: tuple[str, ...] = ("300x250", "728x90", "160x600")


def waterfall_fill_probability(bid_probability: float) -> float:
    """Chance a waterfall network fills a request (see ``_rtb_price``)."""
    return min(0.95, 0.60 + bid_probability)


def waterfall_head_size(n_levels: int) -> int:
    """Candidate-pool size of an ``n_levels`` chain (see ``build_waterfall_chain``)."""
    return max(8, n_levels * 3)


@dataclass(frozen=True, slots=True)
class LatencyDraw:
    """One precompiled log-normal latency sampler.

    Replicates :meth:`LatencyModel.sample` for a fixed scale: the ``mu`` is
    ``log(median_ms * scale)`` computed with the exact operand grouping the
    caller uses, so the drawn values are bit-identical.
    """

    mu: float
    sigma: float
    minimum_ms: float
    slow_probability: float
    slow_multiplier: float

    @classmethod
    def compile(cls, model: LatencyModel, scale: float) -> "LatencyDraw":
        return cls(
            mu=math.log(model.median_ms * scale),
            sigma=model.sigma,
            minimum_ms=model.minimum_ms,
            slow_probability=model.slow_response_probability,
            slow_multiplier=model.slow_multiplier,
        )

    def sample(self, rng: np.random.Generator) -> float:
        value = float(rng.lognormal(mean=self.mu, sigma=self.sigma))
        if self.slow_probability and rng.random() < self.slow_probability:
            value *= self.slow_multiplier
        return max(self.minimum_ms, value)


@dataclass(frozen=True, slots=True)
class PartnerProfile:
    """One demand partner's precompiled behaviour at one latency scale and facet.

    ``cpm_mu_by_label`` maps a slot size label to
    ``log(base_cpm * size_multiplier(size) * facet_multiplier)``, the exact
    log-normal location :meth:`BidBehavior.sample_cpm` would recompute per
    page from the multipliers
    :meth:`AuctionEnvironment.partner_response` re-derives.  Nothing here
    depends on the site, so one profile serves every site that shares the
    ``(partner, latency_scale, facet)`` key.
    """

    partner: DemandPartner
    bidder_code: str
    latency: LatencyDraw
    internal: LatencyDraw | None
    bid_probability: float
    cpm_sigma: float
    #: Shared by the profiles of one (partner, facet); the table adds
    #: non-standard sizes to it in place (see ``_cover_sizes``).
    cpm_mu_by_label: dict[str, float]

    def respond(
        self,
        rng: np.random.Generator,
        slot_code: str,
        size: AdSlotSize,
    ) -> PartnerResponse:
        """Drop-in for ``environment.partner_response`` (same RNG stream)."""
        latency_ms = self.latency.sample(rng)
        if self.internal is not None:
            latency_ms += self.internal.sample(rng)
        cpm: float | None = None
        if rng.random() < self.bid_probability:
            drawn = float(
                rng.lognormal(mean=self.cpm_mu_by_label[size.label], sigma=self.cpm_sigma)
            )
            cpm = round(max(drawn, 0.0001), 5)
        return PartnerResponse(
            partner=self.partner,
            slot_code=slot_code,
            latency_ms=latency_ms,
            bid_cpm=cpm,
            size=size,
        )


@dataclass(frozen=True, slots=True)
class InternalPool:
    """The candidate pool of a server-side or hybrid internal auction.

    A pure function of ``(excluded partners, latency_scale, facet)``: the
    candidates are the registry minus the excluded partners, ``weights``
    their normalised popularity and ``cdf`` its cumulative distribution —
    everything :meth:`AuctionEnvironment.sample_internal_bidders` rebuilds
    per page.
    """

    bounds: tuple[int, int]
    profiles: tuple[PartnerProfile, ...] = ()
    weights: np.ndarray | None = None
    cdf: np.ndarray | None = None

    def sample(self, rng: np.random.Generator) -> list[PartnerProfile]:
        """Mirror of :meth:`AuctionEnvironment.sample_internal_bidders`.

        Consumes the RNG identically (count draw first, then the weighted
        choice over the candidate pool).
        """
        low, high = self.bounds
        count = int(rng.integers(low, high + 1))
        profiles = self.profiles
        if not profiles:
            return []
        count = min(count, len(profiles))
        chosen = sample_without_replacement(rng, self.weights, self.cdf, count)
        return [profiles[int(i)] for i in chosen]


@dataclass(frozen=True, slots=True)
class WaterfallPartnerProfile:
    """Precompiled waterfall behaviour of one ad network at one site scale."""

    partner: DemandPartner
    latency: LatencyDraw
    fill_probability: float
    cpm_sigma: float
    cpm_mu_by_label: Mapping[str, float]


@dataclass(frozen=True, slots=True)
class SiteWaterfall:
    """Chain-construction tables for non-HB pages at one latency scale.

    ``heads[n - 1]`` holds the candidate pool, its normalised popularity
    weights and their cumulative distribution — everything
    :func:`repro.hb.waterfall.build_waterfall_chain` would rebuild per page
    for an ``n``-level chain.
    """

    heads: tuple[tuple[tuple[DemandPartner, ...], np.ndarray, np.ndarray], ...]
    profiles: Mapping[str, WaterfallPartnerProfile]
    max_levels: int


@dataclass(slots=True)
class SiteProfile:
    """Every immutable simulation input of one site, precompiled.

    Non-HB sites populate only ``page``/``resource_urls``/``waterfall``; the
    remaining fields describe the site's header-bidding deployment.
    """

    publisher: Publisher
    page: Page
    #: Fully-built URLs of the page's baseline resources (the slow path runs
    #: each (host, path) pair through ``build_url`` — quoting included — on
    #: every single page load).
    resource_urls: tuple[str, ...] = ()
    waterfall: SiteWaterfall | None = None
    # -- header bidding ------------------------------------------------------
    partner_profiles: tuple[PartnerProfile, ...] = ()
    #: Dispatch list for the client-visible auction: equals
    #: ``partner_profiles`` for client-side sites, the partners minus the ad
    #: server for hybrid sites.
    client_partner_profiles: tuple[PartnerProfile, ...] = ()
    #: ``(url, params)`` per client partner; ``params`` is a template whose
    #: ``auction_id`` is filled in per page (dict order matches
    #: :func:`repro.hb.adapters.build_bid_request`).
    bid_request_templates: tuple[tuple[str, Mapping[str, str]], ...] = ()
    bidders_by_code: Mapping[str, DemandPartner] | None = None
    client_bidders_by_code: Mapping[str, DemandPartner] | None = None
    display_codes: frozenset[str] = frozenset()
    #: Key-value push target (``https://<ad server host>/gampad/ads``).
    ad_server_push_url: str | None = None
    ad_server_latency_mu: float = 0.0
    ad_server_latency_sigma: float = 0.0
    # -- server-side facet ---------------------------------------------------
    server_request_url: str | None = None
    server_request_params: Mapping[str, str] | None = None
    aggregator_latency: LatencyDraw | None = None
    aggregator_internal: LatencyDraw | None = None
    # -- hybrid facet --------------------------------------------------------
    hybrid_render_url: str | None = None
    hybrid_internal_delay: LatencyDraw | None = None
    # -- server-side / hybrid internal auction -------------------------------
    internal_auction: InternalPool | None = None

    def ad_server_latency(self, rng: np.random.Generator) -> float:
        """Mirror of :meth:`AuctionEnvironment.ad_server_latency`."""
        return max(
            10.0,
            float(rng.lognormal(mean=self.ad_server_latency_mu, sigma=self.ad_server_latency_sigma)),
        )


class SiteProfileTable:
    """Lazily-compiled, bounded cache of :class:`SiteProfile` objects.

    One table belongs to one ``(environment, seed)`` pair — the two inputs
    that, together with the publisher, fully determine a profile.  Workers
    keep one table for their whole lifetime, so a longitudinal campaign
    compiles each site once and every later visit is a dictionary hit.

    Beside the per-site profiles, the table memoises the site-independent
    parts they are built from: partner profiles per
    ``(partner, latency_scale, facet)``, internal-auction pools per
    ``(excluded partners, latency_scale, facet)`` and waterfall tables per
    ``latency_scale``.  Sites with equal keys hold the same object.

    The table is safe to share between worker threads: compilation is
    deterministic (a racy double-compile produces identical values), the
    shared parts are published with ``dict.setdefault`` (racing compiles
    still hand out one object) and the site insert/evict critical section is
    guarded by a lock.
    """

    __slots__ = (
        "environment",
        "seed",
        "max_sites",
        "_profiles",
        "_lock",
        "_latency_cache",
        "_cpm_mu_cache",
        "_partner_cache",
        "_pool_cache",
        "_waterfall_cache",
        "compiles",
        # Weak-referenceable so the columnar simulator can key its compiled
        # per-site cache on the table without pinning it alive.
        "__weakref__",
    )

    def __init__(
        self,
        environment: "AuctionEnvironment",
        *,
        seed: int = 2019,
        max_sites: int = 16384,
    ) -> None:
        if max_sites < 1:
            raise ValueError("a profile table must hold at least one site")
        self.environment = environment
        self.seed = seed
        self.max_sites = max_sites
        self._profiles: dict[str, SiteProfile] = {}
        self._lock = threading.Lock()
        self._latency_cache: dict[tuple[str, float], tuple[LatencyDraw, LatencyDraw]] = {}
        self._cpm_mu_cache: dict[tuple[str, HBFacet], dict[str, float]] = {}
        self._partner_cache: dict[tuple[str, float, HBFacet], PartnerProfile] = {}
        self._pool_cache: dict[tuple[frozenset[str], float, HBFacet], InternalPool] = {}
        self._waterfall_cache: dict[float, SiteWaterfall] = {}
        self.compiles = 0

    def __len__(self) -> int:
        return len(self._profiles)

    def profile_for(self, publisher: Publisher) -> SiteProfile:
        """The compiled profile for ``publisher`` (compiled on first use)."""
        profile = self._profiles.get(publisher.domain)
        if profile is not None and (
            profile.publisher is publisher or profile.publisher == publisher
        ):
            return profile
        profile = self._compile(publisher, build_page(publisher, seed=self.seed))
        with self._lock:
            if len(self._profiles) >= self.max_sites and publisher.domain not in self._profiles:
                # Bounded: drop the oldest half wholesale.  Eviction is rare
                # (tables are sized for the paper's 35k-site discovery pass)
                # and re-compiling is cheap and deterministic.
                for domain in list(self._profiles)[: self.max_sites // 2]:
                    del self._profiles[domain]
            self._profiles[publisher.domain] = profile
        return profile

    def precompile(self, publishers: Sequence[Publisher]) -> None:
        """Eagerly compile a batch (used to warm tables outside the hot loop).

        Unlike a loop over :meth:`profile_for` (one lock acquisition per
        site), this compiles every missing profile first and publishes the
        whole batch under a single lock acquisition, so shard warm-up does
        not serialize behind per-site locking.  A fully warm batch touches
        the lock zero times.  The missing sites' pages are built by
        :func:`~repro.browser.page.build_pages`, which seeds their page
        streams in one vectorized pass.
        """
        profiles = self._profiles
        missing = []
        for publisher in publishers:
            profile = profiles.get(publisher.domain)
            if profile is None or not (
                profile.publisher is publisher or profile.publisher == publisher
            ):
                missing.append(publisher)
        if not missing:
            return
        fresh = [
            (publisher.domain, self._compile(publisher, page))
            for publisher, page in zip(missing, build_pages(missing, seed=self.seed))
        ]
        with self._lock:
            for domain, profile in fresh:
                if len(profiles) >= self.max_sites and domain not in profiles:
                    for evicted in list(profiles)[: self.max_sites // 2]:
                        del profiles[evicted]
                profiles[domain] = profile

    # -- compilation helpers -------------------------------------------------
    def _latency_draws(self, partner: DemandPartner, scale: float) -> tuple[LatencyDraw, LatencyDraw]:
        key = (partner.name, scale)
        draws = self._latency_cache.get(key)
        if draws is None:
            draws = (
                LatencyDraw.compile(partner.latency, scale),
                # The second draw of an internal RTB auction runs at 0.35x the
                # site scale; the operand grouping mirrors
                # ``latency.sample(rng, scale=latency_scale * 0.35)``.
                LatencyDraw.compile(partner.latency, scale * 0.35),
            )
            self._latency_cache[key] = draws
        return draws

    def _cpm_mus(
        self, partner: DemandPartner, facet: HBFacet, sizes: Sequence[AdSlotSize]
    ) -> dict[str, float]:
        """The log-normal price location ``environment.partner_response``
        uses, per size label."""
        env = self.environment
        combined = (
            env.pricing.facet_multiplier(facet)
            * (env.pricing.vanilla_profile_multiplier if env.vanilla_profile else 1.0)
            * popularity_price_multiplier(env.popularity_rank(partner), env.total_partners)
        )
        base_cpm = partner.bidding.base_cpm
        return {
            size.label: math.log(base_cpm * env.pricing.size_multiplier(size) * combined)
            for size in sizes
        }

    def _partner_profile(
        self, partner: DemandPartner, scale: float, facet: HBFacet
    ) -> PartnerProfile:
        """The shared profile of ``(partner, scale, facet)`` (built on first use)."""
        key = (partner.name, scale, facet)
        profile = self._partner_cache.get(key)
        if profile is not None:
            return profile
        # The price locations do not depend on the scale: the three scale
        # variants of a (partner, facet) share one mapping.
        mus = self._cpm_mu_cache.get((partner.name, facet))
        if mus is None:
            mus = self._cpm_mu_cache.setdefault(
                (partner.name, facet), self._cpm_mus(partner, facet, STANDARD_SIZES)
            )
        latency, internal = self._latency_draws(partner, scale)
        # setdefault, not a locked insert: a racing thread builds an equal
        # profile, and every site still ends up holding the same object.
        return self._partner_cache.setdefault(key, PartnerProfile(
            partner=partner,
            bidder_code=partner.bidder_code,
            latency=latency,
            internal=internal if partner.runs_internal_auction else None,
            bid_probability=partner.bidding.bid_probability,
            cpm_sigma=partner.bidding.cpm_sigma,
            cpm_mu_by_label=mus,
        ))

    def _cover_sizes(self, profile: SiteProfile, facet: HBFacet) -> None:
        """Add the price location of any non-standard slot size to the
        partner profiles ``profile`` uses.

        Generated publishers only use :data:`STANDARD_SIZES`, which every
        partner profile covers from the start, so this returns at once for
        them.  A location is a pure function of the label, so filling a
        shared mapping cannot change what another site reads.
        """
        extra = [
            slot.primary_size
            for slot in profile.publisher.auctioned_slots
            if slot.primary_size.label not in _STANDARD_LABELS
        ]
        if not extra:
            return
        pool = profile.internal_auction
        for partner_profile in (*profile.partner_profiles, *(pool.profiles if pool else ())):
            mus = partner_profile.cpm_mu_by_label
            missing = [size for size in extra if size.label not in mus]
            if missing:
                mus.update(self._cpm_mus(partner_profile.partner, facet, missing))

    def _internal_pool(
        self, exclude: tuple[DemandPartner, ...], scale: float, facet: HBFacet
    ) -> InternalPool:
        """The shared candidate pool of ``sample_internal_bidders(exclude=...)``."""
        excluded = frozenset(p.name for p in exclude)
        key = (excluded, scale, facet)
        pool = self._pool_cache.get(key)
        if pool is not None:
            return pool
        env = self.environment
        # By name, like the key (registry names are unique): the field-wise
        # dataclass equality the environment's ``not in`` runs is slow.
        candidates = [p for p in env.registry.partners if p.name not in excluded]
        if candidates:
            weights, cdf = weighted_cdf([p.popularity_weight for p in candidates])
            pool = InternalPool(
                bounds=env.internal_auction_pool,
                profiles=tuple(self._partner_profile(p, scale, facet) for p in candidates),
                weights=weights,
                cdf=cdf,
            )
        else:
            pool = InternalPool(bounds=env.internal_auction_pool)
        return self._pool_cache.setdefault(key, pool)

    def _waterfall_for(self, scale: float) -> SiteWaterfall:
        site_wf = self._waterfall_cache.get(scale)
        if site_wf is not None:
            return site_wf
        env = self.environment
        # Same ordering build_waterfall_chain derives per page.
        partners = sorted(env.registry.partners, key=lambda p: p.popularity_weight, reverse=True)
        max_levels = WATERFALL_MAX_LEVELS
        heads = []
        profiles: dict[str, WaterfallPartnerProfile] = {}
        for n_levels in range(1, max_levels + 1):
            head = partners[: waterfall_head_size(n_levels)]
            weights, cdf = weighted_cdf([p.popularity_weight for p in head])
            heads.append((tuple(head), weights, cdf))
            for partner in head:
                if partner.name in profiles:
                    continue
                mu_by_label = {}
                for label in WATERFALL_SLOT_SIZE_LABELS:
                    size = AdSlotSize(*map(int, label.split("x")))
                    location = (
                        partner.bidding.base_cpm
                        * env.pricing.size_multiplier(size)
                        * env.pricing.vanilla_profile_multiplier
                    )
                    mu_by_label[label] = math.log(location)
                profiles[partner.name] = WaterfallPartnerProfile(
                    partner=partner,
                    latency=LatencyDraw.compile(partner.latency, scale * AD_SERVER_PATH_SCALE),
                    fill_probability=waterfall_fill_probability(partner.bidding.bid_probability),
                    cpm_sigma=partner.bidding.cpm_sigma,
                    cpm_mu_by_label=mu_by_label,
                )
        site_wf = SiteWaterfall(heads=tuple(heads), profiles=profiles, max_levels=max_levels)
        with self._lock:
            self._waterfall_cache.setdefault(scale, site_wf)
        return self._waterfall_cache[scale]

    def _compile(self, publisher: Publisher, page: Page) -> SiteProfile:
        self.compiles += 1
        env = self.environment
        resource_urls = BASELINE_RESOURCE_URLS[: len(page.baseline_resources)]
        if not publisher.uses_hb:
            return SiteProfile(
                publisher=publisher,
                page=page,
                resource_urls=resource_urls,
                waterfall=self._waterfall_for(publisher.latency_scale),
            )

        facet = publisher.facet
        assert facet is not None
        scale = publisher.latency_scale
        slots = publisher.auctioned_slots
        partner_profiles = tuple(
            self._partner_profile(partner, scale, facet) for partner in publisher.partners
        )

        # Import here: adapters sits above ecosystem in the layering and is
        # only needed at compile time, never in the per-page loop.
        from repro.hb.adapters import build_bid_request

        ad_server = publisher.ad_server
        if facet is HBFacet.HYBRID and ad_server is not None:
            client_partners = tuple(
                p for p in publisher.partners if p is not ad_server
            ) or publisher.partners
        else:
            client_partners = publisher.partners
        profile_by_partner = {
            id(partner): prof for partner, prof in zip(publisher.partners, partner_profiles)
        }
        client_profiles = tuple(profile_by_partner[id(p)] for p in client_partners)
        templates = tuple(
            (spec.url, dict(spec.params))
            for spec in (
                build_bid_request(
                    partner,
                    slots,
                    page_url=publisher.url,
                    auction_id="",
                    timeout_ms=publisher.timeout_ms,
                )
                for partner in client_partners
            )
        )

        profile = SiteProfile(
            publisher=publisher,
            page=page,
            resource_urls=resource_urls,
            partner_profiles=partner_profiles,
            client_partner_profiles=client_profiles,
            bid_request_templates=templates,
            bidders_by_code={p.bidder_code: p for p in publisher.partners},
            client_bidders_by_code={p.bidder_code: p for p in client_partners},
            display_codes=frozenset(slot.code for slot in publisher.slots),
            # float(np.log(...)), not math.log: the slow path
            # (AuctionEnvironment.ad_server_latency) computes this mu with
            # np.log, and the two are not bitwise-identical for every input.
            ad_server_latency_mu=float(np.log(env.ad_server_latency_median_ms * scale)),
            ad_server_latency_sigma=env.ad_server_latency_sigma,
        )

        if facet is HBFacet.CLIENT_SIDE:
            profile.ad_server_push_url = f"https://{publisher.own_ad_server_host}/gampad/ads"
        elif facet is HBFacet.SERVER_SIDE:
            aggregator = publisher.partners[0]
            agg_latency, agg_internal = self._latency_draws(aggregator, scale)
            profile.aggregator_latency = agg_latency
            profile.aggregator_internal = agg_internal
            profile.server_request_url = f"https://{aggregator.primary_domain}/gampad/ads"
            profile.server_request_params = {
                "iu": f"/{publisher.domain}/front",
                "prev_iu_szs": "|".join(",".join(slot.accepted_labels) for slot in slots),
                "slot_count": str(len(slots)),
                "correlator": "",
            }
            profile.internal_auction = self._internal_pool((aggregator,), scale, facet)
        else:  # hybrid
            assert ad_server is not None
            profile.ad_server_push_url = f"https://{ad_server.primary_domain}/gampad/ads"
            profile.hybrid_render_url = f"https://{ad_server.primary_domain}/gampad/render"
            profile.hybrid_internal_delay = LatencyDraw.compile(ad_server.latency, scale * 0.5)
            profile.internal_auction = self._internal_pool(
                (ad_server, *client_partners), scale, facet
            )
        self._cover_sizes(profile, facet)
        return profile
