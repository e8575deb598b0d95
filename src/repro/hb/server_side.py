"""Server-side header bidding execution (§4.4 of the paper).

In the server-side facet the browser sends a *single* request to one
aggregation endpoint (most often DoubleClick for Publishers), which runs the
whole auction among its affiliated partners in its backend and returns only
the winning impressions.  The client therefore observes very little: one
outgoing request, one response per slot — but the responses do carry the
``hb_*`` parameters, which is how HBDetector recognises this facet despite its
opacity.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ecosystem.partners import DemandPartner
from repro.hb.auction import BidOutcome, HeaderBiddingOutcome, SlotAuctionOutcome
from repro.hb.events import HBParam, price_bucket
from repro.models import HBFacet, SaleChannel
from repro.utils.rng import fast_uniform

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hb.wrappers import HBWrapper

__all__ = ["run_server_side"]


def run_server_side(wrapper: "HBWrapper") -> HeaderBiddingOutcome:
    """Execute one server-side header-bidding page load."""
    context = wrapper.context
    publisher = wrapper.publisher
    environment = wrapper.environment
    profile = wrapper.profile
    rng = context.rng
    facet = HBFacet.SERVER_SIDE

    aggregator = publisher.partners[0]
    auction_id = context.ids.next("auction")
    auction_start = context.clock.now()
    slots = publisher.auctioned_slots

    # One outgoing request carrying every auctioned slot.
    if profile is not None and profile.server_request_params is not None:
        request_url = profile.server_request_url
        request_params: dict[str, object] = dict(profile.server_request_params)
        request_params["correlator"] = auction_id
    else:
        request_url = f"https://{aggregator.primary_domain}/gampad/ads"
        request_params = {
            "iu": f"/{publisher.domain}/front",
            "prev_iu_szs": "|".join(",".join(slot.accepted_labels) for slot in slots),
            "slot_count": str(len(slots)),
            "correlator": auction_id,
        }
    context.requests.record_outgoing(
        request_url,
        method="GET",
        params=request_params,
        initiator=publisher.url,
        timestamp_ms=auction_start,
    )

    # The aggregator's backend consults its affiliated partners; the browser
    # only experiences the total round-trip latency of that single request.
    if profile is not None and profile.aggregator_latency is not None:
        round_trip = profile.aggregator_latency.sample(rng)
        round_trip += profile.aggregator_internal.sample(rng)  # type: ignore[union-attr]
        internal_bidders: list = profile.internal_auction.sample(rng)  # type: ignore[union-attr]
    else:
        round_trip = aggregator.latency.sample(rng, scale=publisher.latency_scale)
        round_trip += aggregator.latency.sample(rng, scale=publisher.latency_scale * 0.35)
        internal_bidders = environment.sample_internal_bidders(rng, exclude=(aggregator,))
    response_time = auction_start + round_trip
    context.clock.advance_to(response_time)

    slot_outcomes: list[SlotAuctionOutcome] = []
    for slot in slots:
        internal_bids: list[tuple[DemandPartner, float | None]] = []
        for bidder in internal_bidders:
            if profile is not None:
                response = bidder.respond(rng, slot.code, slot.primary_size)
                internal_bids.append((bidder.partner, response.bid_cpm))
            else:
                response = environment.partner_response(
                    rng, bidder, slot, facet, latency_scale=publisher.latency_scale
                )
                internal_bids.append((bidder, response.bid_cpm))
        priced = [(partner, cpm) for partner, cpm in internal_bids if cpm is not None]
        winner: DemandPartner | None = None
        clearing_cpm = 0.0
        if priced:
            winner, clearing_cpm = max(priced, key=lambda pair: pair[1])

        response_params: dict[str, object] = {"correlator": auction_id, "slot": slot.code}
        if winner is not None:
            response_params[HBParam.BIDDER.value] = winner.bidder_code
            response_params[HBParam.PRICE_BUCKET.value] = price_bucket(clearing_cpm)
            response_params[HBParam.SIZE.value] = slot.primary_size.label
            response_params[HBParam.SOURCE.value] = "s2s"
        context.requests.record_incoming(
            request_url,
            params=response_params,
            initiator=publisher.url,
            timestamp_ms=response_time,
        )

        # Ground truth: only bids the aggregator reported back are observable,
        # and none of them can be late (the backend enforces its own deadline).
        bids = tuple(
            BidOutcome(
                partner_name=partner.name,
                bidder_code=partner.bidder_code,
                slot_code=slot.code,
                size=slot.primary_size,
                cpm=cpm,
                requested_at_ms=auction_start,
                responded_at_ms=response_time,
                late=False,
                won=(winner is not None and partner.name == winner.name),
            )
            for partner, cpm in priced
        )
        slot_outcomes.append(
            SlotAuctionOutcome(
                slot=slot,
                bids=bids,
                winning_channel=SaleChannel.HEADER_BIDDING if winner else SaleChannel.FALLBACK,
                winner=winner.name if winner else None,
                clearing_cpm=clearing_cpm,
                auction_start_ms=auction_start,
                ad_server_called_at_ms=auction_start,
                ad_server_responded_at_ms=response_time,
            )
        )

    # Render phase: only the displayable slots produce render events.
    if profile is not None:
        display_codes: frozenset[str] | set[str] = profile.display_codes
    else:
        display_codes = {slot.code for slot in publisher.slots}
    for outcome in slot_outcomes:
        if outcome.slot.code not in display_codes:
            continue
        context.clock.advance(fast_uniform(rng, 20.0, 120.0))
        wrapper.emit_slot_render_ended(
            slot_code=outcome.slot.code,
            size_label=outcome.slot.primary_size.label,
            is_empty=outcome.winner is None,
            campaign=outcome.winner or "",
        )

    return HeaderBiddingOutcome(
        domain=publisher.domain,
        facet=facet,
        slot_outcomes=tuple(slot_outcomes),
        wrapper_timeout_ms=publisher.timeout_ms,
        misconfigured_wrapper=False,
    )
