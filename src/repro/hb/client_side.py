"""Client-side header bidding execution (§4.3 of the paper).

In the client-side facet, the user's browser does everything: it sends one bid
request per configured demand partner, collects the responses, pushes the
surviving bids to the publisher's own ad server as ``hb_*`` key-values, learns
the winner and renders the creative.  Every step leaves an observable trace —
DOM events from the wrapper and web requests to the partners and the ad
server — which is what makes this facet fully transparent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, TYPE_CHECKING

import numpy as np

from repro.ecosystem.partners import DemandPartner, PartnerResponse
from repro.hb.adapters import build_bid_request, build_notification_request
from repro.hb.auction import BidOutcome, HeaderBiddingOutcome, SlotAuctionOutcome
from repro.hb.events import HBParam, price_bucket
from repro.models import AdSlot, HBFacet, SaleChannel
from repro.utils.rng import fast_uniform

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ecosystem.profiles import PartnerProfile
    from repro.hb.wrappers import HBWrapper

__all__ = ["run_client_side", "PartnerReply", "dispatch_bid_requests", "push_to_ad_server"]


@dataclass(slots=True)
class PartnerReply:
    """Bookkeeping for one partner's reply during a client-side auction."""

    partner: DemandPartner
    dispatched_at_ms: float
    responded_at_ms: float
    responses: dict[str, PartnerResponse]  # slot code -> response
    late: bool = False


def dispatch_bid_requests(
    wrapper: "HBWrapper",
    partners: Sequence[DemandPartner],
    slots: Sequence[AdSlot],
    auction_id: str,
    *,
    facet: HBFacet,
    partner_profiles: "Sequence[PartnerProfile] | None" = None,
    request_templates: Sequence[tuple[str, Mapping[str, str]]] | None = None,
) -> list[PartnerReply]:
    """Send one bid request per partner and sample every reply.

    JavaScript in the browser is single threaded, so even "parallel" bid
    requests leave the machine one after another; the per-request dispatch
    delay grows mildly with the number of auctioned slots, which is one of the
    mechanisms behind Figure 15 (latency grows with the number of partners).

    ``partner_profiles`` / ``request_templates`` (aligned with ``partners``)
    supply the fast path: precompiled response samplers and static bid-request
    fields replace the per-page multiplier and adapter derivations, with the
    RNG consumed identically.
    """
    context = wrapper.context
    environment = wrapper.environment
    publisher = wrapper.publisher
    rng = context.rng
    replies: list[PartnerReply] = []
    queue_bias = 4.0 * len(slots)
    latency_scale = publisher.latency_scale

    dispatch_cursor = context.clock.now()
    for index, partner in enumerate(partners):
        # Better-provisioned (highly ranked) sites also serialise their ad
        # calls faster, hence the same latency scale applies to the queueing.
        queue_delay = (fast_uniform(rng, 15.0, 45.0) + queue_bias) * latency_scale
        dispatch_cursor += queue_delay
        if request_templates is not None:
            url, template = request_templates[index]
            params: dict[str, object] = dict(template)
            params["auction_id"] = auction_id
            method = "POST"
        else:
            spec = build_bid_request(
                partner,
                slots,
                page_url=publisher.url,
                auction_id=auction_id,
                timeout_ms=publisher.timeout_ms,
            )
            url, params, method = spec.url, spec.params, spec.method
        context.requests.record_outgoing(
            url,
            method=method,
            params=params,
            initiator=publisher.url,
            timestamp_ms=dispatch_cursor,
        )
        wrapper.emit_bid_requested(auction_id, partner.bidder_code)

        # One HTTP exchange per partner: the partner prices every slot in the
        # same response, so the reply time is a single latency draw (the first
        # slot's), not the maximum over per-slot draws.
        profile = partner_profiles[index] if partner_profiles is not None else None
        responses: dict[str, PartnerResponse] = {}
        response_latency: float | None = None
        for slot in slots:
            if profile is not None:
                response = profile.respond(rng, slot.code, slot.primary_size)
            else:
                response = environment.partner_response(
                    rng, partner, slot, facet, latency_scale=latency_scale
                )
            responses[slot.code] = response
            if response_latency is None:
                response_latency = response.latency_ms
        replies.append(
            PartnerReply(
                partner=partner,
                dispatched_at_ms=dispatch_cursor,
                responded_at_ms=dispatch_cursor + (response_latency or 0.0),
                responses=responses,
            )
        )
    return replies


def _ad_server_call_time(
    wrapper: "HBWrapper",
    replies: Sequence[PartnerReply],
    auction_start_ms: float,
) -> float:
    """When the wrapper stops waiting and calls the ad server.

    A correctly configured wrapper waits until every partner answered or the
    wrapper timeout expires.  A misconfigured wrapper (a real and common
    failure mode the paper calls out) fires the ad-server request almost
    immediately, turning most responses into late bids.
    """
    publisher = wrapper.publisher
    rng = wrapper.context.rng
    if publisher.misconfigured_wrapper:
        return auction_start_ms + float(rng.uniform(100.0, 400.0))
    deadline = auction_start_ms + publisher.timeout_ms
    slowest_reply = max((reply.responded_at_ms for reply in replies), default=auction_start_ms)
    processing = float(rng.uniform(5.0, 25.0))
    return min(deadline, slowest_reply) + processing


def push_to_ad_server(
    wrapper: "HBWrapper",
    slots: Sequence[AdSlot],
    on_time_bids: Mapping[str, dict[str, PartnerResponse]],
    auction_id: str,
    call_time_ms: float,
    *,
    ad_server_host: str,
    facet: HBFacet,
) -> float:
    """Send the key-value push to the ad server; return the response time.

    ``on_time_bids`` maps slot code to ``{bidder code: response}`` for the
    bids that made it before the call.
    """
    context = wrapper.context
    publisher = wrapper.publisher
    environment = wrapper.environment
    profile = wrapper.profile
    push_url = (
        profile.ad_server_push_url
        if profile is not None and profile.ad_server_push_url is not None
        else f"https://{ad_server_host}/gampad/ads"
    )

    params: dict[str, object] = {"auction_id": auction_id, "slots": len(slots)}
    for slot_code, bids in on_time_bids.items():
        if not bids:
            continue
        best_code = max(bids, key=lambda code: bids[code].bid_cpm or 0.0)
        best = bids[best_code]
        params[f"{HBParam.BIDDER.value}_{slot_code}"] = best_code
        params[f"{HBParam.PRICE_BUCKET.value}_{slot_code}"] = price_bucket(best.bid_cpm or 0.0)
        params[f"{HBParam.SIZE.value}_{slot_code}"] = best.size.label
    context.requests.record_outgoing(
        push_url,
        method="GET",
        params=params,
        initiator=publisher.url,
        timestamp_ms=call_time_ms,
    )
    if profile is not None:
        latency = profile.ad_server_latency(context.rng)
    else:
        latency = environment.ad_server_latency(
            context.rng, latency_scale=publisher.latency_scale
        )
    response_time = call_time_ms + latency
    context.requests.record_incoming(
        push_url,
        params={"auction_id": auction_id, "status": "filled"},
        initiator=publisher.url,
        timestamp_ms=response_time,
    )
    return response_time


def _decide_winners(
    wrapper: "HBWrapper",
    slots: Sequence[AdSlot],
    on_time: Mapping[str, dict[str, PartnerResponse]],
) -> dict[str, tuple[str | None, float]]:
    """Pick the winning bidder and clearing price per slot.

    The publisher's own ad server simply takes the highest header bid that
    clears the slot floor; slots with no usable bid fall back to remnant
    inventory at a negligible price.
    """
    winners: dict[str, tuple[str | None, float]] = {}
    for slot in slots:
        bids = on_time.get(slot.code, {})
        priced = {code: resp for code, resp in bids.items() if resp.bid_cpm is not None}
        if not priced:
            winners[slot.code] = (None, 0.0)
            continue
        best_code = max(priced, key=lambda code: priced[code].bid_cpm or 0.0)
        best_cpm = priced[best_code].bid_cpm or 0.0
        if best_cpm < slot.floor_cpm:
            winners[slot.code] = (None, 0.0)
        else:
            winners[slot.code] = (best_code, best_cpm)
    return winners


def run_client_side(wrapper: "HBWrapper") -> HeaderBiddingOutcome:
    """Execute one client-side header-bidding page load."""
    context = wrapper.context
    publisher = wrapper.publisher
    profile = wrapper.profile
    rng = context.rng
    facet = HBFacet.CLIENT_SIDE

    auction_id = context.ids.next("auction")
    auction_start = context.clock.now()
    wrapper.emit_auction_init(auction_id)

    slots = publisher.auctioned_slots
    replies = dispatch_bid_requests(
        wrapper,
        publisher.partners,
        slots,
        auction_id,
        facet=facet,
        partner_profiles=profile.partner_profiles if profile is not None else None,
        request_templates=profile.bid_request_templates if profile is not None else None,
    )
    ad_server_call = _ad_server_call_time(wrapper, replies, auction_start)

    # Classify replies and surface the on-time ones as bidResponse events and
    # incoming web requests; late replies still arrive (and are logged) later.
    on_time: dict[str, dict[str, PartnerResponse]] = {slot.code: {} for slot in slots}
    timed_out_bidders: list[str] = []
    for reply in replies:
        reply.late = reply.responded_at_ms > ad_server_call
        endpoint = reply.partner.bid_endpoint()
        response_params: dict[str, object] = {"bidder": reply.partner.bidder_code}
        for slot_code, response in reply.responses.items():
            if response.bid_cpm is None:
                continue
            response_params[f"{HBParam.CPM.value}_{slot_code}"] = f"{response.bid_cpm:.5f}"
            response_params[f"{HBParam.SIZE.value}_{slot_code}"] = response.size.label
        context.requests.record_incoming(
            endpoint,
            params=response_params,
            initiator=publisher.url,
            timestamp_ms=reply.responded_at_ms,
        )
        if reply.late:
            timed_out_bidders.append(reply.partner.bidder_code)
            continue
        for slot_code, response in reply.responses.items():
            if response.bid_cpm is None:
                continue
            on_time[slot_code][reply.partner.bidder_code] = response
            wrapper.emit_bid_response(
                auction_id,
                bidder_code=reply.partner.bidder_code,
                slot_code=slot_code,
                cpm=response.bid_cpm,
                size_label=response.size.label,
                latency_ms=reply.responded_at_ms - reply.dispatched_at_ms,
            )

    wrapper.emit_bid_timeout(auction_id, timed_out_bidders)
    n_on_time_bids = sum(len(bids) for bids in on_time.values())
    context.clock.advance_to(ad_server_call)
    wrapper.emit_auction_end(auction_id, n_bids=n_on_time_bids,
                             latency_ms=ad_server_call - auction_start)

    ad_server_response = push_to_ad_server(
        wrapper, slots, on_time, auction_id, ad_server_call,
        ad_server_host=publisher.own_ad_server_host, facet=facet,
    )
    context.clock.advance_to(ad_server_response)

    winners = _decide_winners(wrapper, slots, on_time)
    if profile is not None and profile.bidders_by_code is not None:
        bidders_by_code = profile.bidders_by_code
    else:
        bidders_by_code = {partner.bidder_code: partner for partner in publisher.partners}

    slot_outcomes: list[SlotAuctionOutcome] = []
    for slot in slots:
        winner_code, clearing_cpm = winners[slot.code]
        bids: list[BidOutcome] = []
        for reply in replies:
            response = reply.responses[slot.code]
            bids.append(
                BidOutcome(
                    partner_name=reply.partner.name,
                    bidder_code=reply.partner.bidder_code,
                    slot_code=slot.code,
                    size=response.size,
                    cpm=response.bid_cpm,
                    requested_at_ms=reply.dispatched_at_ms,
                    responded_at_ms=reply.responded_at_ms,
                    late=reply.late,
                    won=(winner_code == reply.partner.bidder_code and response.bid_cpm is not None),
                )
            )
        channel = SaleChannel.HEADER_BIDDING if winner_code else SaleChannel.FALLBACK
        winner_name = None
        if winner_code is not None:
            winner_name = bidders_by_code[winner_code].name
        slot_outcomes.append(
            SlotAuctionOutcome(
                slot=slot,
                bids=tuple(bids),
                winning_channel=channel,
                winner=winner_name,
                clearing_cpm=clearing_cpm,
                auction_start_ms=auction_start,
                ad_server_called_at_ms=ad_server_call,
                ad_server_responded_at_ms=ad_server_response,
            )
        )

    _render_and_notify(wrapper, slot_outcomes, winners, auction_id)

    return HeaderBiddingOutcome(
        domain=publisher.domain,
        facet=facet,
        slot_outcomes=tuple(slot_outcomes),
        wrapper_timeout_ms=publisher.timeout_ms,
        misconfigured_wrapper=publisher.misconfigured_wrapper,
    )


def _render_and_notify(
    wrapper: "HBWrapper",
    slot_outcomes: Sequence[SlotAuctionOutcome],
    winners: Mapping[str, tuple[str | None, float]],
    auction_id: str,
) -> None:
    """Emit render events and the winner-notification callbacks."""
    context = wrapper.context
    publisher = wrapper.publisher
    profile = wrapper.profile
    rng = context.rng
    if profile is not None and profile.bidders_by_code is not None:
        bidders_by_code: Mapping[str, DemandPartner] = profile.bidders_by_code
        display_codes: frozenset[str] | set[str] = profile.display_codes
    else:
        bidders_by_code = {partner.bidder_code: partner for partner in publisher.partners}
        display_codes = {slot.code for slot in publisher.slots}

    for outcome in slot_outcomes:
        if outcome.slot.code not in display_codes:
            continue  # device-duplicate slots are auctioned but never rendered
        render_delay = fast_uniform(rng, 30.0, 150.0)
        context.clock.advance(render_delay)
        winner_code, cpm = winners.get(outcome.slot.code, (None, 0.0))
        if winner_code is not None and rng.random() < 0.985:
            wrapper.emit_bid_won(
                auction_id,
                bidder_code=winner_code,
                slot_code=outcome.slot.code,
                cpm=cpm,
                size_label=outcome.slot.primary_size.label,
            )
            wrapper.emit_slot_render_ended(
                slot_code=outcome.slot.code,
                size_label=outcome.slot.primary_size.label,
                is_empty=False,
                campaign=winner_code,
            )
            spec = build_notification_request(
                bidders_by_code[winner_code],
                slot_code=outcome.slot.code,
                cpm=cpm,
                auction_id=auction_id,
            )
            context.requests.record_outgoing(
                spec.url, method=spec.method, params=spec.params, initiator=publisher.url
            )
        elif winner_code is not None:
            wrapper.emit_ad_render_failed(slot_code=outcome.slot.code, reason="creative error")
        else:
            wrapper.emit_slot_render_ended(
                slot_code=outcome.slot.code,
                size_label=outcome.slot.primary_size.label,
                is_empty=True,
            )
