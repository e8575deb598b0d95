"""Columnar batch simulation: whole crawl shards as numpy arrays.

The reference pipeline simulates one page at a time: derive a per-visit
generator, replay the page load through the browser engine (clock, DOM
recorder, web-request log), then hand the recorded events to the detector.
PR 5 made that loop zero-churn, which leaves the per-page *fixed costs* —
``SeedSequence`` entropy mixing, generator construction, object traffic for
events nobody outside the detector ever reads — as the dominant term.

This module changes the unit of work from the page to the
:class:`~repro.crawler.engine.CrawlShard`:

* **Batch seeding.**  ``derive_rng(seed, "visit", domain, day)`` is a
  SeedSequence over two 32-bit entropy words.
  :func:`repro.utils.rng.derive_states`, its batch twin, replicates numpy's
  entropy-mixing and PCG64 state derivation as vectorized
  ``uint32``/``uint64`` array arithmetic, producing every page's initial
  ``(state, inc)`` pair in a handful of numpy operations per shard.
* **Vectorized draws for plain pages.**  Pages without header bidding and
  without waterfall ads consume a fixed, site-determined number of uniform
  draws.  :func:`~repro.utils.rng.mul128_add` /
  :func:`~repro.utils.rng.output_doubles` step all those streams
  in lockstep (the PCG64 LCG and its XSL-RR output function, elementwise),
  so an entire shard's plain pages cost a few array operations total.
* **Fused scalar simulation for ad pages.**  Waterfall and HB pages draw
  data-dependent amounts of randomness (ziggurat log-normals, rejection
  sampling), which cannot be vectorized without perturbing the stream.  For
  those, one reusable ``Generator`` is *activated* with the precomputed page
  state (a state-dict assignment, ~1.5 µs, vs ~20 µs for ``derive_rng``) and
  a fused simulator replays the facet executor's exact draw and event order
  against precompiled per-site tables (:class:`_SiteSim`), materialising
  detector observations directly instead of event objects.

Detections leave through :meth:`HBDetector.detect_from_observations`, so the
classification/reconstruction logic is shared with the reference path, and
``SiteDetection`` objects are materialised only at the sink seam.  Byte
identity of the two paths is enforced by ``tests/test_fastpath_equivalence``
and the stream-level parity of the kernels by
``tests/test_columnar_samplers``.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from typing import TYPE_CHECKING, Callable, Sequence
from weakref import WeakKeyDictionary

import numpy as np

from repro.crawler.crawler import CrawlResult
from repro.detector.dom_inspector import DomObservations, _ObservedDomBid
from repro.detector.parameters import HBParameterSet
from repro.detector.records import SiteDetection
from repro.detector.webrequest_inspector import PartnerExchange, WebRequestObservations
from repro.hb.events import price_bucket
from repro.hb.runner import wrapper_traits
from repro.hb.waterfall import _DEFAULT_SLOT_SIZES
from repro.models import HBFacet, RequestDirection, WebRequest
from repro.utils.rng import (
    StreamActivator,
    derive_states,
    fast_uniform,
    join128,
    mul128_add,
    output_doubles,
)
from repro.utils.urls import url_host

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.crawler.engine import CrawlShard, WorkerContext
    from repro.detector.detector import HBDetector
    from repro.detector.partner_list import KnownPartnerList
    from repro.ecosystem.profiles import SiteProfile, SiteProfileTable
    from repro.ecosystem.publishers import Publisher
    from repro.hb.environment import AuctionEnvironment

__all__ = ["simulate_shard_columnar"]


#: The per-navigation auction id: ``IdFactory`` resets with the page, so the
#: first (and only) auction of every page is always ``auction-000000``.
_AID = "auction-000000"

#: Responses without hb_* keys all extract to the same (never mutated) set.
_EMPTY_HB = HBParameterSet(global_values={}, per_slot={})


# ---------------------------------------------------------------------------
# Per-site compiled simulation inputs


class _SiteSim:
    """Flat, per-site constants the fused page simulators read.

    Compiled once per ``(profile table, known-partner list, site)`` and
    cached; everything here is immutable across pages (URL hosts matched
    against the partner list, static request parameter dicts with the
    per-navigation auction id baked in, slot code/label/floor tuples, the
    wrapper's DOM-event traits).
    """

    __slots__ = (
        "publisher", "domain", "rank", "uses_hb",
        "html_fetch_ms", "content_load_ms", "n_res", "n_scr",
        # trailing resource/script fetches from known-partner hosts
        "trailing",
        # non-HB
        "wf_heads", "wf_max_levels", "latency_scale",
        # HB common
        "facet", "page_url", "library", "lifecycle", "page_event", "profile",
        "n_slots", "slot_codes", "slot_labels", "slot_floors", "slot_display",
        "queue_bias", "timeout_ms", "misconfigured",
        # internal (server/hybrid) auction pool, flattened for _sample_internal
        "internal_rec",
        # client/hybrid
        "client_recs", "push_url", "push_host", "push_partner",
        # hybrid
        "render_url", "render_host", "render_partner",
        "client_names", "client_code_set",
        # server-side
        "server_url", "server_host", "server_partner", "server_params",
    )


def _shared(cache: dict, obj: object, build: Callable[[object], tuple]) -> tuple:
    """``build(obj)``, computed once per object for the cache's lifetime.

    Keyed by identity: the profile table hands every site with an equal key
    the same partner profile, pool or waterfall object.  The entry pins
    ``obj``, so its id cannot be reused while the entry lives.
    """
    entry = cache.get(id(obj))
    if entry is None:
        entry = cache.setdefault(id(obj), (obj, build(obj)))
    return entry[1]


def _flat_waterfall(wf) -> tuple:
    """A :class:`SiteWaterfall`'s chain-construction inputs, per head size.

    ``(profiles, popularity weights, probability list, cdf list, head
    length)``, in popularity order.
    """
    flats: dict[str, tuple] = {
        name: (
            _flat_latency(wprof.latency),
            wprof.fill_probability,
            wprof.cpm_sigma,
            wprof.cpm_mu_by_label,
        )
        for name, wprof in wf.profiles.items()
    }
    return tuple(
        (
            tuple(flats[partner.name] for partner in head),
            tuple(partner.popularity_weight for partner in head),
            probabilities.tolist(),
            cdf.tolist(),
            len(head),
        )
        for head, probabilities, cdf in wf.heads
    )


def _flat_internal(pool, shared: dict) -> tuple:
    """An :class:`InternalPool` flattened for :func:`_sample_internal`."""
    low, high = pool.bounds
    return (
        low,
        high,
        tuple(
            (prof.bidder_code, prof.partner.name, _shared(shared, prof, _flat_respond))
            for prof in pool.profiles
        ),
        pool.weights.tolist() if pool.weights is not None else None,
        pool.cdf.tolist() if pool.cdf is not None else None,
    )


def _compile_sim(
    profile: "SiteProfile", publisher: "Publisher", known: "KnownPartnerList", shared: dict
) -> _SiteSim:
    page = profile.page
    sim = _SiteSim()
    sim.publisher = publisher
    sim.domain = publisher.domain
    sim.rank = publisher.rank
    sim.uses_hb = publisher.uses_hb
    sim.html_fetch_ms = page.html_fetch_ms
    sim.content_load_ms = page.content_load_ms
    sim.n_res = len(profile.resource_urls)
    sim.n_scr = len(page.header_script_urls)
    sim.latency_scale = publisher.latency_scale
    if not publisher.uses_hb:
        # Baseline and waterfall traffic never carries hb_* parameters and
        # never receives a response, so nothing a non-HB page emits can move
        # the detector off its "no evidence" verdict: only the page-load
        # clock needs simulating.
        wf = profile.waterfall
        sim.wf_max_levels = wf.max_levels
        sim.wf_heads = _shared(shared, wf, _flat_waterfall)
        return sim

    match = known.match_host
    sim.facet = publisher.facet
    sim.page_url = publisher.url
    sim.profile = profile
    sim.library, sim.lifecycle = wrapper_traits(publisher)
    page_host = url_host(page.url)
    page_partner = match(page_host)
    sim.page_event = (page.url, page_host, page_partner) if page_partner is not None else None
    # Baseline resources, then header scripts, each fetched at the clock
    # time its position in the trailing dwell sequence reaches.  A fetch
    # from a known-partner host can pair with a late bid response from the
    # same host, so those become events; the rest only move the clock.
    # Neither kind carries a query string, so their parameters are empty.
    hosts = [host for host, _ in page.baseline_resources]
    hosts += [url_host(url) for url in page.header_script_urls]
    trailing = []
    for position, (url, host) in enumerate(
        zip((*profile.resource_urls, *page.header_script_urls), hosts)
    ):
        partner = match(host)
        if partner is not None:
            trailing.append((position, url, host, partner))
    sim.trailing = tuple(trailing)

    slots = publisher.auctioned_slots
    display = profile.display_codes
    sim.n_slots = len(slots)
    sim.slot_codes = tuple(slot.code for slot in slots)
    sim.slot_labels = tuple(slot.primary_size.label for slot in slots)
    sim.slot_floors = tuple(slot.floor_cpm for slot in slots)
    sim.slot_display = tuple(slot.code in display for slot in slots)
    sim.queue_bias = 4.0 * len(slots)
    sim.timeout_ms = publisher.timeout_ms
    sim.misconfigured = publisher.misconfigured_wrapper

    pool = profile.internal_auction
    sim.internal_rec = (
        _shared(shared, pool, lambda pool: _flat_internal(pool, shared))
        if pool is not None else None
    )

    if publisher.facet is HBFacet.SERVER_SIDE:
        url = profile.server_request_url
        params = dict(profile.server_request_params)
        params["correlator"] = _AID
        host = url_host(url)
        sim.server_url = url
        sim.server_host = host
        sim.server_partner = match(host)
        sim.server_params = params
        return sim

    if publisher.facet is HBFacet.CLIENT_SIDE:
        dispatch_profiles = profile.partner_profiles
    else:
        dispatch_profiles = profile.client_partner_profiles
    recs = []
    for prof, (url, template) in zip(dispatch_profiles, profile.bid_request_templates):
        params = dict(template)
        params["auction_id"] = _AID
        host = url_host(url)
        recs.append(
            (prof.bidder_code, _shared(shared, prof, _flat_respond), url, host, match(host), params)
        )
    sim.client_recs = tuple(recs)

    push_url = profile.ad_server_push_url
    push_host = url_host(push_url)
    sim.push_url = push_url
    sim.push_host = push_host
    sim.push_partner = match(push_host)

    if publisher.facet is HBFacet.HYBRID:
        render_url = profile.hybrid_render_url
        render_host = url_host(render_url)
        sim.render_url = render_url
        sim.render_host = render_host
        sim.render_partner = match(render_host)
        client_bidders = profile.client_bidders_by_code or {}
        sim.client_names = {code: partner.name for code, partner in client_bidders.items()}
        sim.client_code_set = frozenset(client_bidders)
    return sim


#: Compiled sims per profile table, plus the flattened records of the
#: table's shared partner profiles, pools and waterfalls (keyed by object
#: id); rebuilt wholesale if the worker's known-partner list changes (one
#: list per detector, shared by clones).
_SIM_CACHE: "WeakKeyDictionary[SiteProfileTable, tuple[object, dict, dict]]" = WeakKeyDictionary()
_SIM_LOCK = threading.Lock()


def _sims_for(
    table: "SiteProfileTable",
    known: "KnownPartnerList",
    publishers: Sequence["Publisher"],
) -> list[_SiteSim]:
    entry = _SIM_CACHE.get(table)
    if entry is None or entry[0] is not known:
        entry = (known, {}, {})
        with _SIM_LOCK:
            _SIM_CACHE[table] = entry
    cache: dict[str, _SiteSim] = entry[1]
    shared: dict = entry[2]
    sims: list[_SiteSim] = []
    fresh: list[tuple[str, _SiteSim]] = []
    for publisher in publishers:
        sim = cache.get(publisher.domain)
        if sim is not None and (sim.publisher is publisher or sim.publisher == publisher):
            sims.append(sim)
            continue
        sim = _compile_sim(table.profile_for(publisher), publisher, known, shared)
        fresh.append((publisher.domain, sim))
        sims.append(sim)
    if fresh:
        with _SIM_LOCK:
            if len(cache) >= table.max_sites:
                cache.clear()
            for domain, sim in fresh:
                cache[domain] = sim
    return sims


# ---------------------------------------------------------------------------
# Fused page simulators


#: Slot-size labels a non-HB page draws from, in draw-index order.
_WF_LABELS = tuple(size.label for size in _DEFAULT_SLOT_SIZES)


def _chain_popularity(entry: tuple) -> float:
    return entry[1]


def _simulate_waterfall_page(sim: _SiteSim, gen: np.random.Generator) -> float:
    """A non-HB page that serves waterfall ads; returns the load-event time.

    The RNG gate has already been consumed (vectorized); the generator is
    activated with the post-gate stream state.  Replicates, draw for draw,
    ``build_waterfall_chain_fast`` + per-slot ``default_waterfall_slot`` /
    ``run_waterfall`` over the compiled samplers, without materialising the
    chain/slot/outcome objects nobody reads: waterfall traffic is invisible
    to the detector (the win notification is an outgoing request without
    hb_* keys), so only the clock contribution matters.
    """
    t = sim.html_fetch_ms
    n_slots = int(gen.integers(1, 4))
    n_levels = int(gen.integers(1, sim.wf_max_levels + 1))
    profiles, popularity, p_list, cdf_list, head_len = sim.wf_heads[n_levels - 1]
    chosen_idx = _swr(gen, p_list, cdf_list, min(n_levels, head_len))
    chain = [(profiles[i], popularity[i]) for i in chosen_idx]
    chain.sort(key=_chain_popularity, reverse=True)
    # Floors are drawn in priority order, after the popularity sort.
    chain = [(profile, fast_uniform(gen, 0.02, 0.12)) for profile, _ in chain]
    gen_random = gen.random
    gen_lognormal = gen.lognormal
    for _ in range(n_slots):
        label = _WF_LABELS[int(gen.integers(0, len(_WF_LABELS)))]
        total = 0.0
        won = False
        for (latency_flat, fill_probability, cpm_sigma, mu_by_label), floor_cpm in chain:
            # _sample_latency, inlined with bound methods: this loop is the
            # single hottest stretch of the columnar path.
            mu, sigma, minimum, slow_probability, slow_multiplier = latency_flat
            value = float(gen_lognormal(mu, sigma))
            if slow_probability and gen_random() < slow_probability:
                value *= slow_multiplier
            total += value if value > minimum else minimum
            if gen_random() > fill_probability:
                continue
            drawn = float(gen_lognormal(mu_by_label[label], cpm_sigma))
            if round(max(drawn, 0.0001), 5) >= floor_cpm:
                won = True
                break
        if not won:
            total += fast_uniform(gen, 40.0, 120.0)
            fast_uniform(gen, 0.005, 0.02)  # backfill clearing price; unobserved
        t += total * 0.25
    for value in (5.0 + 35.0 * gen.random(sim.n_res)).tolist():
        t += value
    for value in (3.0 + 17.0 * gen.random(sim.n_scr)).tolist():
        t += value
    return float(t + sim.content_load_ms)


def _swr(gen, p_list: list, cdf_list: list, size: int) -> list:
    """Pure-Python ``sample_without_replacement``.

    Stream consumption is identical — the only RNG calls are the same
    batched ``gen.random(k)`` draws — and every float operation repeats the
    numpy original in the same IEEE order: ``bisect_right`` is
    ``searchsorted(side="right")``, the per-batch first-occurrence dedup is
    ``np.unique``'s sorted-index take, the redraw loop's running sum and
    elementwise division are ``np.cumsum`` (sequential for float64) and
    ``/= cdf[-1]``.  The popularity-skewed heads collide often, so the
    redraw loop is hot too; keeping both halves allocation-free beats the
    array version on these tiny pools.
    """
    chosen = [bisect_right(cdf_list, x) for x in gen.random(size).tolist()]
    if size == 1:
        return chosen
    seen = set()
    uniq = []
    for value in chosen:
        if value not in seen:
            seen.add(value)
            uniq.append(value)
    if len(uniq) == size:
        return chosen
    weights = list(p_list)
    while len(uniq) < size:
        draws = gen.random(size - len(uniq)).tolist()
        for index in uniq:
            weights[index] = 0.0
        total = 0.0
        cdf = []
        for weight in weights:
            total += weight
            cdf.append(total)
        cdf = [value / total for value in cdf]
        batch_seen = set()
        for value in [bisect_right(cdf, x) for x in draws]:
            if value not in batch_seen:
                batch_seen.add(value)
                uniq.append(value)
    return uniq


def _sample_internal(gen, rec) -> list:
    """``InternalPool.sample`` over the flattened pool.

    Same RNG order (count draw, then the weighted choice); returns
    ``(bidder_code, partner_name, respond_flat)`` triples instead of
    ``PartnerProfile`` objects.
    """
    low, high, recs, p_list, cdf_list = rec
    count = int(gen.integers(low, high + 1))
    if not recs:
        return []
    count = min(count, len(recs))
    return [recs[i] for i in _swr(gen, p_list, cdf_list, count)]


def _flat_latency(draw) -> tuple:
    """``LatencyDraw`` constants as a tuple, for attribute-free sampling."""
    return (draw.mu, draw.sigma, draw.minimum_ms, draw.slow_probability, draw.slow_multiplier)


def _flat_respond(prof) -> tuple:
    """``PartnerProfile`` constants for :func:`_respond_draws`."""
    return (
        _flat_latency(prof.latency),
        _flat_latency(prof.internal) if prof.internal is not None else None,
        prof.bid_probability,
        prof.cpm_sigma,
        prof.cpm_mu_by_label,
    )


def _respond_draws(
    gen: np.random.Generator, flat: tuple, label: str
) -> tuple[float, float | None]:
    """The draw sequence of ``PartnerProfile.respond`` for a slot of size
    ``label``, without the response object; the latency sampling is
    :func:`_sample_latency` inlined."""
    latency_flat, internal_flat, bid_probability, cpm_sigma, cpm_mu_by_label = flat
    mu, sigma, minimum, slow_probability, slow_multiplier = latency_flat
    value = float(gen.lognormal(mu, sigma))
    if slow_probability and gen.random() < slow_probability:
        value *= slow_multiplier
    latency = value if value > minimum else minimum
    if internal_flat is not None:
        mu, sigma, minimum, slow_probability, slow_multiplier = internal_flat
        value = float(gen.lognormal(mu, sigma))
        if slow_probability and gen.random() < slow_probability:
            value *= slow_multiplier
        latency += value if value > minimum else minimum
    cpm = None
    if gen.random() < bid_probability:
        drawn = float(gen.lognormal(cpm_mu_by_label[label], cpm_sigma))
        cpm = round(max(drawn, 0.0001), 5)
    return latency, cpm


def _simulate_hb_page(
    sim: _SiteSim,
    gen: np.random.Generator,
    detector: "HBDetector",
    crawl_day: int,
) -> tuple[SiteDetection, float]:
    """One header-bidding page, fused: facet executor + inspectors in one pass.

    Replicates the reference executors' draw order, event order and
    timestamps exactly, but builds the detector's observation records
    directly.  Web requests are carried as light tuples
    ``(ts, direction, host, partner, params, url, carries_hb, is_win, hb)``
    where ``hb`` is the request's ``HBParameterSet``, built alongside the
    parameter dict instead of being re-parsed out of it; only the captured
    ad-server push materialises a real ``WebRequest`` (the detector keeps a
    reference to it).
    """
    facet = sim.facet
    lifecycle = sim.lifecycle
    codes = sim.slot_codes
    labels = sim.slot_labels
    slots_n = sim.n_slots
    profile = sim.profile
    events: list[tuple] = []
    if sim.page_event is not None:
        url, host, partner = sim.page_event
        events.append((0.0, 0, host, partner, {}, url, False, False, None))

    start = sim.html_fetch_ms
    dom = DomObservations()
    dom_bids: list[_ObservedDomBid] = []

    if facet is HBFacet.SERVER_SIDE:
        # One outgoing request, one hb-parameterised response per slot, then
        # render events (which are not HB proof: the DOM channel stays dark).
        events.append(
            (start, 0, sim.server_host, sim.server_partner, sim.server_params,
             sim.server_url, False, False, None)
        )
        round_trip = profile.aggregator_latency.sample(gen)
        round_trip += profile.aggregator_internal.sample(gen)
        internal_bidders = _sample_internal(gen, sim.internal_rec)
        response_time = start + round_trip
        winner_names: list[str | None] = []
        for slot_index in range(slots_n):
            best = None
            best_cpm = 0.0
            for bidder in internal_bidders:
                _, cpm = _respond_draws(gen, bidder[2], labels[slot_index])
                if cpm is not None and (best is None or cpm > best_cpm):
                    best, best_cpm = bidder, cpm
            params: dict[str, str] = {"correlator": _AID, "slot": codes[slot_index]}
            hbset = _EMPTY_HB
            if best is not None:
                hb_globals = {
                    "hb_bidder": best[0],
                    "hb_pb": price_bucket(best_cpm),
                    "hb_size": labels[slot_index],
                    "hb_source": "s2s",
                }
                params.update(hb_globals)
                hbset = HBParameterSet(global_values=hb_globals, per_slot={})
            events.append(
                (response_time, 1, sim.server_host, sim.server_partner, params,
                 sim.server_url, False, False, hbset)
            )
            winner_names.append(best[1] if best is not None else None)
        t = response_time
        for slot_index in range(slots_n):
            if not sim.slot_display[slot_index]:
                continue
            t += fast_uniform(gen, 20.0, 120.0)
            name = winner_names[slot_index]
            dom.rendered_slots[codes[slot_index]] = name if name else None
    else:
        # Client-side dispatch, shared by the client and hybrid facets.
        cursor = start
        replies = []
        for rec in sim.client_recs:
            cursor += (fast_uniform(gen, 15.0, 45.0) + sim.queue_bias) * sim.latency_scale
            events.append((cursor, 0, rec[3], rec[4], rec[5], rec[2], False, False, None))
            flat = rec[1]
            first_latency = None
            cpms = []
            for slot_index in range(slots_n):
                latency, cpm = _respond_draws(gen, flat, labels[slot_index])
                cpms.append(cpm)
                if first_latency is None:
                    first_latency = latency
            replies.append((rec, cursor, cursor + (first_latency or 0.0), cpms))

        if sim.misconfigured:
            call = start + float(gen.uniform(100.0, 400.0))
        else:
            deadline = start + sim.timeout_ms
            slowest = start
            for reply in replies:
                if reply[2] > slowest:
                    slowest = reply[2]
            call = min(deadline, slowest) + float(gen.uniform(5.0, 25.0))

        on_time: list[dict[str, float]] = [dict() for _ in range(slots_n)]
        timed_out: list[str] = []
        for rec, dispatched, responded, cpms in replies:
            code = rec[0]
            response_params: dict[str, str] = {"bidder": code}
            reply_slots: dict[str, dict[str, str]] = {}
            for slot_index, cpm in enumerate(cpms):
                if cpm is None:
                    continue
                slot_code = codes[slot_index]
                cpm_text = f"{cpm:.5f}"
                response_params[f"hb_cpm_{slot_code}"] = cpm_text
                response_params[f"hb_size_{slot_code}"] = labels[slot_index]
                reply_slots[slot_code] = {"hb_cpm": cpm_text, "hb_size": labels[slot_index]}
            hbset = (
                HBParameterSet(global_values={}, per_slot=reply_slots)
                if reply_slots else _EMPTY_HB
            )
            events.append(
                (responded, 1, rec[3], rec[4], response_params, rec[2], False, False, hbset)
            )
            if responded > call:
                timed_out.append(code)
                continue
            time_to_respond = float(round(responded - dispatched, 1))
            for slot_index, cpm in enumerate(cpms):
                if cpm is None:
                    continue
                on_time[slot_index][code] = cpm
                if lifecycle:
                    dom_bids.append(_ObservedDomBid(
                        bidder_code=code,
                        slot_code=codes[slot_index],
                        cpm=float(round(cpm, 5)),
                        size=labels[slot_index],
                        time_to_respond_ms=time_to_respond,
                        won=False,
                        timestamp_ms=start,
                    ))

        push_params: dict[str, str] = {"auction_id": _AID, "slots": str(slots_n)}
        push_slots: dict[str, dict[str, str]] = {}
        any_filled = False
        for slot_index in range(slots_n):
            bids = on_time[slot_index]
            if not bids:
                continue
            any_filled = True
            best_code = None
            best_cpm = None
            for code, cpm in bids.items():
                if best_cpm is None or cpm > best_cpm:
                    best_code, best_cpm = code, cpm
            slot_code = codes[slot_index]
            bucket = price_bucket(best_cpm)
            push_params[f"hb_bidder_{slot_code}"] = best_code
            push_params[f"hb_pb_{slot_code}"] = bucket
            push_params[f"hb_size_{slot_code}"] = labels[slot_index]
            push_slots[slot_code] = {
                "hb_bidder": best_code, "hb_pb": bucket, "hb_size": labels[slot_index],
            }
        events.append(
            (call, 0, sim.push_host, sim.push_partner, push_params, sim.push_url,
             any_filled, False, HBParameterSet(global_values={}, per_slot=push_slots))
        )
        base_response = call + profile.ad_server_latency(gen)
        events.append(
            (base_response, 1, sim.push_host, sim.push_partner,
             {"auction_id": _AID, "status": "filled"}, sim.push_url, False, False,
             _EMPTY_HB)
        )

        dom.hb_events_seen = True
        dom.library = sim.library
        dom.auction_ended_at_ms = call
        if lifecycle:
            dom.auction_ids.append(_AID)
            dom.auction_started_at_ms = start
            if timed_out:
                dom.timed_out_bidders = timed_out
        else:
            # The non-lifecycle wrappers still fire auctionEnd; the inspector
            # back-derives the start from its rounded duration payload.
            dom.auction_started_at_ms = call - round(call - start, 1)

        if facet is HBFacet.CLIENT_SIDE:
            winners: list[tuple[str | None, float]] = []
            for slot_index in range(slots_n):
                best_code = None
                best_cpm = None
                for code, cpm in on_time[slot_index].items():
                    if best_cpm is None or cpm > best_cpm:
                        best_code, best_cpm = code, cpm
                if best_code is None or best_cpm < sim.slot_floors[slot_index]:
                    winners.append((None, 0.0))
                else:
                    winners.append((best_code, best_cpm))
            t = base_response
            for slot_index in range(slots_n):
                if not sim.slot_display[slot_index]:
                    continue
                t += fast_uniform(gen, 30.0, 150.0)
                winner_code, cpm = winners[slot_index]
                if winner_code is not None and gen.random() < 0.985:
                    dom_bids.append(_ObservedDomBid(
                        bidder_code=winner_code,
                        slot_code=codes[slot_index],
                        cpm=float(round(cpm, 5)),
                        size=labels[slot_index],
                        time_to_respond_ms=None,
                        won=True,
                        timestamp_ms=t,
                    ))
                    dom.rendered_slots[codes[slot_index]] = winner_code
                    # The win notification is an outgoing request to an
                    # already-contacted partner host: invisible to detection.
                elif winner_code is not None:
                    dom.failed_slots.append(codes[slot_index])
                else:
                    dom.rendered_slots[codes[slot_index]] = None
        else:  # HYBRID
            ad_response = base_response + profile.hybrid_internal_delay.sample(gen)
            internal_bidders = _sample_internal(gen, sim.internal_rec)
            winners_by_code: dict[str, tuple[str | None, float]] = {}
            names_by_code: dict[str, str | None] = {}
            for slot_index in range(slots_n):
                best_client_code = None
                best_client_cpm = 0.0
                for code, cpm in on_time[slot_index].items():
                    if cpm > best_client_cpm:
                        best_client_code, best_client_cpm = code, cpm
                best_internal = None
                best_internal_cpm = 0.0
                for bidder in internal_bidders:
                    _, cpm = _respond_draws(gen, bidder[2], labels[slot_index])
                    if cpm is not None and (best_internal is None or cpm > best_internal_cpm):
                        best_internal, best_internal_cpm = bidder, cpm
                winner_name = None
                winner_code = None
                clearing = 0.0
                if best_client_code is not None and (
                    best_internal is None or best_client_cpm >= best_internal_cpm
                ):
                    winner_code = best_client_code
                    winner_name = sim.client_names[best_client_code]
                    clearing = best_client_cpm
                elif best_internal is not None:
                    winner_name = best_internal[1]
                    winner_code = best_internal[0]
                    clearing = best_internal_cpm
                params = {"correlator": _AID, "slot": codes[slot_index]}
                hbset = _EMPTY_HB
                if winner_code is not None:
                    hb_globals = {
                        "hb_bidder": winner_code,
                        "hb_pb": price_bucket(clearing),
                        "hb_size": labels[slot_index],
                        "hb_source": "hybrid",
                    }
                    params.update(hb_globals)
                    hbset = HBParameterSet(global_values=hb_globals, per_slot={})
                events.append(
                    (ad_response, 1, sim.render_host, sim.render_partner, params,
                     sim.render_url, False, False, hbset)
                )
                winners_by_code[codes[slot_index]] = (winner_code, clearing)
                names_by_code[codes[slot_index]] = winner_name
            client_map = {
                code: value
                for code, value in winners_by_code.items()
                if value[0] in sim.client_code_set
            }
            t = ad_response
            for slot_index in range(slots_n):
                if not sim.slot_display[slot_index]:
                    continue
                t += fast_uniform(gen, 30.0, 150.0)
                winner_code, cpm = client_map.get(codes[slot_index], (None, 0.0))
                if winner_code is not None and gen.random() < 0.985:
                    dom_bids.append(_ObservedDomBid(
                        bidder_code=winner_code,
                        slot_code=codes[slot_index],
                        cpm=float(round(cpm, 5)),
                        size=labels[slot_index],
                        time_to_respond_ms=None,
                        won=True,
                        timestamp_ms=t,
                    ))
                    dom.rendered_slots[codes[slot_index]] = winner_code
                elif winner_code is not None:
                    dom.failed_slots.append(codes[slot_index])
                else:
                    dom.rendered_slots[codes[slot_index]] = None
            for slot_index in range(slots_n):
                code = codes[slot_index]
                if sim.slot_display[slot_index] and code not in client_map:
                    t += fast_uniform(gen, 20.0, 100.0)
                    name = names_by_code[code]
                    dom.rendered_slots[code] = name if name else None

    dom.bids = dom_bids

    # Baseline resources and header scripts: outgoing-only traffic, mostly
    # to hosts the detector ignores.  A fetch from a known-partner host is
    # an event: a late bid response from that host still pairs with it.
    # Fixed counts, so one batched draw replaces the per-dwell scalar calls
    # (elementwise scaling and sequential adds keep the floats bit-exact).
    dwells = (5.0 + 35.0 * gen.random(sim.n_res)).tolist()
    dwells += (3.0 + 17.0 * gen.random(sim.n_scr)).tolist()
    done = 0
    for position, url, host, partner in sim.trailing:
        for value in dwells[done:position]:
            t += value
        done = position
        events.append((t, 0, host, partner, {}, url, False, False, None))
    for value in dwells[done:]:
        t += value
    t += sim.content_load_ms
    load_event = float(t)

    # Replicated WebRequestInspector over the light event tuples, in the
    # reference's (timestamp, direction) stable order.
    events.sort(key=_event_key)
    web = WebRequestObservations()
    pending: dict[str, tuple[str, float, dict]] = {}
    push_host: str | None = None
    push_ts = 0.0
    for ts, direction, host, partner, params, url, carries_hb, is_win, hb_params in events:
        if direction == 0:
            if carries_hb and not is_win and web.ad_server_push is None:
                web.ad_server_push = WebRequest(
                    url=url,
                    method="GET",
                    direction=RequestDirection.OUTGOING,
                    timestamp_ms=ts,
                    initiator=sim.page_url,
                    params=params,
                )
                web.ad_server_push_params = hb_params
                web.ad_server_is_known_partner = partner is not None
                web.ad_server_partner = partner
                push_host = host
                push_ts = ts
                continue
            if partner is None:
                continue
            if web.first_partner_request_at_ms is None:
                web.first_partner_request_at_ms = ts
            if host not in pending:
                pending[host] = (partner, ts, params)
        else:
            if (
                push_host is not None
                and host == push_host
                and ts >= push_ts
                and web.ad_server_response_at_ms is None
            ):
                web.ad_server_response_at_ms = ts
            if partner is None:
                continue
            if not hb_params.is_empty:
                web.hb_responses.append((partner, ts, hb_params))
            outgoing = pending.pop(host, None)
            if outgoing is not None:
                web.exchanges.append(PartnerExchange(
                    partner=outgoing[0],
                    host=host,
                    request_at_ms=outgoing[1],
                    response_at_ms=ts,
                    request_params=dict(outgoing[2]),
                    response_params=dict(params),
                    response_hb_params=hb_params,
                ))
            else:
                web.exchanges.append(PartnerExchange(
                    partner=partner,
                    host=host,
                    request_at_ms=None,
                    response_at_ms=ts,
                    request_params={},
                    response_params=dict(params),
                    response_hb_params=hb_params,
                ))

    detection = detector.detect_from_observations(
        domain=sim.domain,
        rank=sim.rank,
        dom=dom,
        web=web,
        crawl_day=crawl_day,
        page_load_ms=load_event,
    )
    return detection, load_event


def _event_key(event: tuple) -> tuple[float, int]:
    return (event[0], event[1])


# ---------------------------------------------------------------------------
# Shard entry point


def simulate_shard_columnar(
    context: "WorkerContext",
    crawl_day: int,
    on_detection: "Callable[[SiteDetection], None] | None",
    shard: "CrawlShard",
) -> CrawlResult:
    """Simulate one shard columnar-batch style; byte-identical to ``_crawl_shard``.

    Seeds every page's stream in one vectorized pass, draws all plain-page
    dwell times as shard-wide array operations, and runs ad pages through the
    fused scalar simulators on a single reusable generator.  Session
    bookkeeping (``sessions_started``, restarts, timeout kills) replicates
    the reference loop's counters exactly.
    """
    config = context.config
    detector = context.detector
    browser = context.browser
    table = context.profiles
    detector.reset()
    result = CrawlResult()
    publishers = shard.publishers
    n = len(publishers)
    if n == 0:
        return result

    table.precompile(publishers)
    sims = _sims_for(table, detector.known_partners, publishers)

    state_hi, state_lo, inc_hi, inc_lo = derive_states(
        config.seed, [("visit", p.domain, crawl_day) for p in publishers]
    )
    # Every page's first draw: the waterfall gate for non-HB pages.
    hi1, lo1 = mul128_add(state_hi, state_lo, inc_hi, inc_lo)
    first_draw = output_doubles(hi1, lo1)

    gate_probability = browser.non_hb_ad_probability
    timeout_ms = browser.page_load_timeout_ms

    html = np.empty(n)
    content = np.empty(n)
    n_res = np.empty(n, dtype=np.int64)
    n_scr = np.empty(n, dtype=np.int64)
    uses_hb = np.empty(n, dtype=bool)
    for i, sim in enumerate(sims):
        html[i] = sim.html_fetch_ms
        content[i] = sim.content_load_ms
        n_res[i] = sim.n_res
        n_scr[i] = sim.n_scr
        uses_hb[i] = sim.uses_hb

    # Plain pages (no HB, gate declined the waterfall) consume a fixed
    # number of uniforms: step every stream in lockstep, masking lanes that
    # have already finished.  The masked adds replicate the reference
    # clock's sequential float accumulation exactly.
    plain = (~uses_hb) & (first_draw > gate_probability)
    load_plain = None
    if plain.any():
        totals = n_res + n_scr
        t_arr = html.copy()
        cur_hi, cur_lo = hi1, lo1
        for k in range(int(totals[plain].max())):
            cur_hi, cur_lo = mul128_add(cur_hi, cur_lo, inc_hi, inc_lo)
            u = output_doubles(cur_hi, cur_lo)
            value = np.where(k < n_res, 5.0 + 35.0 * u, 3.0 + 17.0 * u)
            t_arr = np.where(plain & (k < totals), t_arr + value, t_arr)
        load_plain = t_arr + content

    # One reusable generator, re-activated per ad page with the precomputed
    # stream state (initial state for HB pages, post-gate for waterfall).
    # Bulk-convert the state arrays to Python ints once; per-page
    # ``int(arr[i])`` item getters dominate the loop otherwise.
    activate = StreamActivator().activate
    state_l = join128(state_hi, state_lo)
    inc_l = join128(inc_hi, inc_lo)
    state1_l = join128(hi1, lo1)
    plain_l = plain.tolist()
    load_plain_l = load_plain.tolist() if load_plain is not None else None

    restart_every = config.restart_every_pages
    session_alive = False
    pages_in_session = 0
    detections = result.detections
    for i in range(n):
        sim = sims[i]
        if not session_alive:
            session_alive = True
            pages_in_session = 0
            result.sessions_started += 1
        result.pages_visited += 1
        pages_in_session += 1
        if sim.uses_hb:
            gen = activate(state_l[i], inc_l[i])
            detection, load_event = _simulate_hb_page(sim, gen, detector, crawl_day)
        elif plain_l[i]:
            load_event = load_plain_l[i]
            detection = SiteDetection(
                domain=sim.domain, rank=sim.rank, hb_detected=False,
                crawl_day=crawl_day, page_load_ms=load_event,
            )
        else:
            load_event = _simulate_waterfall_page(sim, activate(state1_l[i], inc_l[i]))
            detection = SiteDetection(
                domain=sim.domain, rank=sim.rank, hb_detected=False,
                crawl_day=crawl_day, page_load_ms=load_event,
            )
        if load_event > timeout_ms:
            result.timed_out_domains.append(sim.domain)
            session_alive = False
        detections.append(detection)
        if on_detection is not None:
            on_detection(detection)
        if session_alive and pages_in_session >= restart_every:
            session_alive = False
    return result
