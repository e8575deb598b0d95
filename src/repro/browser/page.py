"""Page model: the HTML document the browser renders for one publisher.

Only the parts of a page that matter for header-bidding detection are
modelled: the header script tags (which wrapper library, which partner tags),
the ad-slot container elements, and enough non-ad content that page-load time
is dominated by ordinary resources, as on the real Web.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.ecosystem.publishers import Publisher
from repro.models import WrapperKind
from repro.utils.rng import StreamActivator, derive_rng, derive_states, join128
from repro.utils.urls import build_url

__all__ = ["Page", "build_page", "build_pages", "BASELINE_RESOURCE_URLS", "WRAPPER_SCRIPT_URLS"]


#: Canonical CDN URLs for the wrapper libraries (what a <script src> points at).
WRAPPER_SCRIPT_URLS: dict[WrapperKind, str] = {
    WrapperKind.PREBID: "https://cdn.jsdelivr.net/npm/prebid.js@2.44/dist/prebid.js",
    WrapperKind.GPT: "https://www.googletagservices.com/tag/js/gpt.js",
    WrapperKind.PUBFOOD: "https://cdn.example/pubfood/pubfood.min.js",
    WrapperKind.CUSTOM: "https://static.example/js/hb-wrapper.min.js",
}

#: Ordinary third-party resources that non-advertising pages also load; they
#: give the detector realistic background traffic to ignore.
_BASELINE_RESOURCES: tuple[tuple[str, str], ...] = (
    ("www.google-analytics.com", "/analytics.js"),
    ("cdn.jsdelivr.net", "/npm/jquery@3/dist/jquery.min.js"),
    ("fonts.googleapis.com", "/css2"),
    ("cdn.example", "/site/main.css"),
    ("cdn.example", "/site/app.js"),
    ("images.example", "/hero.jpg"),
)

#: ``build_url`` of each baseline resource, built once: a page loading its
#: first ``n`` resources fetches ``BASELINE_RESOURCE_URLS[:n]``.
BASELINE_RESOURCE_URLS: tuple[str, ...] = tuple(
    build_url(host, path) for host, path in _BASELINE_RESOURCES
)

#: Log-normal locations of the HTML fetch and content load times.  Kept as
#: ``np.log``: ``math.log`` may differ in the last bit, which would shift
#: every page's load times.
_LOG_HTML_FETCH_MS = np.log(220)
_LOG_CONTENT_LOAD_MS = np.log(2_400)


@dataclass(frozen=True, slots=True)
class Page:
    """A renderable page for one publisher."""

    publisher: Publisher
    html: str
    header_script_urls: tuple[str, ...]
    baseline_resources: tuple[tuple[str, str], ...]
    #: Time to fetch and parse the main HTML document, in milliseconds.
    html_fetch_ms: float
    #: Time spent loading non-ad resources after the header, in milliseconds.
    content_load_ms: float

    @property
    def url(self) -> str:
        return self.publisher.url

    @property
    def domain(self) -> str:
        return self.publisher.domain


def _render_html(publisher: Publisher, header_scripts: Sequence[str]) -> str:
    script_tags = "\n    ".join(f'<script async src="{src}"></script>' for src in header_scripts)
    slot_divs = "\n    ".join(
        f'<div id="{slot.code}" class="ad-slot" data-sizes="{",".join(slot.accepted_labels)}"></div>'
        for slot in publisher.slots
    )
    return (
        "<!DOCTYPE html>\n"
        "<html lang=\"en\">\n"
        "  <head>\n"
        f"    <title>{publisher.domain}</title>\n"
        f"    {script_tags}\n"
        "  </head>\n"
        "  <body>\n"
        f"    {slot_divs}\n"
        "    <main id=\"content\">Front page content.</main>\n"
        "  </body>\n"
        "</html>\n"
    )


def build_page(publisher: Publisher, *, seed: int = 2019) -> Page:
    """Construct the page served by a publisher, with realistic load costs.

    The HTML fetch and content load times are drawn from log-normal models so
    that overall page-load time sits in the multi-second range reported by
    industry measurements, independently of (and additively to) any HB delay.
    """
    return _page_from_stream(publisher, derive_rng(seed, "page", publisher.domain))


def build_pages(publishers: Sequence[Publisher], *, seed: int = 2019) -> list[Page]:
    """``[build_page(p, seed=seed) for p in publishers]``, batch-seeded.

    Every page stream is seeded in one vectorized pass
    (:func:`~repro.utils.rng.derive_states`) and drawn from one reusable
    generator, instead of one ``SeedSequence`` and generator per page.
    """
    hi, lo, inc_hi, inc_lo = derive_states(
        seed, [("page", publisher.domain) for publisher in publishers]
    )
    activate = StreamActivator().activate
    return [
        _page_from_stream(publisher, activate(state, inc))
        for publisher, state, inc in zip(publishers, join128(hi, lo), join128(inc_hi, inc_lo))
    ]


def _page_from_stream(publisher: Publisher, rng: np.random.Generator) -> Page:
    """:func:`build_page`'s body; ``rng`` is the page stream at the state
    ``derive_rng(seed, "page", domain)`` starts from."""
    header_scripts: list[str] = []
    if publisher.uses_hb:
        assert publisher.wrapper is not None
        header_scripts.append(WRAPPER_SCRIPT_URLS[publisher.wrapper])
        # Partner-specific adapter or tag scripts also commonly sit in the head.
        for partner in publisher.partners[:3]:
            header_scripts.append(f"https://{partner.primary_domain}/tag/adapter.js")
    elif rng.random() < 0.35:
        # Non-HB pages often still carry ordinary ad or analytics tags.
        header_scripts.append("https://pagead2.googlesyndication.com/pagead/js/adsbygoogle.js")

    html_fetch_ms = min(max(rng.lognormal(mean=_LOG_HTML_FETCH_MS, sigma=0.45), 60.0), 3_000.0)
    content_load_ms = min(max(rng.lognormal(mean=_LOG_CONTENT_LOAD_MS, sigma=0.55), 400.0), 30_000.0)

    n_resources = int(rng.integers(3, len(_BASELINE_RESOURCES) + 1))
    resources = _BASELINE_RESOURCES[:n_resources]

    return Page(
        publisher=publisher,
        html=_render_html(publisher, header_scripts),
        header_script_urls=tuple(header_scripts),
        baseline_resources=resources,
        html_fetch_ms=html_fetch_ms,
        content_load_ms=content_load_ms,
    )
