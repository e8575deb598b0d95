"""Unit tests for page construction."""

import pytest

from repro.browser.page import WRAPPER_SCRIPT_URLS, build_page, build_pages
from repro.models import WrapperKind


class TestBuildPage:
    def test_hb_page_embeds_wrapper_script(self, hb_publisher):
        page = build_page(hb_publisher, seed=3)
        assert page.domain == hb_publisher.domain
        wrapper_url = WRAPPER_SCRIPT_URLS[hb_publisher.wrapper]
        assert wrapper_url in page.header_script_urls
        assert wrapper_url in page.html

    def test_hb_page_contains_slot_divs(self, hb_publisher):
        page = build_page(hb_publisher, seed=3)
        for slot in hb_publisher.slots:
            assert slot.code in page.html

    def test_non_hb_page_has_no_wrapper_script(self, non_hb_publisher):
        page = build_page(non_hb_publisher, seed=3)
        for url in WRAPPER_SCRIPT_URLS.values():
            assert url not in page.header_script_urls

    def test_load_costs_are_positive_and_bounded(self, hb_publisher):
        page = build_page(hb_publisher, seed=3)
        assert 60 <= page.html_fetch_ms <= 3_000
        assert 400 <= page.content_load_ms <= 30_000

    def test_page_build_is_deterministic_per_seed(self, hb_publisher):
        a = build_page(hb_publisher, seed=3)
        b = build_page(hb_publisher, seed=3)
        c = build_page(hb_publisher, seed=4)
        assert a.html == b.html
        assert a.html_fetch_ms == b.html_fetch_ms
        assert (a.html_fetch_ms, a.content_load_ms) != (c.html_fetch_ms, c.content_load_ms)

    def test_baseline_resources_are_a_subset_of_catalogue(self, non_hb_publisher):
        page = build_page(non_hb_publisher, seed=3)
        assert 3 <= len(page.baseline_resources) <= 6

    @pytest.mark.parametrize("count", [0, 1, 7, 8, 60])
    def test_build_pages_equals_build_page_per_site(self, small_population, count):
        """Batch-seeded pages equal ``derive_rng``-seeded ones, at any batch size."""
        publishers = list(small_population)[100:100 + count]
        assert build_pages(publishers, seed=3) == [build_page(p, seed=3) for p in publishers]
