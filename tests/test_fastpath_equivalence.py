"""Fast-path equivalence: compiled profiles must change nothing but speed.

The property under test: for any seed, any backend and any worker count, a
crawl simulated through precompiled site profiles, per-worker scratch
buffers and the shared-memory handoff (``fast_path=True``, the default)
produces **byte-identical** sink output and identical values for every
registered offline metric compared to the slow reference path
(``fast_path=False``) that re-derives every per-page input.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.context import AnalysisContext
from repro.analysis.dataset import CrawlDataset
from repro.analysis.registry import available_metrics, compute_metric
from repro.crawler.crawler import CrawlConfig
from repro.crawler.engine import CrawlEngine, CrawlPlan
from repro.crawler.storage import CrawlStorage, detection_to_dict
from repro.detector.detector import HBDetector
from repro.detector.partner_list import build_known_partner_list
from repro.ecosystem.publishers import PopulationConfig, generate_population
from repro.ecosystem.registry import default_registry
from repro.errors import ReproError
from repro.models import HBFacet


def serialise(detections):
    return json.dumps([detection_to_dict(d) for d in detections])


def metric_texts(path):
    """Every registered offline metric's outcome (text or identical error)."""
    context = AnalysisContext.offline(CrawlDataset.from_jsonl(path))
    names = sorted(available_metrics(frozenset({"dataset"})))
    assert names
    outcomes = {}
    for name in names:
        try:
            outcomes[name] = compute_metric(name, context).text
        except ReproError as exc:
            outcomes[name] = f"{type(exc).__name__}: {exc}"
    return outcomes


@pytest.fixture(scope="module", params=[5, 23])
def workload(request, registry):
    """A population slice covering every facet, misconfiguration and non-HB."""
    seed = request.param
    population = generate_population(PopulationConfig(seed=seed).scaled(180), registry)
    sites = list(population)[:180]
    facets = {p.facet for p in sites if p.uses_hb}
    assert facets == set(HBFacet), "workload must exercise every facet"
    assert any(not p.uses_hb for p in sites)
    assert any(p.uses_hb and p.misconfigured_wrapper for p in sites)
    return seed, sites


@pytest.fixture(scope="module")
def reference(workload, environment, detector, tmp_path_factory):
    """Slow-path serial crawl: sink bytes, detections, offline metrics."""
    seed, sites = workload
    storage = CrawlStorage(tmp_path_factory.mktemp("slow") / "crawl.jsonl")
    config = CrawlConfig(seed=seed, fast_path=False)
    with CrawlEngine(environment, detector, config) as engine, storage.open_sink() as sink:
        result = engine.crawl(sites, sink=sink)
    return storage.path.read_bytes(), serialise(result.detections), metric_texts(storage.path)


class TestFastPathEquivalence:
    @pytest.mark.parametrize("batch_sim", [True, False], ids=["columnar", "scalar"])
    @pytest.mark.parametrize("backend,workers", [
        ("serial", 1),
        ("thread", 3),
        ("process", 2),
    ])
    def test_sink_bytes_and_metrics_identical(
        self, workload, reference, environment, detector, tmp_path, backend, workers,
        batch_sim,
    ):
        """Both fast paths — columnar batch (default) and the scalar per-page
        loop it superseded — must match the slow reference byte-for-byte."""
        seed, sites = workload
        ref_bytes, ref_json, ref_metrics = reference
        storage = CrawlStorage(tmp_path / "fast.jsonl")
        config = CrawlConfig(
            seed=seed, workers=workers, backend=backend, batch_sim=batch_sim
        )
        assert config.fast_path  # the default IS the fast path
        assert CrawlConfig(seed=seed).batch_sim  # ... and columnar is its default
        with CrawlEngine(environment, detector, config) as engine, \
                storage.open_sink() as sink:
            result = engine.crawl(sites, sink=sink)
        assert serialise(result.detections) == ref_json
        assert storage.path.read_bytes() == ref_bytes
        assert metric_texts(storage.path) == ref_metrics

    @pytest.mark.parametrize("backend,workers,fail_after", [
        ("serial", 1, 1),
        ("thread", 3, 2),
        ("process", 2, 1),
    ])
    def test_columnar_checkpoint_resume_stays_identical(
        self, workload, reference, environment, detector, tmp_path, backend, workers,
        fail_after,
    ):
        """A columnar crawl killed mid-campaign and resumed must reproduce
        the reference bytes — resume replays only the missing shards, so the
        recovered prefix and the resumed tail must agree on every boundary."""
        from tests.crash_harness import interrupted_then_resumed

        seed, sites = workload
        ref_bytes, ref_json, ref_metrics = reference
        config = CrawlConfig(seed=seed, workers=workers, backend=backend)
        assert config.batch_sim
        result, storage = interrupted_then_resumed(
            environment, detector, config, sites,
            tmp_path=tmp_path, fail_after=fail_after,
        )
        assert serialise(result.detections) == ref_json
        assert storage.path.read_bytes() == ref_bytes
        assert metric_texts(storage.path) == ref_metrics

    def test_columnar_resume_finishes_a_scalar_crawl(
        self, workload, reference, environment, detector, tmp_path
    ):
        """The two fast paths are interchangeable across a crash boundary:
        a crawl started on the scalar loop may be resumed columnar (the
        default after an upgrade) without perturbing a single byte."""
        from tests.crash_harness import interrupted_then_resumed

        seed, sites = workload
        ref_bytes, ref_json, _ = reference
        result, storage = interrupted_then_resumed(
            environment, detector,
            CrawlConfig(seed=seed, workers=3, backend="thread", batch_sim=False),
            sites, tmp_path=tmp_path, fail_after=2,
            resume_config=CrawlConfig(seed=seed, workers=3, backend="thread"),
        )
        assert serialise(result.detections) == ref_json
        assert storage.path.read_bytes() == ref_bytes

    def test_fast_path_warm_engine_stays_identical(
        self, workload, reference, environment, detector
    ):
        """Profile/scratch reuse across crawls and days must not leak state."""
        seed, sites = workload
        _, ref_json, _ = reference
        with CrawlEngine(environment, detector, CrawlConfig(seed=seed)) as engine:
            first = engine.crawl(sites)
            second = engine.crawl(sites)  # warm: profiles compiled, scratch reused
            assert serialise(first.detections) == ref_json
            assert serialise(second.detections) == ref_json
            day1_warm = engine.crawl(sites, crawl_day=1)
        with CrawlEngine(environment, detector, CrawlConfig(seed=seed, fast_path=False)) as engine:
            day1_slow = engine.crawl(sites, crawl_day=1)
        assert serialise(day1_warm.detections) == serialise(day1_slow.detections)

    def test_fast_path_flag_threads_through_experiment_config(self):
        from repro.experiments.config import ExperimentConfig

        assert ExperimentConfig.test_scale().crawl_config().fast_path is True
        import dataclasses

        slow = dataclasses.replace(ExperimentConfig.test_scale(), fast_path=False)
        assert slow.crawl_config().fast_path is False


class TestLateBidPairsWithTrailingFetch:
    """Regression: a late bid must pair with a trailing partner-host fetch.

    On a hybrid page whose ad server is also its only client partner, the
    partner's adapter script (a header script fetched after the auction)
    goes to the same host as its bid response.  When the bid arrives late,
    after that fetch, the reference inspector pairs the two and records a
    latency.  The columnar path once dropped trailing fetches and wrote a
    null latency instead.  Both pages are the ones the end-to-end benchmark
    found: a campaign re-crawl day and a discovery pass.
    """

    @pytest.mark.parametrize("seed,sites,domain,crawl_day", [
        (805, 2000, "site-000327.example", 8),
        (901, 3000, "site-002188.example", 0),
    ])
    def test_one_site_shard_matches_reference(self, seed, sites, domain, crawl_day):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import ExperimentRunner

        runner = ExperimentRunner(ExperimentConfig(seed=seed, total_sites=sites))
        population = runner.build_population()
        environment = runner.build_environment(population)
        detector = runner.build_detector(population)
        site = next(p for p in population if p.domain == domain)
        # The shape that triggers the pairing; guards the test's relevance.
        assert site.facet is HBFacet.HYBRID
        assert site.partners == (site.ad_server,)

        detections = {}
        for name, config in {
            "columnar": CrawlConfig(seed=seed),
            "reference": CrawlConfig(seed=seed, fast_path=False, batch_sim=False),
        }.items():
            with CrawlEngine(environment, detector, config) as engine:
                detections[name] = engine.crawl([site], crawl_day=crawl_day).detections
        assert serialise(detections["columnar"]) == serialise(detections["reference"])
        late = [
            bid
            for auction in detections["reference"][0].auctions
            for bid in auction.bids
            if bid.late
        ]
        assert late and all(bid.latency_ms is not None for bid in late)


class TestOversubscribedPlan:
    def test_parallel_plans_oversubscribe(self, small_population):
        sites = list(small_population)[:64]
        plan = CrawlPlan.build(sites, workers=4, seed=3, oversubscribe=4)
        assert len(plan.shards) == 16
        assert plan.site_order == tuple(p.domain for p in sites)

    def test_sequential_plans_stay_single_shard(self, small_population):
        sites = list(small_population)[:64]
        plan = CrawlPlan.build(sites, workers=1, seed=3, oversubscribe=4)
        assert len(plan.shards) == 1

    def test_oversubscribe_is_capped_by_site_count(self, small_population):
        sites = list(small_population)[:5]
        plan = CrawlPlan.build(sites, workers=4, seed=3, oversubscribe=4)
        assert len(plan.shards) == 5
        assert all(len(shard) == 1 for shard in plan.shards)

    def test_engine_plan_uses_config_oversubscribe(
        self, environment, detector, small_population
    ):
        sites = list(small_population)[:64]
        config = CrawlConfig(seed=3, workers=4, backend="thread", shard_oversubscribe=2)
        engine = CrawlEngine(environment, detector, config)
        assert len(engine.plan(sites).shards) == 8

    def test_detections_identical_across_oversubscription(
        self, environment, detector, small_population
    ):
        sites = list(small_population)[:48]
        baseline = None
        for oversubscribe in (1, 3):
            config = CrawlConfig(
                seed=3, workers=4, backend="thread", shard_oversubscribe=oversubscribe
            )
            with CrawlEngine(environment, detector, config) as engine:
                blob = serialise(engine.crawl(sites).detections)
            if baseline is None:
                baseline = blob
            else:
                assert blob == baseline
