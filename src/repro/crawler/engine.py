"""Parallel crawl engine with pluggable execution backends.

The paper's workload is embarrassingly parallel across sites: one discovery
pass over the 35k-site top list, then daily re-crawls of the ~5k HB-enabled
sites.  This module splits a publisher list into deterministic shards
(:class:`CrawlPlan`), fans the shards out to workers through an
:class:`ExecutionBackend` (serial, thread pool, or process pool), and merges
the per-shard :class:`~repro.crawler.crawler.CrawlResult` objects back in
canonical site order.

Worker-scoped environment reuse and shared-memory handoff
---------------------------------------------------------
Workers do **not** receive the environment and detector per shard.  Each
backend builds a :class:`WorkerContext` once per worker — at pool start via
the executor ``initializer`` hook — and shard tasks then ship only tiny
descriptors.  On the process backend the environment/detector/config payload
is serialised exactly once, into a ``multiprocessing.shared_memory`` block
(:class:`SharedPayload`) every worker attaches to; each crawl's site list is
published the same way, so warm re-crawls ship **zero** publisher bytes per
task — a shard task is a handful of integers naming its slice of the shared
list.  Blocks are refcounted and unlinked by ``shutdown()`` /
:meth:`CrawlEngine.close`.  On the thread backend each worker thread owns
one cheap :meth:`~repro.detector.detector.HBDetector.clone` (instead of a
``copy.deepcopy`` per shard) and shares the engine's precompiled
:class:`~repro.ecosystem.profiles.SiteProfileTable`.  Pools persist across
:meth:`CrawlEngine.crawl` calls, so a 34-day longitudinal campaign pays the
worker setup cost once, not once per day.  Call :meth:`CrawlEngine.close`
(or use the engine as a context manager) to release pool workers.

Determinism guarantee
---------------------
Every page load derives its RNG stream from ``(seed, domain, visit_index)``
(see :meth:`repro.browser.engine.BrowserEngine.load`), never from crawl
order, worker identity or shared session state.  Shards are contiguous
chunks of the input list and each shard additionally carries a seed derived
from ``(seed, "shard", index)`` for shard-local bookkeeping, so the plan
itself is a pure function of ``(sites, workers, seed)``.  Merging shard
results in shard-index order therefore reproduces the serial detection
sequence exactly: a crawl with ``workers=1`` and ``workers=8`` produces
byte-identical serialised detections, and reusing workers across shards or
crawls cannot change the bytes because the detector is reset at every shard
boundary and carries no cross-page state.

Streaming
---------
:meth:`CrawlEngine.crawl` accepts a ``sink`` (any object with a
``write(detection)`` method, e.g. :class:`repro.crawler.storage.DetectionSink`).
Detections are streamed to the sink in canonical order, instead of buffering
the whole crawl before persisting anything: the serial backend streams after
every page, pool backends stream each shard as soon as every earlier shard
has completed.  If the sink exposes a ``flush()`` method (buffered sinks do),
the engine calls it at every shard boundary, so a buffered sink never holds
more than one shard's tail of detections in memory.
"""

from __future__ import annotations

import json
import pickle
import threading
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Executor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Protocol, Sequence

from repro.browser.engine import BrowserEngine
from repro.crawler.crawler import (
    BACKEND_NAMES,
    CrawlConfig,
    CrawlResult,
    ProgressCallback,
    ShardFailure,
)
from repro.crawler.session import CrawlSession
from repro.detector.detector import HBDetector
from repro.detector.records import SiteDetection
from repro.ecosystem.publishers import Publisher, PublisherPopulation
from repro.errors import (
    CampaignCancelled,
    CheckpointError,
    ConfigurationError,
    ShardTimeout,
    StorageError,
)
from repro.hb.environment import AuctionEnvironment
from repro.utils.rng import stable_hash

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a circular import
    from repro.crawler.checkpoint import CrawlCheckpointer
    from repro.ecosystem.profiles import SiteProfileTable

__all__ = [
    "CrawlShard",
    "CrawlPlan",
    "WorkerContext",
    "SharedPayload",
    "SupervisionPolicy",
    "ShardFailure",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadPoolBackend",
    "ProcessPoolBackend",
    "CrawlEngine",
    "DetectionSinkLike",
    "backend_from_name",
    "BACKEND_NAMES",
]


# ---------------------------------------------------------------------------
# Sharding


@dataclass(frozen=True)
class CrawlShard:
    """One contiguous slice of the canonical site list, owned by one worker."""

    index: int
    #: Position of the shard's first site in the canonical (input) order.
    start: int
    publishers: tuple[Publisher, ...]
    #: Seed derived from ``(plan seed, "shard", index)``; reserved for
    #: shard-local decisions.  Page-level RNG is keyed by
    #: ``(seed, domain, visit_index)`` and deliberately ignores this, which is
    #: what keeps results independent of the worker count.
    shard_seed: int

    def __len__(self) -> int:
        return len(self.publishers)


@dataclass(frozen=True)
class CrawlPlan:
    """A deterministic partition of a publisher list into crawl shards."""

    seed: int
    n_sites: int
    shards: tuple[CrawlShard, ...]

    @classmethod
    def build(
        cls,
        publishers: Sequence[Publisher] | PublisherPopulation,
        *,
        workers: int = 1,
        seed: int = 2019,
        oversubscribe: int = 1,
    ) -> "CrawlPlan":
        """Split ``publishers`` into balanced shards.

        The split is contiguous (shard *i* holds an unbroken run of the input
        order) and a pure function of ``(publishers, workers, seed,
        oversubscribe)``: the first ``len(publishers) % n`` shards receive
        one extra site.  A parallel plan (``workers > 1``) produces up to
        ``workers * oversubscribe`` shards, so pool workers keep pulling work
        while an expensive high-rank shard is still running; a sequential
        plan is always a single shard.  Merging in shard order reproduces the
        canonical site order for any shard count, so detections are
        byte-identical regardless of ``oversubscribe``.
        """
        if workers < 1:
            raise ConfigurationError("a crawl plan needs at least one worker")
        if oversubscribe < 1:
            raise ConfigurationError("a crawl plan needs oversubscribe >= 1")
        sites = list(publishers)
        slots = workers * oversubscribe if workers > 1 else 1
        n_shards = max(1, min(slots, len(sites)))
        base, extra = divmod(len(sites), n_shards)
        shards = []
        start = 0
        for index in range(n_shards):
            size = base + (1 if index < extra else 0)
            shards.append(
                CrawlShard(
                    index=index,
                    start=start,
                    publishers=tuple(sites[start : start + size]),
                    shard_seed=stable_hash(seed, "shard", index),
                )
            )
            start += size
        return cls(seed=seed, n_sites=len(sites), shards=tuple(shards))

    @property
    def site_order(self) -> tuple[str, ...]:
        """Domains in canonical order (concatenation of the shards)."""
        return tuple(p.domain for shard in self.shards for p in shard.publishers)


# ---------------------------------------------------------------------------
# The per-worker context and the per-shard worker


@dataclass
class WorkerContext:
    """Crawl state one worker owns for its whole lifetime.

    Built once per worker (not once per shard): the serial backend wraps the
    caller's own objects, the thread backend clones the detector per worker
    thread, and the process backend ships the context to each worker process
    exactly once through a shared-memory block.

    ``profiles`` is the worker's precompiled :class:`SiteProfileTable`
    (shared between worker threads, per-process for process workers);
    ``browser`` is the worker's long-lived :class:`BrowserEngine`, which owns
    the per-worker scratch context the fast path reuses across page loads.
    Both are ``None`` when ``config.fast_path`` is off.
    """

    environment: AuctionEnvironment
    detector: HBDetector
    config: CrawlConfig
    profiles: "SiteProfileTable | None" = None
    browser: BrowserEngine | None = field(default=None, repr=False)

    @classmethod
    def build(
        cls,
        environment: AuctionEnvironment,
        detector: HBDetector,
        config: CrawlConfig,
        *,
        profiles: "SiteProfileTable | None" = None,
    ) -> "WorkerContext":
        """Assemble a context, compiling the profile table when fast-pathed."""
        if config.fast_path and profiles is None:
            from repro.ecosystem.profiles import SiteProfileTable

            profiles = SiteProfileTable(environment, seed=config.seed)
        context = cls(
            environment=environment, detector=detector, config=config, profiles=profiles
        )
        if config.fast_path:
            context.browser = BrowserEngine(
                environment,
                seed=config.seed,
                page_load_timeout_ms=config.page_load_timeout_ms,
                extra_dwell_ms=config.extra_dwell_ms,
                profiles=profiles,
            )
        return context


def _crawl_shard(
    context: WorkerContext,
    crawl_day: int,
    on_detection: Callable[[SiteDetection], None] | None,
    shard: CrawlShard,
) -> CrawlResult:
    """Crawl one shard using the worker's long-lived context.

    The detector is reset at shard start, so reusing one worker for many
    shards (or many crawl days) is observationally identical to giving every
    shard a fresh detector.  Sessions are created lazily: after a timeout or
    a scheduled restart the replacement is only spawned if another site
    remains, so the final page of a shard never bumps ``sessions_started``
    for a session that loads nothing.

    ``on_detection`` fires after every page; backends that run shards inline
    in the calling thread (``streams_inline``) use it for page-granular
    streaming, pool backends pass ``None`` and stream per completed shard.
    """
    environment, detector, config = context.environment, context.detector, context.config
    if (
        config.fast_path
        and getattr(config, "batch_sim", False)
        and context.browser is not None
        and context.profiles is not None
    ):
        from repro.ecosystem.columnar import simulate_shard_columnar

        return simulate_shard_columnar(context, crawl_day, on_detection, shard)
    detector.reset()
    result = CrawlResult()
    session: CrawlSession | None = None
    for publisher in shard.publishers:
        if session is None:
            session = CrawlSession(
                environment=environment,
                seed=config.seed,
                page_load_timeout_ms=config.page_load_timeout_ms,
                extra_dwell_ms=config.extra_dwell_ms,
                engine=context.browser,
            )
            result.sessions_started += 1
        page = session.load(publisher, visit_index=crawl_day)
        result.pages_visited += 1
        if page.timed_out:
            # The paper kills the instance after 60 s and moves on; the
            # partially loaded page still yields whatever was observed.
            result.timed_out_domains.append(publisher.domain)
            session.kill()
            session = None
        detection = detector.inspect_page(page, crawl_day=crawl_day)
        result.detections.append(detection)
        if on_detection is not None:
            on_detection(detection)
        if session is not None and session.pages_loaded >= config.restart_every_pages:
            session.kill()
            session = None
    if session is not None:
        session.kill()
    return result


# ---------------------------------------------------------------------------
# Shared-memory payload handoff (process backend)


class SharedPayload:
    """One pickled object published in a ``multiprocessing.shared_memory`` block.

    The parent process serialises the payload exactly once; worker processes
    attach to the block by name, deserialise, and detach immediately.  The
    creator keeps the only long-lived handle: :meth:`release` decrements the
    refcount taken by :meth:`retain` and closes + unlinks the block when it
    reaches zero (``CrawlEngine.close`` releases through the backend).
    """

    __slots__ = ("name", "size", "_shm", "_refs", "_finalizer", "__weakref__")

    def __init__(self, payload: object) -> None:
        import weakref
        from multiprocessing import shared_memory

        data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        self._shm = shared_memory.SharedMemory(create=True, size=max(1, len(data)))
        self._shm.buf[: len(data)] = data
        self.name = self._shm.name
        self.size = len(data)
        self._refs = 1
        # Safety net: unlink at GC / interpreter exit even if the owner never
        # reaches release() (e.g. a crashed crawl that skipped close()).
        self._finalizer = weakref.finalize(self, _destroy_shared_block, self._shm)

    def retain(self) -> "SharedPayload":
        if self._shm is None:
            raise ConfigurationError("cannot retain a released shared payload")
        self._refs += 1
        return self

    def release(self) -> None:
        if self._shm is None:
            return
        self._refs -= 1
        if self._refs > 0:
            return
        shm, self._shm = self._shm, None
        self._finalizer.detach()
        _destroy_shared_block(shm)

    @property
    def live(self) -> bool:
        return self._shm is not None


def _destroy_shared_block(shm) -> None:
    shm.close()
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already gone
        pass


def _read_shared_payload(name: str, size: int) -> object:
    """Attach to a shared block, deserialise its payload, detach (worker side).

    Attaching normally *registers* the segment with the resource tracker
    (CPython < 3.13 offers no ``track=False``), and the tracker — shared with
    the parent — would then unlink a block the parent still owns when any
    worker exits.  The attach is wrapped with registration suppressed; the
    parent remains the sole owner.
    """
    from multiprocessing import resource_tracker, shared_memory

    register, resource_tracker.register = resource_tracker.register, lambda *a, **k: None
    try:
        shm = shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = register
    try:
        return pickle.loads(bytes(shm.buf[:size]))
    finally:
        shm.close()


#: Per-process worker context, populated by the process pool initializer.
#: Lives at module scope so shard tasks reach it without any per-task payload.
_PROCESS_CONTEXT: WorkerContext | None = None

#: Per-process cache of site lists received through shared memory, keyed by
#: block name.  Bounded: a worker keeps the few most recent lists (a
#: longitudinal campaign re-crawls the same list every day).
_PROCESS_SITE_CACHE: dict[str, list[Publisher]] = {}
_PROCESS_SITE_CACHE_LIMIT = 4


def _init_process_worker(payload_name: str, payload_size: int) -> None:
    """Process pool initializer: read the worker context from shared memory.

    The environment/detector/config payload is serialised once by the parent
    (into the block every worker attaches to) instead of once per worker
    through the initializer arguments; only the block's name and size travel
    per worker.
    """
    global _PROCESS_CONTEXT
    environment, detector, config = _read_shared_payload(payload_name, payload_size)
    _PROCESS_CONTEXT = WorkerContext.build(environment, detector, config)
    _PROCESS_SITE_CACHE.clear()


def _process_context() -> WorkerContext:
    context = _PROCESS_CONTEXT
    if context is None:  # pragma: no cover - initializer always runs first
        raise RuntimeError("process worker used before its context was initialised")
    return context


def _run_shard_in_process(
    shard: CrawlShard, crawl_day: int, fault: Callable[[], None] | None = None
) -> CrawlResult:
    """Entry point for process-pool shard tasks (only the descriptor ships)."""
    if fault is not None:
        fault()
    return _crawl_shard(_process_context(), crawl_day, None, shard)


def _run_shard_from_shared_sites(
    sites_name: str,
    sites_size: int,
    index: int,
    start: int,
    length: int,
    shard_seed: int,
    crawl_day: int,
    fault: Callable[[], None] | None = None,
) -> CrawlResult:
    """Process-pool shard task whose publishers live in a shared site list.

    The task ships a handful of integers and the block name; the worker
    attaches to the published site list once, caches it, and slices its own
    contiguous shard out of it — no per-shard publisher pickling at all.
    """
    if fault is not None:
        fault()
    sites = _PROCESS_SITE_CACHE.get(sites_name)
    if sites is None:
        sites = list(_read_shared_payload(sites_name, sites_size))
        while len(_PROCESS_SITE_CACHE) >= _PROCESS_SITE_CACHE_LIMIT:
            _PROCESS_SITE_CACHE.pop(next(iter(_PROCESS_SITE_CACHE)))
        _PROCESS_SITE_CACHE[sites_name] = sites
    shard = CrawlShard(
        index=index,
        start=start,
        publishers=tuple(sites[start : start + length]),
        shard_seed=shard_seed,
    )
    return _crawl_shard(_process_context(), crawl_day, None, shard)


def _init_thread_worker(local: threading.local, prototype: WorkerContext) -> None:
    """Thread pool initializer: give the worker thread its own detector clone.

    The profile table is shared with the prototype (compilation is
    deterministic and insertion is lock-guarded), but each thread owns its
    browser engine — and with it the scratch context pages are simulated in.
    """
    local.context = WorkerContext.build(
        prototype.environment,
        prototype.detector.clone(),
        prototype.config,
        profiles=prototype.profiles,
    )


def _run_shard_in_thread(
    local: threading.local,
    prototype: WorkerContext,
    shard: CrawlShard,
    crawl_day: int,
    fault: Callable[[], None] | None = None,
) -> CrawlResult:
    """Entry point for thread-pool shard tasks, using the thread's context."""
    if fault is not None:
        fault()
    context = getattr(local, "context", None)
    if context is None:  # pragma: no cover - defensive: initializer always runs
        _init_thread_worker(local, prototype)
        context = local.context
    return _crawl_shard(context, crawl_day, None, shard)


# ---------------------------------------------------------------------------
# Supervision


@dataclass(frozen=True)
class SupervisionPolicy:
    """How a backend treats a failing or overdue shard attempt.

    Built from the crawl config (:meth:`from_config`) and installed on
    backends by the engine via ``set_supervision``.  The defaults describe
    the *unsupervised* legacy behaviour: no retries, no timeout, failures
    abort the crawl.
    """

    retries: int = 0
    timeout: float | None = None
    backoff: float = 0.0
    seed: int = 0
    quarantine: bool = False

    @classmethod
    def from_config(cls, config: CrawlConfig) -> "SupervisionPolicy":
        return cls(
            retries=config.shard_retries,
            timeout=config.shard_timeout,
            backoff=config.retry_backoff,
            seed=config.seed,
            quarantine=config.quarantine,
        )

    def delay(self, key: object, attempt: int) -> float:
        """Exponential backoff before retry ``attempt`` (1-based).

        The jitter factor in ``[0.5, 1.0)`` is derived from
        ``(seed, key, attempt)`` instead of wall-clock randomness, so retry
        schedules — like everything else in a crawl — are reproducible.
        """
        if self.backoff <= 0:
            return 0.0
        jitter = 0.5 + (stable_hash(self.seed, "retry", key, attempt) % 1024) / 2048.0
        return self.backoff * (2 ** (attempt - 1)) * jitter


def _retryable(exc: BaseException) -> bool:
    """Whether supervision may retry after ``exc``.

    Configuration and checkpoint errors reproduce identically on every
    attempt, and a cancelled campaign must stop *now* — everything else
    (injected faults, broken pools, transient I/O) is assumed transient.
    """
    return not isinstance(exc, (ConfigurationError, CheckpointError, CampaignCancelled))


class _ReplayEmitter:
    """Wraps an ``on_detection`` target so shard retries never double-emit.

    Inline backends stream page by page, so when a shard attempt fails
    mid-stream some of its detections have already reached the sink.  A
    retried attempt re-simulates the shard deterministically — the same
    detections in the same order — so the emitter swallows the first
    ``delivered`` of them and streaming resumes exactly where it stopped,
    keeping the sink bytes identical to a fault-free run.
    """

    __slots__ = ("_target", "delivered", "_seen")

    def __init__(self, target: Callable[[SiteDetection], None]) -> None:
        self._target = target
        self.delivered = 0
        self._seen = 0

    def reset(self) -> None:
        """Forget the previous shard (call at every shard start)."""
        self.delivered = 0
        self._seen = 0

    def begin_attempt(self) -> None:
        """Start (re)playing the current shard from its first detection."""
        self._seen = 0

    def __call__(self, detection: SiteDetection) -> None:
        self._seen += 1
        if self._seen <= self.delivered:
            return
        self._target(detection)
        self.delivered = self._seen


class _SupervisionMixin:
    """Shared retry/quarantine bookkeeping for the built-in backends."""

    def _init_supervision(self) -> None:
        self._policy: SupervisionPolicy | None = None
        self._on_event: Callable[..., None] | None = None
        self._fault_plan = None
        #: Lifetime counters; the engine snapshots deltas per crawl.
        self.retries = 0
        self.quarantined = 0
        self.pool_rebuilds = 0

    def set_supervision(
        self,
        policy: SupervisionPolicy | None,
        on_event: Callable[..., None] | None = None,
    ) -> None:
        """Install the retry/timeout/quarantine policy (engine-called)."""
        self._policy = policy
        self._on_event = on_event

    def set_fault_plan(self, plan) -> None:
        """Install a fault-injection plan (``None`` clears it)."""
        self._fault_plan = plan

    def _event(self, kind: str, **data) -> None:
        if self._on_event is not None:
            self._on_event(kind, **data)

    def _next_fault(self, shard: CrawlShard, attempt: int):
        if self._fault_plan is None:
            return None
        return self._fault_plan.next_action(shard.index, attempt)

    def _failure_verdict(
        self,
        policy: SupervisionPolicy | None,
        shard: CrawlShard,
        attempt: int,
        exc: BaseException,
    ):
        """Classify one failed attempt: ``("retry", delay)``,
        ``("quarantine", ShardFailure)``, or re-raise ``exc``."""
        if policy is not None and _retryable(exc):
            error = f"{type(exc).__name__}: {exc}"
            if attempt < policy.retries:
                self.retries += 1
                delay = policy.delay(shard.index, attempt + 1)
                self._event(
                    "retry",
                    shard=shard.index,
                    attempt=attempt + 1,
                    delay=round(delay, 3),
                    error=error,
                )
                return "retry", delay
            if policy.quarantine:
                self.quarantined += 1
                failure = ShardFailure(
                    shard_index=shard.index,
                    error=error,
                    attempts=attempt + 1,
                    domains=tuple(p.domain for p in shard.publishers),
                )
                self._event(
                    "quarantine", shard=shard.index, attempts=attempt + 1, error=error
                )
                return "quarantine", failure
        raise exc


# ---------------------------------------------------------------------------
# Execution backends


class ExecutionBackend(Protocol):
    """Strategy for running shard tasks; yields results in completion order."""

    name: str
    #: Whether shards run inline in the calling thread, in shard order — in
    #: which case the engine streams detections page by page through the
    #: worker's ``on_detection`` hook instead of per completed shard.
    streams_inline: bool

    def prepare(self, context: WorkerContext) -> None:
        """Install the crawl state workers will reuse across shards/crawls."""
        ...

    def execute(
        self,
        shards: Sequence[CrawlShard],
        crawl_day: int,
        on_detection: Callable[[SiteDetection], None] | None,
    ) -> Iterator[tuple[int, "CrawlResult | ShardFailure"]]:
        """Run every shard, yielding ``(shard_index, result)``.

        Supervised backends (see ``set_supervision``) may yield a
        :class:`ShardFailure` in place of a result for a shard that
        exhausted its retry budget and was quarantined.
        """
        ...

    def shutdown(self) -> None:
        """Release any pooled workers (idempotent)."""
        ...

    # Backends may additionally expose ``publish_sites(sites)``: a hint,
    # called once per crawl before ``execute``, that lets a backend ship the
    # canonical site list to its workers out of band (the process backend
    # publishes it in shared memory).  The engine treats it as optional.


class SerialBackend(_SupervisionMixin):
    """Run shards one after another in the calling thread (the default).

    The single worker is the caller itself, so the context wraps the engine's
    own environment/detector without any copy — exactly the paper's
    sequential crawl.

    Supervision notes: ``shard_timeout`` is not enforceable here (there is no
    second thread to preempt the caller), and an injected ``crash`` fault
    degrades to an exception — killing the only process would defeat the
    point.  Retries replay a shard through a :class:`_ReplayEmitter`, so the
    detections an earlier attempt already streamed are skipped, not repeated.
    """

    name = "serial"
    streams_inline = True

    def __init__(self) -> None:
        self._context: WorkerContext | None = None
        self._init_supervision()

    def prepare(self, context: WorkerContext) -> None:
        self._context = context

    def execute(
        self,
        shards: Sequence[CrawlShard],
        crawl_day: int,
        on_detection: Callable[[SiteDetection], None] | None,
    ) -> Iterator[tuple[int, "CrawlResult | ShardFailure"]]:
        if self._context is None:
            raise ConfigurationError("backend used before prepare()")
        if self._policy is None and self._fault_plan is None:
            for shard in shards:
                yield shard.index, _crawl_shard(
                    self._context, crawl_day, on_detection, shard
                )
            return
        emitter = _ReplayEmitter(on_detection) if on_detection is not None else None
        for shard in shards:
            if emitter is not None:
                emitter.reset()
            attempt = 0
            while True:
                if emitter is not None:
                    emitter.begin_attempt()
                try:
                    fault = self._next_fault(shard, attempt)
                    if fault is not None:
                        fault()
                    result = _crawl_shard(self._context, crawl_day, emitter, shard)
                except Exception as exc:
                    verdict, extra = self._failure_verdict(
                        self._policy, shard, attempt, exc
                    )
                    if verdict == "retry":
                        attempt += 1
                        if extra:
                            time.sleep(extra)
                        continue
                    yield shard.index, extra  # the ShardFailure
                    break
                else:
                    yield shard.index, result
                    break

    def shutdown(self) -> None:
        self._context = None


class _ExecutorBackend(_SupervisionMixin):
    """Shared machinery for ``concurrent.futures`` based backends.

    The executor is created lazily on first use and then *persists* across
    ``execute()`` calls, so per-worker setup (context build, environment
    pickling) happens once per worker for the backend's whole lifetime
    instead of once per crawl.  ``shutdown()`` releases the pool.

    With a :class:`SupervisionPolicy` installed, ``execute`` runs a
    supervised loop: failed attempts retry with deterministic backoff, a
    :class:`BrokenExecutor` (a worker died) rebuilds the pool in place and
    resubmits everything that was in flight, attempts that exceed
    ``policy.timeout`` are abandoned and retried, and a shard that exhausts
    its budget is yielded as a :class:`ShardFailure` instead of aborting
    the crawl.
    """

    name = "executor"
    streams_inline = False

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError("a pool backend needs at least one worker")
        self.max_workers = max_workers
        self._context: WorkerContext | None = None
        self._executor: Executor | None = None
        self._pool_size = 0
        self._init_supervision()

    def prepare(self, context: WorkerContext) -> None:
        if self._context is not None and self._executor is not None:
            if self._context is not context and (
                self._context.environment is not context.environment
                or self._context.detector is not context.detector
                or self._context.config != context.config
            ):
                # A live pool was initialised with different crawl state
                # (workers read seed/timeouts from the context they were
                # built with); a silent swap would keep crawling with the
                # old one.
                raise ConfigurationError(
                    "cannot reuse a running pool backend with a different "
                    "environment/detector/config; call shutdown() first"
                )
            return
        self._context = context

    def _make_executor(self, context: WorkerContext, workers: int) -> Executor:
        raise NotImplementedError

    def _submit(
        self,
        executor: Executor,
        shard: CrawlShard,
        crawl_day: int,
        fault: Callable[[], None] | None = None,
    ):
        raise NotImplementedError

    def execute(
        self,
        shards: Sequence[CrawlShard],
        crawl_day: int,
        on_detection: Callable[[SiteDetection], None] | None,
    ) -> Iterator[tuple[int, "CrawlResult | ShardFailure"]]:
        if self._context is None:
            raise ConfigurationError("backend used before prepare()")
        if not shards:
            return
        desired = min(self.max_workers or len(shards), len(shards))
        if self._executor is not None and desired > self._pool_size:
            # The live pool was sized by a smaller earlier crawl (e.g. a
            # warm-up); grow it rather than capping parallelism forever.
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._executor is None:
            self._pool_size = desired
            self._executor = self._make_executor(self._context, desired)
        if self._policy is None and self._fault_plan is None:
            futures = {self._submit(self._executor, shard, crawl_day): shard.index for shard in shards}
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    yield futures[future], future.result()
            return
        yield from self._supervised_execute(shards, crawl_day)

    def _supervised_execute(
        self, shards: Sequence[CrawlShard], crawl_day: int
    ) -> Iterator[tuple[int, "CrawlResult | ShardFailure"]]:
        policy = self._policy or SupervisionPolicy()
        in_flight: dict = {}  # future -> (shard, attempt, deadline)
        waiting: list = []  # (ready_at, shard, attempt) scheduled resubmissions

        def submit(shard: CrawlShard, attempt: int) -> None:
            fault = self._next_fault(shard, attempt)
            future = self._submit(self._executor, shard, crawl_day, fault=fault)
            deadline = time.monotonic() + policy.timeout if policy.timeout else None
            in_flight[future] = (shard, attempt, deadline)

        def dispose(shard: CrawlShard, attempt: int, exc: BaseException):
            """Schedule a retry (returns None) or hand back a ShardFailure."""
            verdict, extra = self._failure_verdict(policy, shard, attempt, exc)
            if verdict == "retry":
                # Backoff without blocking the loop: the resubmission waits
                # in `waiting` while other shards keep completing.
                waiting.append((time.monotonic() + extra, shard, attempt + 1))
                return None
            return extra

        for shard in shards:
            submit(shard, 0)
        while in_flight or waiting:
            now = time.monotonic()
            due = [entry for entry in waiting if entry[0] <= now]
            if due:
                waiting[:] = [entry for entry in waiting if entry[0] > now]
                for _, shard, attempt in due:
                    submit(shard, attempt)
            if not in_flight:
                # Everything outstanding is backing off; sleep to the
                # earliest resubmission.
                time.sleep(max(0.0, min(entry[0] for entry in waiting) - now))
                continue
            # Bound the wait so attempt deadlines and due resubmissions are
            # noticed promptly; with neither in play, block like the
            # unsupervised loop does.
            horizon = [d for (_, _, d) in in_flight.values() if d is not None]
            horizon.extend(entry[0] for entry in waiting)
            poll = max(0.0, min(horizon) - now) + 0.005 if horizon else None
            done, _ = wait(set(in_flight), timeout=poll, return_when=FIRST_COMPLETED)
            for future in done:
                entry = in_flight.pop(future, None)
                if entry is None:
                    # A late result from an abandoned (timed-out) attempt or
                    # a pool rebuild; the shard was already re-dispatched.
                    continue
                shard, attempt, _ = entry
                try:
                    result = future.result()
                except BrokenExecutor as exc:
                    # A worker died (SIGKILL, OOM): the pool is unusable and
                    # every in-flight future fails with it.  Rebuild the pool
                    # in place — the shared payload and published site blocks
                    # are still live and re-attach as-is — and charge one
                    # attempt to every shard that was in flight: the killer
                    # cannot be attributed, but innocents succeed on retry
                    # while a poison shard exhausts its budget on repeats.
                    casualties = [(shard, attempt)]
                    casualties.extend((s, a) for (s, a, _) in in_flight.values())
                    in_flight.clear()
                    self.pool_rebuilds += 1
                    self._event(
                        "pool_rebuild",
                        error=f"{type(exc).__name__}: {exc}",
                        resubmitted=len(casualties),
                    )
                    self._executor.shutdown(wait=False)
                    self._executor = self._make_executor(self._context, self._pool_size)
                    for s, a in casualties:
                        failure = dispose(s, a, exc)
                        if failure is not None:
                            yield s.index, failure
                    break  # the rest of `done` died with the same pool
                except Exception as exc:
                    failure = dispose(shard, attempt, exc)
                    if failure is not None:
                        yield shard.index, failure
                else:
                    yield shard.index, result
            if policy.timeout:
                now = time.monotonic()
                for future, (shard, attempt, deadline) in list(in_flight.items()):
                    if deadline is None or now < deadline:
                        continue
                    # Abandon the attempt: a running future cannot be
                    # cancelled, so a genuinely hung worker keeps its slot
                    # until it wakes (its eventual result is discarded); a
                    # still-queued future is cancelled outright.  The
                    # deadline covers queue wait, so on a saturated pool a
                    # timeout may fire before the attempt ever ran — the
                    # retry simply queues again.
                    del in_flight[future]
                    future.cancel()
                    exc = ShardTimeout(
                        f"shard {shard.index} attempt {attempt + 1} exceeded "
                        f"{policy.timeout:g}s"
                    )
                    failure = dispose(shard, attempt, exc)
                    if failure is not None:
                        yield shard.index, failure

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self._pool_size = 0
        self._context = None

    def __enter__(self) -> "_ExecutorBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


class ThreadPoolBackend(_ExecutorBackend):
    """Fan shards out to a persistent thread pool.

    Page-load simulation is numpy-heavy enough that threads overlap some
    work; more importantly the backend exercises the exact fan-out/merge
    path of :class:`ProcessPoolBackend` without pickling, making it the
    cheap way to test parallel semantics.  Each worker thread owns one
    detector clone for its whole lifetime (built by the pool initializer),
    replacing the old per-shard ``copy.deepcopy``.
    """

    name = "thread"

    def __init__(self, max_workers: int | None = None) -> None:
        super().__init__(max_workers)
        self._local = threading.local()

    def _make_executor(self, context: WorkerContext, workers: int) -> Executor:
        return ThreadPoolExecutor(
            max_workers=workers,
            initializer=_init_thread_worker,
            initargs=(self._local, context),
        )

    def _submit(
        self,
        executor: Executor,
        shard: CrawlShard,
        crawl_day: int,
        fault: Callable[[], None] | None = None,
    ):
        return executor.submit(
            _run_shard_in_thread, self._local, self._context, shard, crawl_day, fault
        )


class ProcessPoolBackend(_ExecutorBackend):
    """Fan shards out to persistent worker processes (true CPU parallelism).

    Worker processes start pickle-free: the environment/detector/config
    payload is serialised exactly once — into a shared-memory block every
    worker attaches to — and each crawl's site list is published the same
    way, so shard tasks ship only a handful of integers instead of their
    publishers.  Blocks are refcounted and unlinked on :meth:`shutdown`
    (reached through ``CrawlEngine.close``).  Worker processes are fully
    isolated from the caller by construction.
    """

    name = "process"

    #: How many distinct published site lists to keep alive (a longitudinal
    #: campaign alternates between at most a couple — discovery + re-crawl).
    SITE_BLOCK_LIMIT = 4

    def __init__(self, max_workers: int | None = None) -> None:
        super().__init__(max_workers)
        self._payload: SharedPayload | None = None
        # Published site lists: (sites, block), most recently used last.
        self._site_blocks: list[tuple[list[Publisher], SharedPayload]] = []
        self._current_sites: tuple[list[Publisher], SharedPayload] | None = None
        #: Lifetime task counters: shard tasks that referenced a shared site
        #: list vs tasks that had to ship their publishers (no published
        #: list, or a list whose elements did not match the shard's).  The
        #: benchmark reports these so a silent fall-off of the zero-copy
        #: path is visible.
        self.shared_site_tasks = 0
        self.fallback_tasks = 0

    def publish_sites(self, sites: Sequence[Publisher]) -> None:
        """Publish the crawl's canonical site list in shared memory.

        Re-publishing the same list (element-identical, the warm-crawl case)
        reuses the existing block, so a 34-day campaign ships its population
        across the process boundary once, not once per day.
        """
        sites = list(sites)
        for position, (known, block) in enumerate(self._site_blocks):
            if len(known) == len(sites) and all(a is b for a, b in zip(known, sites)):
                self._site_blocks.append(self._site_blocks.pop(position))
                self._current_sites = (known, block)
                return
        block = SharedPayload(sites)
        self._site_blocks.append((sites, block))
        self._current_sites = (sites, block)
        while len(self._site_blocks) > self.SITE_BLOCK_LIMIT:
            _, stale = self._site_blocks.pop(0)
            stale.release()

    def _make_executor(self, context: WorkerContext, workers: int) -> Executor:
        if self._payload is None or not self._payload.live:
            self._payload = SharedPayload(
                (context.environment, context.detector, context.config)
            )
        # Imported here: ``concurrent.futures.process`` pulls in the
        # multiprocessing machinery, which serial runs never need.
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_process_worker,
            initargs=(self._payload.name, self._payload.size),
        )

    def _submit(
        self,
        executor: Executor,
        shard: CrawlShard,
        crawl_day: int,
        fault: Callable[[], None] | None = None,
    ):
        if self._current_sites is not None:
            sites, block = self._current_sites
            start, length = shard.start, len(shard.publishers)
            if start + length <= len(sites) and all(
                a is b for a, b in zip(sites[start : start + length], shard.publishers)
            ):
                self.shared_site_tasks += 1
                return executor.submit(
                    _run_shard_from_shared_sites,
                    block.name,
                    block.size,
                    shard.index,
                    start,
                    length,
                    shard.shard_seed,
                    crawl_day,
                    fault,
                )
        self.fallback_tasks += 1
        return executor.submit(_run_shard_in_process, shard, crawl_day, fault)

    def shutdown(self) -> None:
        super().shutdown()
        if self._payload is not None:
            self._payload.release()
            self._payload = None
        for _, block in self._site_blocks:
            block.release()
        self._site_blocks = []
        self._current_sites = None


def backend_from_name(name: str, *, workers: int | None = None) -> ExecutionBackend:
    """Build a backend from its configuration name."""
    if name == "serial":
        return SerialBackend()
    if name == "thread":
        return ThreadPoolBackend(max_workers=workers)
    if name == "process":
        return ProcessPoolBackend(max_workers=workers)
    raise ConfigurationError(
        f"unknown execution backend {name!r}; expected one of {', '.join(BACKEND_NAMES)}"
    )


# ---------------------------------------------------------------------------
# The engine


class DetectionSinkLike(Protocol):
    """Anything detections can be streamed to (see ``CrawlStorage.open_sink``).

    Sinks may additionally expose ``flush()``; the engine then flushes at
    every shard boundary (and buffered sinks flush themselves on close).
    """

    def write(self, detection: SiteDetection) -> None: ...


class CrawlEngine:
    """Shards a crawl, fans it out to a backend, and merges canonically.

    Parameters
    ----------
    environment / detector:
        The simulated demand side and the detection tool; each worker builds
        its own long-lived context from them (clone per thread, one pickled
        copy per process) instead of receiving copies per shard.
    config:
        Operational crawl parameters; ``config.workers`` and
        ``config.backend`` choose the default execution strategy, and the
        ``shard_retries`` / ``shard_timeout`` / ``retry_backoff`` /
        ``quarantine`` knobs configure the supervision layer.
    backend:
        Explicit backend instance, overriding the config-derived one.
    fault_plan:
        Optional :class:`repro.testing.FaultPlan`; the engine installs it on
        the backend (shard-level crash/hang/raise faults) and wraps the sink
        with it (transient write failures).  Supervision must absorb every
        injected fault without changing a byte of output.

    Pool backends keep their workers alive between :meth:`crawl` calls;
    call :meth:`close` (or use ``with CrawlEngine(...) as engine:``) to
    release them deterministically.
    """

    def __init__(
        self,
        environment: AuctionEnvironment,
        detector: HBDetector,
        config: CrawlConfig | None = None,
        backend: ExecutionBackend | None = None,
        fault_plan=None,
    ) -> None:
        self.environment = environment
        self.detector = detector
        self.config = config or CrawlConfig()
        self.backend = backend or backend_from_name(
            self.config.backend, workers=self.config.workers
        )
        self.fault_plan = fault_plan
        self._context = WorkerContext.build(self.environment, self.detector, self.config)

    def _fault_event(self, kind: str, **data) -> None:
        """Append one supervision event to ``config.fault_log`` (best effort).

        JSON lines, parent-process only; the campaign service tails this
        file into SSE ``fault`` events.  Log I/O failures are swallowed —
        observability must never take down a crawl that supervision just
        saved.
        """
        path = self.config.fault_log
        if not path:
            return
        record = {"event": kind, "ts": round(time.time(), 3), **data}
        try:
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        except OSError:  # pragma: no cover - best-effort log
            pass

    def _supervision_counts(self) -> tuple[int, int]:
        return (
            getattr(self.backend, "retries", 0),
            getattr(self.backend, "pool_rebuilds", 0),
        )

    def plan(self, publishers: Sequence[Publisher] | PublisherPopulation) -> CrawlPlan:
        """The shard plan this engine would use for ``publishers``."""
        return CrawlPlan.build(
            publishers,
            workers=self.config.workers,
            seed=self.config.seed,
            oversubscribe=self.config.shard_oversubscribe,
        )

    def close(self) -> None:
        """Release pooled workers (safe to call twice; engine reusable after)."""
        self.backend.shutdown()

    def __enter__(self) -> "CrawlEngine":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        try:
            self.close()
        except Exception:
            # A pool-teardown failure while unwinding a crawl error must not
            # mask the original exception; surface it only on a clean exit.
            if exc_type is None:
                raise

    def crawl(
        self,
        publishers: Sequence[Publisher] | PublisherPopulation,
        *,
        crawl_day: int = 0,
        progress: ProgressCallback | None = None,
        sink: DetectionSinkLike | None = None,
        checkpoint: "CrawlCheckpointer | None" = None,
    ) -> CrawlResult:
        """Visit every publisher once and run detection on each page load.

        Detections reach ``progress`` and ``sink`` incrementally, always in
        canonical site order: page by page on inline backends (serial), and
        shard by shard — as soon as every earlier shard has completed — on
        pool backends.  Sinks with a ``flush()`` method are flushed at every
        shard boundary.

        ``checkpoint`` makes the crawl resumable: progress is recorded at
        shard boundaries (throttled by ``config.checkpoint_every_shards``),
        and if the checkpointer was resumed from a previous interrupted run
        the completed leading shards are skipped, their detections recovered
        from the sink file instead of re-crawled, and the merged result —
        and the sink bytes — are identical to an uninterrupted run.  A
        checkpointed crawl requires a sink (recovery replays its file), and
        recovered detections are not re-streamed to ``sink``/``progress``.
        """
        plan = self.plan(publishers)
        policy = SupervisionPolicy.from_config(self.config)
        if self.fault_plan is not None and sink is not None:
            sink = self.fault_plan.wrap_sink(sink)
        prior = CrawlResult()
        skip = 0
        if checkpoint is not None:
            if sink is None:
                raise ConfigurationError(
                    "a checkpointed crawl needs a sink: resume recovers "
                    "completed shards from the sink file"
                )
            prior, skip = checkpoint.begin_phase(plan, crawl_day, sink)
        emitted = len(prior.detections)
        degraded = False
        sink_retries = 0

        def write_detection(detection: SiteDetection) -> None:
            # Transient sink failures get the same backoff policy as shard
            # retries; a failed write leaves buffered sinks intact, so the
            # retry re-writes exactly the same record.
            nonlocal sink_retries
            attempt = 0
            while True:
                try:
                    sink.write(detection)  # type: ignore[union-attr]
                    return
                except StorageError as exc:
                    if attempt >= policy.retries:
                        raise
                    attempt += 1
                    sink_retries += 1
                    self._fault_event(
                        "sink_retry", attempt=attempt, error=f"{type(exc).__name__}: {exc}"
                    )
                    time.sleep(policy.delay("sink-write", attempt))

        def emit(detection: SiteDetection) -> None:
            nonlocal emitted
            if degraded:
                # An inline backend already hit a quarantined shard: every
                # later shard is past the gap and its detections can never
                # be part of this run's canonical prefix.
                return
            emitted += 1
            if sink is not None:
                write_detection(detection)
            if progress is not None:
                progress(emitted, plan.n_sites, detection)

        remaining = plan.shards[skip:]
        if not remaining:
            # The whole phase was recovered from the checkpoint: don't spin
            # up pool workers (and pickle the environment into them) for a
            # no-op replay.
            return prior

        inline = self.backend.streams_inline
        self.backend.prepare(self._context)
        install_supervision = getattr(self.backend, "set_supervision", None)
        if install_supervision is not None:
            install_supervision(policy, self._fault_event)
        install_plan = getattr(self.backend, "set_fault_plan", None)
        if install_plan is not None:
            install_plan(self.fault_plan)
        counts_before = self._supervision_counts()
        publish_sites = getattr(self.backend, "publish_sites", None)
        if publish_sites is not None:
            # The canonical order (shard concatenation) guarantees element
            # identity between the published list and every shard slice.
            publish_sites([p for shard in plan.shards for p in shard.publishers])
        raw_flush = getattr(sink, "flush", None) if sink is not None else None

        def _flush_with_retry() -> None:
            nonlocal sink_retries
            attempt = 0
            while True:
                try:
                    raw_flush()  # type: ignore[misc]
                    return
                except StorageError as exc:
                    # A failed flush keeps the sink's buffer, so retrying
                    # re-flushes the same payload.
                    if attempt >= policy.retries:
                        raise
                    attempt += 1
                    sink_retries += 1
                    self._fault_event(
                        "sink_retry", attempt=attempt, error=f"{type(exc).__name__}: {exc}"
                    )
                    time.sleep(policy.delay("sink-flush", attempt))

        sink_flush = _flush_with_retry if raw_flush is not None else None
        # Phase-cumulative counters for checkpointing (resumed prefix included).
        n_detections = len(prior.detections)
        pages_visited = prior.pages_visited
        sessions_started = prior.sessions_started
        timed_out = list(prior.timed_out_domains)
        checkpoint_every = self.config.checkpoint_every_shards
        boundaries = 0
        n_shards = len(plan.shards)
        # `execute` yields in completion order; shards are emitted (and
        # ultimately merged) in shard order, holding back any that finish
        # early. Every shard is yielded exactly once, so `ordered` is
        # complete when the loop ends.
        ordered: list[CrawlResult] = []
        early: dict[int, CrawlResult] = {}
        failures: dict[int, ShardFailure] = {}
        for shard_index, shard_result in self.backend.execute(
            remaining, crawl_day, emit if inline else None
        ):
            if isinstance(shard_result, ShardFailure):
                # Quarantined: the in-order walk below stops at this index,
                # so nothing at or past the first failure is emitted or
                # checkpointed. The backend keeps draining, discovering
                # every poison shard in one degraded pass.
                failures[shard_index] = shard_result
                if inline:
                    degraded = True
                continue
            early[shard_index] = shard_result
            at_boundary = False
            while skip + len(ordered) in early:
                ready = early.pop(skip + len(ordered))
                if not inline:
                    for detection in ready.detections:
                        emit(detection)
                ordered.append(ready)
                n_detections += len(ready.detections)
                pages_visited += ready.pages_visited
                sessions_started += ready.sessions_started
                timed_out.extend(ready.timed_out_domains)
                at_boundary = True
                # Flush once per in-order shard, not once per ready batch:
                # parallel backends hand back shards in completion order, and
                # a per-batch flush would make the columnar store's chunk
                # boundaries depend on arrival timing.  Per-shard flushing
                # keeps sink bytes a pure function of (shard contents,
                # flush_every) for every backend and worker count.
                if sink_flush is not None:
                    sink_flush()
            if at_boundary:
                if checkpoint is not None:
                    boundaries += 1
                    done = skip + len(ordered) == n_shards
                    checkpoint.record_progress(
                        crawl_day,
                        completed_shards=skip + len(ordered),
                        n_detections=n_detections,
                        pages_visited=pages_visited,
                        sessions_started=sessions_started,
                        timed_out_domains=tuple(timed_out),
                        sink_offset=sink.offset,  # type: ignore[union-attr]
                        persist=done or boundaries % checkpoint_every == 0,
                    )
        result = prior.merge(CrawlResult.merged(ordered))
        retries_after, rebuilds_after = self._supervision_counts()
        result.retries += retries_after - counts_before[0]
        result.pool_rebuilds += rebuilds_after - counts_before[1]
        result.sink_retries += sink_retries
        if failures:
            quarantined = tuple(failures[index] for index in sorted(failures))
            result.quarantined_shards = result.quarantined_shards + quarantined
            self._fault_event(
                "degraded",
                crawl_day=crawl_day,
                quarantined=[failure.shard_index for failure in quarantined],
            )
            if checkpoint is not None:
                # Persist the quarantine list (and the latest in-memory
                # progress, which may have been throttled) so a resume knows
                # exactly what is left to re-crawl.
                checkpoint.record_quarantine(crawl_day, quarantined)
        return result

    def crawl_domains(
        self,
        population: PublisherPopulation,
        domains: Iterable[str],
        *,
        crawl_day: int = 0,
        progress: ProgressCallback | None = None,
        sink: DetectionSinkLike | None = None,
        checkpoint: "CrawlCheckpointer | None" = None,
    ) -> CrawlResult:
        """Crawl a subset of a population selected by domain name."""
        publishers = [population.by_domain(domain) for domain in domains]
        return self.crawl(
            publishers,
            crawl_day=crawl_day,
            progress=progress,
            sink=sink,
            checkpoint=checkpoint,
        )
