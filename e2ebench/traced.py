"""Run one ``repro.cli`` command with wall-clock spans around each layer.

Usage::

    PYTHONPATH=src python e2ebench/traced.py TRACE.json -- run --sites 400 ...

The wrappers are installed from outside the package: each named public
entry point of ``cli``, ``ecosystem``, ``detector``, ``crawler`` and
``analysis`` is replaced by a function that records a span (name, start,
end, parent) around the original call.  Spans stay in memory and are written
to ``TRACE.json`` when the command returns; the benchmark computes layer
times and self times from them with :func:`layer_metrics`.

Only the main thread of this process is traced.  Process-pool workers are
forked with the wrappers installed, but what they record stays in the
workers, so a pool run reports parent-side spans only.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import threading
import time


class Tracer:
    """Spans and counters of one process, kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent_index]
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._main = threading.get_ident()

    def enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def add(self, counter: str, value: float = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def traced(self) -> bool:
        return threading.get_ident() == self._main

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``after(result, args)`` runs on the result, outside the span, to
        update counters.  Generator functions get one span per resumption,
        so time the caller spends between items is not charged to them.
        """
        raw = inspect.getattr_static(owner, attr)
        binder = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        original = raw.__func__ if binder else getattr(owner, attr)
        tracer = self

        if inspect.isgeneratorfunction(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                iterator = original(*args, **kwargs)
                if not tracer.traced():
                    return iterator
                return tracer._resumptions(iterator, name)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if not tracer.traced():
                    return original(*args, **kwargs)
                index = tracer.enter(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.exit(index)
                if after is not None:
                    after(result, args)
                return result

        setattr(owner, attr, binder(wrapper) if binder else wrapper)

    def _resumptions(self, iterator, name: str):
        while True:
            index = self.enter(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.exit(index)
            self.add(name + ".items")
            yield item

    def dump(self, path: str, **extra) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counters": self.counters, **extra}, handle)


def install(tracer: Tracer) -> list:
    """Wrap every layer entry point; returns the datasets list to inspect."""
    import repro.cli as cli
    from repro.analysis.dataset import CrawlDataset
    from repro.crawler.checkpoint import CrawlCheckpointer
    from repro.crawler.colstore import ColumnarDetectionSink
    from repro.crawler.engine import CrawlEngine, ProcessPoolBackend, SerialBackend
    from repro.crawler.storage import DetectionSink
    from repro.detector.detector import HBDetector
    from repro.ecosystem import columnar
    from repro.ecosystem.profiles import SiteProfileTable
    from repro.experiments.runner import ExperimentRunner

    datasets: list = []

    def keep_dataset(dataset, _args) -> None:
        datasets.append(dataset)

    def count_crawl(result, _args) -> None:
        tracer.add("pages", result.pages_visited)
        tracer.add("hb_detections", sum(1 for d in result.detections if d.hb_detected))
        tracer.add("retries", result.retries)
        tracer.add("pool_rebuilds", result.pool_rebuilds)

    wrap = tracer.wrap
    wrap(ExperimentRunner, "build_population", "ecosystem.population")
    wrap(ExperimentRunner, "build_environment", "ecosystem.environment")
    wrap(ExperimentRunner, "build_detector", "detector.build")
    wrap(SiteProfileTable, "precompile", "ecosystem.compile")
    wrap(columnar, "_sims_for", "ecosystem.compile")
    wrap(columnar, "simulate_shard_columnar", "ecosystem.simulate_shard")
    wrap(columnar, "_simulate_hb_page", "ecosystem.simulate_hb")
    wrap(columnar, "_simulate_waterfall_page", "ecosystem.simulate_waterfall")
    wrap(HBDetector, "detect_from_observations", "detector.detect")
    wrap(CrawlEngine, "crawl", "crawler.crawl", after=count_crawl)
    wrap(SerialBackend, "execute", "crawler.execute")
    wrap(ProcessPoolBackend, "prepare", "crawler.pool_prepare")
    wrap(ProcessPoolBackend, "publish_sites", "crawler.pool_publish")
    wrap(ProcessPoolBackend, "execute", "crawler.pool_execute")
    wrap(ProcessPoolBackend, "shutdown", "crawler.pool_shutdown")
    for sink in (DetectionSink, ColumnarDetectionSink):
        wrap(sink, "write", "crawler.sink_write")
        _wrap_flush(tracer, sink, "flush")
        _wrap_flush(tracer, sink, "close")
    wrap(CrawlCheckpointer, "begin_phase", "crawler.checkpoint")
    wrap(CrawlCheckpointer, "record_progress", "crawler.checkpoint")
    wrap(CrawlCheckpointer, "save", "crawler.checkpoint_save")
    wrap(CrawlDataset, "from_path", "analysis.load", after=keep_dataset)
    wrap(CrawlDataset, "from_detections", "analysis.dataset", after=keep_dataset)
    wrap(cli, "compute_metric", "analysis.metric")
    return datasets


def _wrap_flush(tracer: Tracer, owner, attr: str) -> None:
    """Sink flush/close: a span plus the bytes the call added to the file."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(self, *args, **kwargs):
        if not tracer.traced():
            return original(self, *args, **kwargs)
        before = _size(self.path)
        index = tracer.enter("crawler.sink_flush")
        try:
            return original(self, *args, **kwargs)
        finally:
            tracer.exit(index)
            written = _size(self.path) - before
            if written > 0:
                tracer.add("sink_flushes")
                tracer.add("sink_bytes", written)

    setattr(owner, attr, wrapper)


def _size(path) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


#: Per-layer metrics derived from the spans, with their units.
LAYER_UNITS = {
    "process.start_s": "s",
    "process.exit_s": "s",
    "cli.import_s": "s",
    "ecosystem.population_s": "s",
    "ecosystem.compile_s": "s",
    "ecosystem.compile_calls": "count",
    "ecosystem.simulate_hb_s": "s",
    "ecosystem.hb_pages": "count",
    "ecosystem.simulate_waterfall_s": "s",
    "ecosystem.waterfall_pages": "count",
    "ecosystem.simulate_self_s": "s",
    "detector.detect_s": "s",
    "detector.hb_ratio": "share",
    "crawler.shards": "count",
    "crawler.pages": "count",
    "crawler.sink_write_s": "s",
    "crawler.sink_flush_s": "s",
    "crawler.sink_flushes": "count",
    "crawler.sink_bytes": "B",
    "crawler.checkpoint_s": "s",
    "crawler.checkpoint_saves": "count",
    "crawler.pool_prepare_s": "s",
    "crawler.pool_publish_s": "s",
    "crawler.pool_execute_s": "s",
    "crawler.retries": "count",
    "crawler.pool_rebuilds": "count",
    "analysis.load_s": "s",
    "analysis.metrics_s": "s",
    "analysis.index_builds": "count",
    "runner.other_s": "s",
    "trace.coverage": "share",
    "trace.overhead": "share",
}

#: Time metrics as (metric, span names, how).  "outer" sums spans with no
#: ancestor of the same family (nested re-entry is not counted twice);
#: "self" subtracts the time the span's children cover.
_TIMED = (
    ("process.start_s", ("process.start",), "outer"),
    ("process.exit_s", ("process.exit",), "outer"),
    ("cli.import_s", ("cli.import",), "outer"),
    ("ecosystem.population_s", ("ecosystem.population",), "outer"),
    ("ecosystem.compile_s", ("ecosystem.compile",), "outer"),
    ("ecosystem.simulate_hb_s", ("ecosystem.simulate_hb",), "self"),
    ("ecosystem.simulate_waterfall_s", ("ecosystem.simulate_waterfall",), "outer"),
    ("ecosystem.simulate_self_s", ("ecosystem.simulate_shard",), "self"),
    ("detector.detect_s", ("detector.detect",), "outer"),
    ("crawler.sink_write_s", ("crawler.sink_write",), "self"),
    ("crawler.sink_flush_s", ("crawler.sink_flush",), "outer"),
    ("crawler.checkpoint_s", ("crawler.checkpoint", "crawler.checkpoint_save"), "outer"),
    ("crawler.pool_prepare_s", ("crawler.pool_prepare",), "outer"),
    ("crawler.pool_publish_s", ("crawler.pool_publish",), "outer"),
    ("crawler.pool_execute_s", ("crawler.pool_execute",), "outer"),
    ("analysis.load_s", ("analysis.load",), "outer"),
    ("analysis.metrics_s", ("analysis.metric",), "outer"),
)
_CALLS = (
    ("ecosystem.compile_calls", "ecosystem.compile"),
    ("ecosystem.hb_pages", "ecosystem.simulate_hb"),
    ("ecosystem.waterfall_pages", "ecosystem.simulate_waterfall"),
    ("crawler.checkpoint_saves", "crawler.checkpoint_save"),
)
_COUNTERS = (
    ("crawler.pages", "pages"),
    ("crawler.sink_flushes", "sink_flushes"),
    ("crawler.sink_bytes", "sink_bytes"),
    ("crawler.retries", "retries"),
    ("crawler.pool_rebuilds", "pool_rebuilds"),
)
#: The command's own span: what lies outside its children is "other" time.
ROOT = "cli.main"


def parent_side(trace: dict, started: float, ended: float) -> list:
    """The command's spans plus the two only its parent can time."""
    spans = trace["spans"]
    return [
        *spans,
        ["process.start", started, spans[0][1], -1],
        ["process.exit", trace["main_end"], ended, -1],
    ]


def span_table(spans: list) -> dict[str, dict[str, float]]:
    """Calls, inclusive time and self time per span name."""
    children = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    table: dict[str, dict[str, float]] = {}
    for index, (name, start, end, _) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - children[index]
    return table


def _outer(spans: list, names: tuple[str, ...]) -> float:
    total = 0.0
    for name, start, end, parent in spans:
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total


def layer_metrics(commands: list[tuple[dict, float, float]]) -> dict[str, float]:
    """Per-layer metrics summed over traced commands.

    ``commands`` holds each command's dumped trace with the moments the
    parent started it and saw it exit, on the same monotonic clock as the
    spans.  Two spans only the parent can see are added: ``process.start``
    (interpreter start-up, up to the first span) and ``process.exit`` (from
    the end of the command to the exit of the process: writing the trace
    and interpreter teardown).  Coverage is the share of the wall time inside
    named spans (those two, the import span and the root span's children);
    the rest -- argument parsing and the command's own glue -- is
    ``runner.other_s``.
    """
    metrics = dict.fromkeys(LAYER_UNITS, 0.0)
    wall = covered = hb = 0.0
    for trace, started, ended in commands:
        spans, counters = parent_side(trace, started, ended), trace["counters"]
        table = span_table(spans)
        for metric, names, how in _TIMED:
            if how == "outer":
                metrics[metric] += _outer(spans, names)
            else:
                metrics[metric] += sum(table[n]["self_s"] for n in names if n in table)
        for metric, name in _CALLS:
            metrics[metric] += table.get(name, {"calls": 0})["calls"]
        for metric, counter in _COUNTERS:
            metrics[metric] += counters.get(counter, 0)
        metrics["crawler.shards"] += sum(v for k, v in counters.items() if k.endswith("execute.items"))
        metrics["analysis.index_builds"] += trace.get("index_builds", 0)
        hb += counters.get("hb_detections", 0)
        roots = {i for i, span in enumerate(spans) if span[0] == ROOT}
        covered += sum(
            end - start
            for name, start, end, parent in spans
            if name != ROOT and (parent < 0 or parent in roots)
        )
        wall += ended - started
    pages = metrics["crawler.pages"]
    metrics["detector.hb_ratio"] = hb / pages if pages else 0.0
    metrics["runner.other_s"] = wall - covered
    metrics["trace.coverage"] = covered / wall if wall else 0.0
    return metrics


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced.py TRACE.json -- CLI-ARGS...", file=sys.stderr)
        return 2
    out, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    index = tracer.enter("cli.import")
    import repro.cli

    tracer.exit(index)
    datasets = install(tracer)
    index = tracer.enter("cli.main")
    try:
        code = repro.cli.main(cli_args)
    finally:
        tracer.exit(index)
        builds = sum(d.index_stats()["builds"] for d in datasets)
        tracer.dump(out, index_builds=builds, main_end=time.perf_counter())
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
