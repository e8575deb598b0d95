"""Cold end-to-end crawl benchmark: ``repro run --save`` then ``repro analyze``.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload discovery --seed 1 --seconds 45 --trace 0

Every timed command is a fresh ``python -m repro.cli`` subprocess with
``PYTHONPATH=src``, so import, population, compile, crawl, sink and analysis
costs are all paid the way a user pays them.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the same commands under
``traced.py`` and reports the per-layer split instead.  Every sink is checked
against the reference simulator before a result counts.  The last line of
standard output is one JSON object; a full report (samples, host facts,
layer table) is written under ``.e2ebench/reports/`` for ``compare.py``.

See ``README.md`` in this directory for the workloads and metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import traced

HERE = Path(__file__).resolve().parent
#: Scratch and cache directory, relative to the checkout root.
STATE_DIR = ".e2ebench"

#: Every dataset-only artefact ``analyze`` can render (``repro list``).
OFFLINE_ARTEFACTS = (
    "table1", "adoption", "facet",
    *(f"fig{n:02d}" for n in range(8, 25)),
)

#: Cold setup subprocesses per run; setup_s is their median.
SETUP_REPEATS = 5
#: Cold analyze commands per iteration.  An analyze takes under a second, so
#: its median can afford more samples than the run's.
ANALYZE_REPEATS = 3
#: The calibration loop's typical time on the 2-CPU host this benchmark was
#: sized on.  Every timing is scaled to this host speed (see host_loop_s).
REFERENCE_LOOP_S = 2.0e-3
#: Timings of the calibration loop per CPU in one host_loop_s() probe.
HOST_LOOP_REPEATS = 11
#: Every command of a run is killed past this many seconds from its start,
#: so the whole run ends within 180 s even if a command hangs.
RUN_DEADLINE_S = 170.0

#: The probe a cold user pays before the first page: import repro and build
#: the population, auction environment and detector.  Prints the number of
#: HB sites, which sizes the re-crawl workloads.
SETUP_PROBE = """
import sys
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentRunner
runner = ExperimentRunner(ExperimentConfig(total_sites=int(sys.argv[1]), seed=int(sys.argv[2])))
population = runner.build_population()
runner.build_environment(population)
runner.build_detector(population)
print(len(population.hb_publishers()))
"""


@dataclass(frozen=True)
class Workload:
    """One CLI-shaped campaign.

    With ``hb_page_budget`` set, the number of re-crawl days is derived from
    the seed's population: enough days for the HB sites found by discovery
    to be visited about ``hb_page_budget`` times.  That keeps the work per
    run steady across seeds (the HB share of a population is binomial), the
    way the paper's campaign ran until it had collected its auctions.
    """

    name: str
    sites: int
    days: int = 1
    hb_page_budget: int | None = None
    store: str = "jsonl"
    backend: str = "serial"
    workers: int = 1
    checkpoint: bool = False
    figures: tuple[str, ...] = ("table1",)

    def days_for(self, hb_sites: int) -> int:
        if self.hb_page_budget is None:
            return self.days
        return max(1, round(self.hb_page_budget / max(hb_sites, 1)))

    @property
    def sink_suffix(self) -> str:
        return ".hbc" if self.store == "columnar" else ".jsonl"

    def run_args(self, seed: int, days: int, sink: Path, checkpoint: Path) -> list[str]:
        args = [
            "run", "--sites", str(self.sites), "--days", str(days), "--seed", str(seed),
            "--backend", self.backend, "--workers", str(self.workers),
            "--store-format", self.store, "--save", str(sink),
        ]
        if self.checkpoint:
            args += ["--checkpoint", str(checkpoint)]
        return args + ["--figures", *self.figures]

    def reference_args(self, seed: int, days: int, sink: Path) -> list[str]:
        """The reference simulator: serial, page-at-a-time, slow path, JSONL."""
        return [
            "run", "--sites", str(self.sites), "--days", str(days), "--seed", str(seed),
            "--slow-path", "--no-columnar", "--save", str(sink),
            "--figures", *self.figures,
        ]

    def analyze_args(self, sink: Path) -> list[str]:
        # The run's own figures first, so analyze's output starts with
        # exactly the block the run printed.
        rest = [name for name in OFFLINE_ARTEFACTS if name not in self.figures]
        return ["analyze", str(sink), "--artifact", *self.figures, *rest]


#: Why each workload exists is in README.md; sizes fit a 45 s run on 2 CPUs.
WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("discovery", sites=3000, days=1),
        Workload(
            "campaign", sites=2000, hb_page_budget=2500, store="columnar",
            checkpoint=True, figures=("table1", "fig12"),
        ),
        Workload(
            "pool", sites=2000, hb_page_budget=2500, backend="process", workers=2,
            figures=("table1", "fig12"),
        ),
    )
}

#: End-to-end metrics: name -> unit (BENCHMARK.json lists all but error_rate,
#: which is 0 on a correct run and is carried by attempted/failed instead).
END_TO_END_UNITS = {
    "wall_s": "s",
    "pages_per_s": "pages/s",
    "analyze_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sink_bytes_per_page": "B/page",
    "error_rate": "share",
}


@dataclass
class CommandResult:
    code: int
    wall_s: float
    started: float
    ended: float
    stdout: str
    stderr: str
    peak_rss_mb: float
    host_s: float = REFERENCE_LOOP_S  # host_loop_s() around the command


class BenchmarkError(Exception):
    """The benchmark cannot run here at all (no result is printed)."""


@dataclass
class Session:
    """One benchmark process: where it runs and what went wrong."""

    root: Path
    seed: int
    scratch: Path = field(init=False)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not (self.root / "src" / "repro" / "cli.py").is_file():
            raise BenchmarkError(f"no repro sources under {self.root / 'src'}; run from the repository root")
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.scratch = self.root / STATE_DIR / f"run-{os.getpid()}"
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.root / "src"), os.environ.get("PYTHONPATH")) if p
        )

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def command(self, argv: list[str], label: str) -> CommandResult:
        """Run one counted subprocess; a non-zero exit is recorded as failed."""
        self.attempted += 1
        timeout = max(self.deadline - time.perf_counter(), 1.0)
        before = host_loop_s()
        result = run_process([sys.executable, *argv], self.root, self.env, self.scratch, timeout)
        result.host_s = (before + host_loop_s()) / 2
        if result.code != 0:
            tail = result.stderr.strip().splitlines()[-1:] or [""]
            self.fail(f"{label} exited {result.code}: {tail[0]}")
        return result

    def cli(self, args: list[str], label: str) -> CommandResult:
        return self.command(["-m", "repro.cli", *args], label)

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


# ---------------------------------------------------------------------------
# Host speed
#
# The benchmark runs on a few CPUs of a shared host.  Other tenants slow a
# CPU by up to 1.6x, sometimes for a fraction of a second and sometimes for
# minutes (README.md, *Host speed*).  The 2-CPU guest it was built on cannot
# see this: it reports no steal time and has no hardware counters.  So every
# command is bracketed by a fixed pure-Python loop timed on each CPU, and its
# wall time is scaled to the speed at which that loop takes REFERENCE_LOOP_S.


def _calibration_loop() -> None:
    table: dict[int, str] = {}
    for i in range(4000):
        key = i % 251
        table[key] = f"{key}:{len(table.get(key, ''))}"


def host_loop_s() -> float:
    """Seconds the calibration loop takes now: per CPU the median of
    HOST_LOOP_REPEATS timings, then the mean over the usable CPUs."""
    cpus = os.sched_getaffinity(0)
    per_cpu = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times = []
            for _ in range(HOST_LOOP_REPEATS):
                start = time.perf_counter()
                _calibration_loop()
                times.append(time.perf_counter() - start)
            per_cpu.append(statistics.median(times))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(per_cpu)


def at_reference_speed(wall_s: float, loop_s: float) -> float:
    """``wall_s`` measured while the calibration loop took ``loop_s``,
    scaled to the reference host speed."""
    return wall_s * REFERENCE_LOOP_S / loop_s


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def run_process(argv: list[str], cwd: Path, env: dict, scratch: Path, timeout: float) -> CommandResult:
    """Run ``argv`` to completion, timing it and reading its peak RSS.

    ``wait4`` reports the largest resident set of the child and of every
    descendant it waited for, so a process-pool run's workers are included.
    Past ``timeout`` seconds the command's whole process group is killed.
    """
    out_path, err_path = scratch / "stdout.txt", scratch / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        process = subprocess.Popen(
            argv, cwd=cwd, env=env, stdout=out, stderr=err, start_new_session=True,
        )
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _, status, usage = os.wait4(process.pid, 0)
        except _Timeout:
            os.killpg(process.pid, signal.SIGKILL)
            _, status, usage = os.wait4(process.pid, 0)
            err.write(f"killed after {timeout:.0f} s\n".encode())
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        end = time.perf_counter()
    process.returncode = os.waitstatus_to_exitcode(status)
    return CommandResult(
        code=process.returncode,
        wall_s=end - start,
        started=start,
        ended=end,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )


def sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def source_digest(root: Path) -> str:
    """Digest of the package sources, so a cached reference matches its code."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


_STREAMED = re.compile(r"^Streamed (\d+) detections to .*\n\n", re.MULTILINE)


def split_run_output(stdout: str) -> tuple[int, str] | None:
    """``run --save`` prints a "Streamed N detections" header, then artefacts."""
    match = _STREAMED.match(stdout)
    if match is None:
        return None
    return int(match.group(1)), stdout[match.end():]


# ---------------------------------------------------------------------------
# Host facts


def host_facts(root: Path, seed: int) -> dict:
    import numpy

    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(root),
        "source_digest": source_digest(root),
        "workload_seed": seed,
    }


def git_commit(root: Path) -> str:
    """HEAD's commit (benchmark checkouts may not be git repositories)."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "not a git checkout"


# ---------------------------------------------------------------------------
# Reference digests (untimed, cached)


def reference(session: Session, workload: Workload, days: int, numpy_version: str, src: str) -> dict | None:
    """Digest and printed artefacts of the reference simulator's sink.

    Cached under ``.e2ebench/cache`` by config, seed, numpy version and
    source digest; ``campaign`` and ``pool`` share one entry.
    """
    key_fields = [workload.reference_args(session.seed, days, Path("ref.jsonl")), numpy_version, src]
    key = hashlib.sha256(json.dumps(key_fields).encode()).hexdigest()[:24]
    cache = session.root / STATE_DIR / "cache" / f"ref-{key}.json"
    if cache.is_file():
        return json.loads(cache.read_text())
    sink = session.scratch / "reference.jsonl"
    result = session.cli(workload.reference_args(session.seed, days, sink), "reference run")
    parsed = split_run_output(result.stdout) if result.code == 0 else None
    if parsed is None:
        if result.code == 0:
            session.fail("reference run printed no 'Streamed' header")
        return None
    entry = {"sha256": sha256_of(sink), "pages": parsed[0], "artefacts": parsed[1]}
    sink.unlink()
    cache.parent.mkdir(parents=True, exist_ok=True)
    cache.write_text(json.dumps(entry))
    return entry


# ---------------------------------------------------------------------------
# One iteration: cold run, cold analyze, output checks


@dataclass
class Iteration:
    run_s: float  # wall time
    analyze_s: list[float]  # wall time of each cold analyze of this iteration's sink
    run_host_s: float  # host_loop_s() around each command
    analyze_host_s: list[float]
    pages: int
    peak_rss_mb: float
    sink_bytes: int
    layers: dict | None = None  # per-layer metrics (traced iterations)
    spans: dict | None = None  # calls/total/self time per span name, per command


class Gate:
    """Checks every sink and printed artefact against the reference."""

    def __init__(self, session: Session, workload: Workload, ref: dict | None) -> None:
        self.session = session
        self.workload = workload
        self.ref = ref
        self.verified: set[str] = set()  # columnar digests already converted and checked

    def check_run(self, run: CommandResult, sink: Path) -> tuple[int, str] | None:
        """Returns (pages, printed artefacts) when the run's outputs match."""
        session = self.session
        if self.ref is None:
            session.fail("no reference digest to check against")
            return None
        parsed = split_run_output(run.stdout)
        if parsed is None:
            session.fail("run printed no 'Streamed' header")
            return None
        pages, artefacts = parsed
        ok = self._sink_matches(sink)
        if pages != self.ref["pages"]:
            session.fail(f"run wrote {pages} detections, reference {self.ref['pages']}")
            ok = False
        if artefacts != self.ref["artefacts"]:
            session.fail("run printed artefacts that differ from the reference run's")
            ok = False
        return parsed if ok else None

    def check_analyze(self, analyze: CommandResult, artefacts: str) -> bool:
        if analyze.stdout.startswith(artefacts):
            return True
        self.session.fail(f"analyze {'/'.join(self.workload.figures)} text differs from what run printed")
        return False

    def _sink_matches(self, sink: Path) -> bool:
        session = self.session
        digest = sha256_of(sink)
        if self.workload.store != "columnar":
            if digest != self.ref["sha256"]:
                session.fail(f"sink sha256 {digest[:12]} != reference {self.ref['sha256'][:12]}")
                return False
            return True
        if digest in self.verified:
            return True
        converted = session.scratch / "converted.jsonl"
        converted.unlink(missing_ok=True)
        if session.cli(["convert", str(sink), str(converted)], "convert").code != 0:
            return False
        converted_digest = sha256_of(converted)
        converted.unlink()
        if converted_digest != self.ref["sha256"]:
            session.fail(
                f"converted sink sha256 {converted_digest[:12]} != reference {self.ref['sha256'][:12]}"
            )
            return False
        self.verified.add(digest)
        return True


def iteration(session: Session, workload: Workload, days: int, gate: Gate, trace: bool) -> Iteration | None:
    scratch = session.scratch
    sink = scratch / f"sink{workload.sink_suffix}"
    checkpoint = scratch / "crawl.ckpt"
    for stale in (sink, checkpoint):
        stale.unlink(missing_ok=True)
    run_args = workload.run_args(session.seed, days, sink, checkpoint)
    analyze_args = workload.analyze_args(sink)
    if trace:
        run_trace, analyze_trace = scratch / "run.trace.json", scratch / "analyze.trace.json"
        tracer = str(HERE / "traced.py")
        run = session.command([tracer, str(run_trace), "--", *run_args], "traced run")
    else:
        run = session.cli(run_args, "run")
    if run.code != 0:
        return None
    checked = gate.check_run(run, sink)
    if checked is None:
        return None
    pages, artefacts = checked
    analyzes, analyze_hosts = [], []
    for _ in range(1 if trace else ANALYZE_REPEATS):
        if trace:
            analyze = session.command([tracer, str(analyze_trace), "--", *analyze_args], "traced analyze")
        else:
            analyze = session.cli(analyze_args, "analyze")
        if analyze.code != 0 or not gate.check_analyze(analyze, artefacts):
            return None
        analyzes.append(analyze.wall_s)
        analyze_hosts.append(analyze.host_s)
    done = Iteration(run.wall_s, analyzes, run.host_s, analyze_hosts, pages, run.peak_rss_mb, sink.stat().st_size)
    if trace:
        commands = [
            (json.loads(run_trace.read_text()), run.started, run.ended),
            (json.loads(analyze_trace.read_text()), analyze.started, analyze.ended),
        ]
        done.layers = traced.layer_metrics(commands)
        done.spans = {
            label: traced.span_table(traced.parent_side(*command))
            for label, command in zip(("run", "analyze"), commands)
        }
    return done


# ---------------------------------------------------------------------------
# One benchmark run


def measure(session: Session, workload: Workload, seconds: float, trace: bool) -> dict:
    """Warm up, set up, fetch the reference, then iterate for ``seconds``."""
    began = time.perf_counter()
    facts = host_facts(session.root, session.seed)
    session.attempted += 1
    compiled = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src"], cwd=session.root,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    if compiled.returncode != 0:
        session.fail(f"compileall exited {compiled.returncode}")
    # Untimed warm-up (imports, page cache); it also counts the HB sites.
    probe = ["-c", SETUP_PROBE, str(workload.sites), str(session.seed)]
    warm = session.command(probe, "warm-up probe")
    hb_sites = int(warm.stdout.strip() or 0) if warm.code == 0 else 0
    days = workload.days_for(hb_sites)

    warmed = time.perf_counter()
    setup: list[CommandResult] = []
    if not trace:
        for _ in range(SETUP_REPEATS):
            result = session.command(probe, "setup probe")
            if result.code == 0:
                setup.append(result)

    set_up = time.perf_counter()
    ref = reference(session, workload, days, facts["numpy"], facts["source_digest"])
    gate = Gate(session, workload, ref)
    plain: list[Iteration] = []
    traced_runs: list[Iteration] = []
    start = time.perf_counter()
    rounds = 0
    while True:
        rounds += 1
        for is_traced in ((False, True) if trace else (False,)):
            done = iteration(session, workload, days, gate, is_traced)
            if done is not None:
                (traced_runs if is_traced else plain).append(done)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            break

    report = {
        "workload": workload.name,
        "seed": session.seed,
        "trace": int(trace),
        "seconds": seconds,
        "phase_s": {
            "warm_up": warmed - began, "setup": set_up - warmed,
            "reference": start - set_up, "measure": time.perf_counter() - start,
        },
        "host": facts,
        "config": {
            "sites": workload.sites, "days": days, "hb_sites": hb_sites,
            "run_args": workload.run_args(session.seed, days, Path("SINK"), Path("CKPT")),
            "reference_args": workload.reference_args(session.seed, days, Path("REF")),
        },
        "reference": ref and {"sha256": ref["sha256"], "pages": ref["pages"]},
        "setup_s_samples": [result.wall_s for result in setup],
        "setup_host_s": [result.host_s for result in setup],
        "samples": [vars(item) for item in plain],
    }
    if trace:
        report["traced_samples"] = [vars(item) for item in traced_runs]
        report["metrics"] = per_layer(plain, traced_runs)
    else:
        report["timings"] = timing_summary(plain, setup)
        report["metrics"] = end_to_end(plain, report["timings"])
    report["attempted"] = session.attempted
    report["failed"] = len(session.failures)
    report["failures"] = session.failures
    if not trace:
        report["metrics"]["error_rate"] = report["failed"] / session.attempted
    return report


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _timings(samples: list[Iteration], setup: list[CommandResult]) -> dict:
    """(wall_s, host_loop_s) of every timed command, by what it timed."""
    return {
        "run_s": [(s.run_s, s.run_host_s) for s in samples],
        "analyze_s": [pair for s in samples for pair in zip(s.analyze_s, s.analyze_host_s)],
        "setup_s": [(result.wall_s, result.host_s) for result in setup],
    }


def timing_summary(samples: list[Iteration], setup: list[CommandResult]) -> dict:
    """Per timing: sample count, median wall time, median host loop time and
    median time at the reference host speed (the reported metric)."""
    return {
        name: {
            "count": len(pairs),
            "wall_s": _median([wall for wall, _ in pairs]),
            "host_loop_s": _median([loop for _, loop in pairs]),
            "at_reference_s": _median([at_reference_speed(*pair) for pair in pairs]),
        }
        for name, pairs in _timings(samples, setup).items()
    }


def end_to_end(samples: list[Iteration], timings: dict) -> dict:
    """Medians over the run's samples, each at the reference host speed."""
    run_s, analyze_s, setup_s = (
        timings[name]["at_reference_s"] for name in ("run_s", "analyze_s", "setup_s")
    )
    return {
        "wall_s": run_s + analyze_s,
        "pages_per_s": _median([s.pages / at_reference_speed(s.run_s, s.run_host_s) for s in samples]),
        "analyze_s": analyze_s,
        "setup_s": setup_s,
        "peak_rss_mb": _median([s.peak_rss_mb for s in samples]),
        "sink_bytes_per_page": _median([s.sink_bytes / s.pages for s in samples]),
    }


def per_layer(plain: list[Iteration], traced_runs: list[Iteration]) -> dict:
    metrics = {
        name: _median([s.layers[name] for s in traced_runs])
        for name in traced.LAYER_UNITS
        if name != "trace.overhead"
    }
    def wall(runs: list[Iteration]) -> float:
        return _median([
            at_reference_speed(s.run_s, s.run_host_s) + at_reference_speed(s.analyze_s[0], s.analyze_host_s[0])
            for s in runs
        ])

    untraced = wall(plain)
    metrics["trace.overhead"] = wall(traced_runs) / untraced - 1 if untraced else 0.0
    return metrics


# ---------------------------------------------------------------------------
# Entry point


def print_report(report: dict, path: Path) -> None:
    host = report["host"]
    config = report["config"]
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}")
    print(
        f"host: nproc={host['nproc']} cpu={host['cpu_model']!r} python={host['python']} "
        f"numpy={host['numpy']} commit={host['git_commit'][:12]}"
    )
    print(f"config: {config['sites']} sites, {config['days']} re-crawl days ({config['hb_sites']} HB sites)")
    print(f"samples: {len(report['samples'])} timed iterations"
          + (f", {len(report['traced_samples'])} traced" if report["trace"] else ""))
    units = traced.LAYER_UNITS if report["trace"] else END_TO_END_UNITS
    for name, value in report["metrics"].items():
        print(f"  {name:<34} {value:>14.6g} {units[name]}")
    if report["trace"] and report["workload"] == "pool":
        print("  (pool: worker processes are not traced; per-layer figures are parent-side only)")
    for name, timing in report.get("timings", {}).items():
        print(
            f"  {name}: median {timing['wall_s']:.4g} s wall, {timing['at_reference_s']:.4g} s at"
            f" reference speed (host loop {timing['host_loop_s'] * 1e3:.3g} ms) over {timing['count']} samples"
        )
    for failure in report["failures"]:
        print(f"FAILED: {failure}")
    print(f"report: {path}")


def result_line(report: dict, declared: dict[str, str]) -> str:
    metrics = {
        name: {"value": report["metrics"][name], "unit": unit} for name, unit in declared.items()
    }
    return json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    })


def declared_metrics(root: Path, trace: bool) -> dict[str, str]:
    """The metrics BENCHMARK.json names for this mode, with their units."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    trace = bool(args.trace)
    try:
        declared = declared_metrics(root, trace)
        session = Session(root, args.seed)
    except (BenchmarkError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = measure(session, WORKLOADS[args.workload], args.seconds, trace)
    finally:
        session.close()
    reports = root / STATE_DIR / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    path = reports / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    path.write_text(json.dumps(report, indent=1))
    print_report(report, path)
    print(result_line(report, declared))
    return 0 if report["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
