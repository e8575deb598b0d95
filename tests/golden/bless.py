"""Regenerate the golden digests checked by ``tests/test_golden.py``.

The goldens are *absolute* anchors: the sha256 of the detection sink and of
the printed ``table1 adoption facet fig12`` text for three small ``repro run``
configurations.  Every other equivalence suite compares one simulator path
with another, so a change to code all paths share (publisher generation,
page construction, ``derive_rng``, the detector) moves both sides at once
and passes them.  Only a recorded digest can see such a change.

Usage, from the repository root::

    PYTHONPATH=src python tests/golden/bless.py

Re-bless only when a change is *meant* to alter crawl output (or when the
installed numpy differs from the recorded one and its streams were checked
to be unchanged), and say why in the commit.  The digests depend on numpy's
``SeedSequence``/PCG64 and distribution algorithms, so the numpy version is
recorded beside them, and CI installs exactly that version: a re-bless under
a different numpy also moves the pin in ``.github/workflows/ci.yml``.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

DIGESTS_PATH = Path(__file__).with_name("digests.json")

FIGURES = ("table1", "adoption", "facet", "fig12")

#: name -> (``repro run`` arguments, sink suffix).  Seed 8 at 500 sites has
#: the most hybrid and client-side sites of seeds 1-79 (35 hybrid, 16
#: client-side of 78 HB sites), plus multi-device slot duplicates and
#: misconfigured wrappers.
CONFIGS: dict[str, tuple[tuple[str, ...], str]] = {
    "sites600-days0-seed42": (("--sites", "600", "--days", "0", "--seed", "42"), ".jsonl"),
    "sites400-days3-seed7-columnar": (
        ("--sites", "400", "--days", "3", "--seed", "7", "--store-format", "columnar"),
        ".hbc",
    ),
    "sites500-days2-seed8-hybrid": (("--sites", "500", "--days", "2", "--seed", "8"), ".jsonl"),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def compute_digests(name: str, workdir: Path) -> dict[str, str]:
    """Run one configuration in-process and digest its sink and printed text.

    A columnar sink is converted to JSONL first: columnar file bytes depend
    on the shard plan, converted JSONL never does.
    """
    from repro.cli import main

    args, suffix = CONFIGS[name]
    sink = workdir / f"{name}{suffix}"
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["run", *args, "--save", str(sink), "--figures", *FIGURES])
    if code != 0:
        raise RuntimeError(f"repro run {' '.join(args)} exited {code}")
    text = out.getvalue().replace(str(sink), "<sink>")
    jsonl = sink
    if suffix != ".jsonl":
        jsonl = workdir / f"{name}.jsonl"
        with redirect_stdout(io.StringIO()):
            code = main(["convert", str(sink), str(jsonl)])
        if code != 0:
            raise RuntimeError(f"repro convert {sink} exited {code}")
    return {"sink_sha256": _sha256(jsonl.read_bytes()), "text_sha256": _sha256(text.encode())}


def bless() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        configs = {
            name: {"argv": ["run", *CONFIGS[name][0], "--figures", *FIGURES],
                   **compute_digests(name, Path(tmp))}
            for name in CONFIGS
        }
    return {"numpy": np.__version__, "configs": configs}


def main() -> int:
    record = bless()
    DIGESTS_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(record['configs'])} golden digests (numpy {record['numpy']}) "
          f"to {DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
