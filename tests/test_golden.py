"""Absolute anchors: recorded digests of three small ``repro run`` outputs.

The relative suites (columnar vs scalar vs reference simulator) cannot see a
change to code every path shares, such as publisher generation, page
construction or the detector.  These digests can.  See
``tests/golden/bless.py`` for the configurations and how to re-bless.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

GOLDEN_DIR = Path(__file__).with_name("golden")
BLESS = "PYTHONPATH=src python tests/golden/bless.py"


def _load_bless():
    spec = importlib.util.spec_from_file_location("golden_bless", GOLDEN_DIR / "bless.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bless = _load_bless()
RECORD = json.loads(bless.DIGESTS_PATH.read_text())


def test_goldens_cover_every_config():
    assert set(RECORD["configs"]) == set(bless.CONFIGS)


def test_numpy_version_matches_the_blessed_one():
    if RECORD["numpy"] != np.__version__:
        pytest.fail(
            f"golden digests were blessed with numpy {RECORD['numpy']}, this is numpy "
            f"{np.__version__}; its streams may differ.  Run the rest of the golden "
            f"tests, and if they pass (or the change in output is understood) re-bless "
            f"with `{BLESS}` and move CI's numpy pin to match."
        )


@pytest.mark.parametrize("name", sorted(bless.CONFIGS))
def test_run_output_matches_golden_digest(name, tmp_path):
    expected = RECORD["configs"][name]
    actual = bless.compute_digests(name, tmp_path)
    for key in ("sink_sha256", "text_sha256"):
        assert actual[key] == expected[key], (
            f"{name}: {key} changed ({' '.join(expected['argv'])}).  Crawl output is "
            f"no longer byte-identical to the blessed one.  If the change is intended, "
            f"re-bless with `{BLESS}` and say why in the commit."
        )
