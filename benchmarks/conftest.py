"""Shared configuration for the benchmark suite.

Every bench regenerates one table or figure of the paper ("Community
Search: A Meta-Learning Approach", arXiv 2201.00288, Tables II–IV and
Figs. 3–5; ``repro.eval.experiments`` maps each to its builder) and
times a representative unit of work with pytest-benchmark.  The scale is
controlled by the ``REPRO_BENCH_PROFILE`` environment variable:

* ``smoke`` (default) — minutes on CPU; method *ordering* is preserved;
* ``fast``  — clearer separations, tens of minutes;
* ``paper`` — the full publication protocol (100/50/50 tasks, 200 epochs).

Run with ``pytest benchmarks/ --benchmark-only -s`` to see the regenerated
tables alongside the timings.
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "tests"))

from repro.eval import PROFILES, ExperimentProfile


def bench_profile() -> ExperimentProfile:
    name = os.environ.get("REPRO_BENCH_PROFILE", "smoke")
    if name not in PROFILES:
        raise KeyError(f"REPRO_BENCH_PROFILE must be one of {sorted(PROFILES)}")
    return PROFILES[name]


@pytest.fixture(scope="session")
def profile() -> ExperimentProfile:
    return bench_profile()


def peak_rss_bytes() -> int:
    """Peak resident-set size of this process so far, in bytes.

    ``resource.getrusage`` reports ``ru_maxrss`` in kilobytes on Linux
    and bytes on macOS; normalised here so every benchmark record carries
    one comparable memory axis.  Returns 0 where the ``resource`` module
    is unavailable (Windows) — records stay loadable everywhere.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS reports bytes
        return int(peak)
    return int(peak) * 1024


def print_paper_shape_note() -> None:
    print(
        "\nNOTE: absolute numbers come from the synthetic substrate "
        "(repro.datasets, see docs/ARCHITECTURE.md); compare *shapes* — "
        "who wins, by how much, where crossovers fall — against the "
        "paper's Tables II–IV (arXiv 2201.00288), recorded in "
        "repro.eval.PAPER_REFERENCE_F1."
    )
