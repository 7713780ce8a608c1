"""Join benchmarks: the prefix search vs the all-pairs walk.

The fidelity contract under test: both candidate generators emit
identical ``JoinablePair`` sets at thresholds 0.9 and 0.7 — recall of
the prefix search is 1.0 by construction, because its prefix and size
filters drop only pairs that cannot reach the threshold and every
surviving candidate is verified with the same exact Jaccard
arithmetic — while its ``join.candidate_pairs`` stays far below the
quadratic walk's.  Each run appends a record to ``BENCH_join.json`` for
``bench-report``.  A creep in candidate counts fails the tier-1 join
pin (``tests/test_joinability_lshindex.py::TestOpPins``), which counts
the prefix search's candidates and ops exactly on the test study.
"""

from __future__ import annotations

import time

from _harness import OUTPUT_DIR, _append_bench_record

from repro.joinability import analyze_joinability, analyze_joinability_lsh
from repro.obs.metrics import MetricsRegistry
from repro.resilience.budget import WorkMeter

THRESHOLDS = (0.9, 0.7)


def _counter(registry: MetricsRegistry, name: str) -> float:
    snap = registry.snapshot().get(name)
    if isinstance(snap, dict) and "value" in snap:
        return float(snap["value"])
    return 0.0


def _total_ops(registry: MetricsRegistry) -> float:
    return sum(
        snap["value"]
        for name, snap in registry.snapshot().items()
        if name.startswith("ops.")
        and isinstance(snap, dict)
        and "value" in snap
    )


def test_bench_join_index_exact_vs_lsh(benchmark, study):
    tables = study.portal("US").report.clean_tables
    lsh_metrics = MetricsRegistry()

    def run():
        return [
            analyze_joinability_lsh(
                "US",
                tables,
                threshold,
                meter=WorkMeter(None, metrics=lsh_metrics),
            )
            for threshold in THRESHOLDS
        ]

    started = time.perf_counter()
    results = benchmark.pedantic(run, rounds=1, iterations=1)
    elapsed = time.perf_counter() - started

    exact_metrics = MetricsRegistry()
    lines = []
    for threshold, lsh in zip(THRESHOLDS, results):
        exact = analyze_joinability(
            "US",
            tables,
            threshold,
            meter=WorkMeter(None, metrics=exact_metrics),
        )
        exact_keys = {(p.left, p.right) for p in exact.pairs}
        lsh_keys = {(p.left, p.right) for p in lsh.pairs}
        recall = (
            len(exact_keys & lsh_keys) / len(exact_keys)
            if exact_keys
            else 1.0
        )
        lines.append(
            f"t={threshold:g}: exact pairs {len(exact.pairs)}, "
            f"lsh pairs {len(lsh.pairs)}, recall {recall:.3f}"
        )
        # The contract is identity, not mere recall: same pairs, same
        # Jaccard/overlap numbers, same order.
        assert lsh.pairs == exact.pairs
        assert recall == 1.0

    lsh_candidates = _counter(lsh_metrics, "join.candidate_pairs")
    exact_candidates = _counter(exact_metrics, "join.candidate_pairs")
    lines.append(
        f"candidates: lsh {lsh_candidates:.0f} "
        f"vs all-pairs {exact_candidates:.0f}"
    )
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "ablation_join_index.txt").write_text(
        "ablation: exact vs lsh join candidate generation\n"
        + "\n".join(lines)
        + "\n",
        encoding="utf-8",
    )
    # The acceptance floor: the prefix search prunes at least 5x the
    # candidates the quadratic walk verifies at full scale.
    assert lsh_candidates * 5 <= exact_candidates

    _append_bench_record(
        "join",
        {
            "experiment": "join",
            "scale": study.config.scale,
            "seed": study.config.seed,
            "workers": study.config.workers,
            "seconds": elapsed,
            "total_ops": _total_ops(lsh_metrics),
            "join_candidates": lsh_candidates,
        },
    )
