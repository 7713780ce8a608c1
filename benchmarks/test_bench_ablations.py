"""Ablation benchmarks for the design choices DESIGN.md calls out.

Each ablation times (or measures the quality of) a design alternative:

* FUN's free-set pruning vs. the naive exact FD search;
* the paper's Jaccard threshold 0.9 vs. the supplementary 0.7;
* the >=10-unique-values eligibility floor on vs. off;
* the header-inference heuristic's accuracy against ground truth.
"""

from __future__ import annotations

from _harness import OUTPUT_DIR

from repro.fd import discover_fds, discover_fds_naive, discover_fds_tane
from repro.joinability import (
    TopKOverlapSearcher,
    analyze_joinability,
    brute_force_top_k,
    build_profiles,
    find_joinable_pairs,
)


def _fd_sample(study, limit=40):
    tables = []
    for portal in study:
        tables.extend(portal.filtered_tables())
    # Deterministic spread over the corpus; cap width for the naive run.
    tables = [t for t in tables if t.num_columns <= 10][:limit]
    assert tables
    return tables


def test_bench_fd_fun(benchmark, study):
    tables = _fd_sample(study)

    def run():
        return [discover_fds(t) for t in tables]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(results) == len(tables)


def test_bench_fd_naive(benchmark, study):
    tables = _fd_sample(study)

    def run():
        return [discover_fds_naive(t) for t in tables]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    # Same minimal FDs as FUN — the ablation is about runtime only.
    for table, naive_fds in zip(tables, results):
        assert naive_fds.as_frozenset() == discover_fds(table).as_frozenset()


def test_bench_fd_tane(benchmark, study):
    tables = _fd_sample(study)

    def run():
        return [discover_fds_tane(t) for t in tables]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    for table, tane_fds in zip(tables, results):
        assert tane_fds.as_frozenset() == discover_fds(table).as_frozenset()


def test_bench_topk_overlap_search(benchmark, study):
    tables = study.portal("US").report.clean_tables
    profiles, _ = build_profiles(tables)
    searcher = TopKOverlapSearcher(profiles)
    queries = profiles[::10][:30]

    def run():
        return [
            searcher.search(q.values, k=10, exclude_table=q.table_index)
            for q in queries
        ]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    # Exactness spot-check against brute force on a few queries.
    for query, fast in list(zip(queries, results))[:5]:
        slow = brute_force_top_k(
            profiles, query.values, k=10, exclude_table=query.table_index
        )
        assert [(r.column_id, r.overlap) for r in fast] == [
            (r.column_id, r.overlap) for r in slow
        ]


def test_bench_topk_brute_force(benchmark, study):
    tables = study.portal("US").report.clean_tables
    profiles, _ = build_profiles(tables)
    queries = profiles[::10][:30]

    def run():
        return [
            brute_force_top_k(
                profiles, q.values, k=10, exclude_table=q.table_index
            )
            for q in queries
        ]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(results) == len(queries)


def test_bench_join_search_exact(benchmark, study):
    tables = study.portal("US").report.clean_tables
    profiles, _ = build_profiles(tables)
    pairs = benchmark.pedantic(
        find_joinable_pairs, args=(profiles,), kwargs={"threshold": 0.9},
        rounds=1, iterations=1,
    )
    assert pairs


def test_bench_jaccard_threshold_sensitivity(benchmark, study):
    portal = study.portal("CA")

    def run():
        return (
            analyze_joinability("CA", portal.report.clean_tables, 0.9),
            analyze_joinability("CA", portal.report.clean_tables, 0.7),
        )

    strict, loose = benchmark.pedantic(run, rounds=1, iterations=1)
    assert strict.stats.total_pairs <= loose.stats.total_pairs
    (OUTPUT_DIR / "ablation_threshold.txt").write_text(
        f"pairs at 0.9: {strict.stats.total_pairs}\n"
        f"pairs at 0.7: {loose.stats.total_pairs}\n",
        encoding="utf-8",
    )


def test_bench_unique_floor_ablation(benchmark, study):
    portal = study.portal("CA")

    def run():
        return (
            analyze_joinability("CA", portal.report.clean_tables,
                                min_unique=10),
            analyze_joinability("CA", portal.report.clean_tables,
                                min_unique=2),
        )

    floored, unfloored = benchmark.pedantic(run, rounds=1, iterations=1)
    # Dropping the floor admits boolean-ish columns and inflates pairs —
    # the false positives the paper's filter exists to avoid.
    assert unfloored.stats.total_pairs >= floored.stats.total_pairs
    (OUTPUT_DIR / "ablation_unique_floor.txt").write_text(
        f"pairs with >=10-unique floor: {floored.stats.total_pairs}\n"
        f"pairs with floor disabled:    {unfloored.stats.total_pairs}\n",
        encoding="utf-8",
    )


def test_bench_header_inference_accuracy(benchmark, study):
    def measure():
        per_portal = {}
        for portal in study:
            lineage = portal.generated.lineage
            total = correct = 0
            for ingested in portal.report.clean_tables:
                record = lineage.maybe_get(ingested.resource_id)
                if record is None or record.wide_malformed:
                    continue
                total += 1
                if ingested.header_index == record.preamble_rows:
                    correct += 1
            per_portal[portal.code] = (correct, total)
        return per_portal

    accuracy = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = []
    for code, (correct, total) in accuracy.items():
        rate = correct / total if total else 0.0
        lines.append(f"{code}: {correct}/{total} = {rate:.1%}")
        assert rate >= 0.85  # the paper measured 93-100%
    (OUTPUT_DIR / "ablation_header_accuracy.txt").write_text(
        "header inference accuracy vs ground truth\n"
        + "\n".join(lines) + "\n",
        encoding="utf-8",
    )
