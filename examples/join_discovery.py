"""Join discovery with accidental-join filtering (paper §5's takeaway).

Systems like Auctus suggest joinable tables by value overlap alone; the
paper shows ~80-87% of those suggestions are accidental.  This example
plays the role of such a system on the simulated corpus: it searches
joinable partners for a query table, then re-ranks them with the
paper's proposed signals (same dataset, key columns, non-incremental
types, low expansion) and shows how the signal filter separates useful
suggestions from accidental ones, using the lineage oracle as ground
truth.

Run with::

    python examples/join_discovery.py
"""

from repro import Study, StudyConfig
from repro.joinability import (
    JoinLabel,
    LineageOracle,
    evaluate_signals,
    key_combination,
    pair_expansion_ratio,
    pair_semantic_type,
    usefulness_score,
)
from repro.joinability.labeling import LabeledPair
from repro.joinability.sampling import size_bucket


def main() -> None:
    study = Study.build(StudyConfig(scale=0.3, seed=7))
    portal = study.portal("UK")
    analysis = portal.joinability()
    oracle = LineageOracle.from_recorder(portal.generated.lineage)

    # Query: the joinable table with the most partners (an Auctus-style
    # "suggest joins for this dataset" request).
    query_index = max(
        analysis.table_neighbors, key=lambda t: len(analysis.table_neighbors[t])
    )
    query = analysis.tables[query_index]
    print(f"query table: {query.name} (dataset {query.dataset_id}), "
          f"{len(analysis.table_neighbors[query_index])} joinable partners")
    print()

    suggestions = []
    for pair in analysis.pairs:
        left = analysis.profiles[pair.left]
        right = analysis.profiles[pair.right]
        if query_index not in (left.table_index, right.table_index):
            continue
        partner = (
            right if left.table_index == query_index else left
        )
        mine = left if left.table_index == query_index else right
        judgment = oracle.judge(analysis, pair)
        labeled = LabeledPair(
            pair=pair,
            label=judgment.label,
            pattern=judgment.pattern,
            same_dataset=(
                analysis.tables[partner.table_index].dataset_id
                == query.dataset_id
            ),
            key_combo=key_combination(left, right),
            semantic_type=pair_semantic_type(left, right),
            size_bucket=size_bucket(mine.num_rows) or "10-100",
            expansion_ratio=pair_expansion_ratio(analysis, pair),
        )
        suggestions.append((labeled, mine, partner))

    suggestions.sort(key=lambda s: -usefulness_score(s[0]))
    print("ranked suggestions (signal score | oracle label):")
    for labeled, mine, partner in suggestions[:12]:
        partner_table = analysis.tables[partner.table_index]
        print(
            f"  {usefulness_score(labeled):4.1f} | {labeled.label.value:7s}"
            f" | {mine.column_name} ~ {partner_table.name}.{partner.column_name}"
            f"  (J={labeled.pair.jaccard:.2f},"
            f" expand={labeled.expansion_ratio:.1f}x,"
            f" {labeled.semantic_type.value}, {labeled.pattern})"
        )

    # Portal-wide: how much better is the signal filter than suggesting
    # every high-overlap pair?
    sample = portal.labeled_join_sample()
    evaluation = evaluate_signals(sample)
    print()
    print(f"portal-wide over a stratified sample of {evaluation.total} pairs:")
    print(f"  value-overlap-only precision: {evaluation.baseline_precision:.1%}")
    print(f"  signal-filter precision:      {evaluation.precision:.1%}")
    print(f"  signal-filter recall:         {evaluation.recall:.1%}")
    useful = sum(1 for p in sample if p.label is JoinLabel.USEFUL)
    print(f"  (oracle: {useful}/{len(sample)} sampled pairs are useful)")


if __name__ == "__main__":
    main()
