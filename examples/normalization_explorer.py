"""Normalization explorer: find the "hidden sub-tables" inside a
denormalized open-data table (paper §4.2-§4.3).

The paper's thesis: published OGDP tables are pre-joined versions of
multiple base tables, so FD discovery + BCNF decomposition recovers
meaningful reference tables (industry hierarchies, fund-code
dictionaries) that the publisher never released separately.

Run with::

    python examples/normalization_explorer.py
"""

import random

from repro import Study, StudyConfig
from repro.fd import discover_fds
from repro.fd.quality import score_all
from repro.normalize import bcnf_decompose


def main() -> None:
    study = Study.build(StudyConfig(scale=0.3, seed=7))
    portal = study.portal("CA")

    # Pick the filtered table with the most *credible* simple FDs,
    # using the accidental-vs-real classifier: that is where
    # decomposition recovers genuine reference sub-tables.
    best_table, best_fds, best_real = None, None, -1
    for table in portal.filtered_tables():
        if table.num_rows < 30:
            continue  # prefer tables whose FDs carry real evidence
        fds = discover_fds(table)
        real_simple = sum(
            1
            for scored in score_all(table, fds)
            if scored.is_real and scored.fd.lhs_size == 1
        )
        if real_simple > best_real:
            best_table, best_fds, best_real = table, fds, real_simple
    assert best_table is not None and best_fds is not None

    print(f"table: {best_table.name} "
          f"({best_table.num_rows} rows x {best_table.num_columns} cols)")
    print(best_table.to_text(max_rows=5))
    print()
    print("discovered non-trivial FDs:")
    for fd in best_fds:
        print(f"  {fd}")
    print()

    result = bcnf_decompose(best_table, best_fds, random.Random(1))
    print(f"BCNF decomposition -> {result.num_fragments} sub-tables "
          f"({result.steps} splits):")
    for fragment in result.fragments:
        print()
        print(f"--- {fragment.name}: {fragment.num_rows} rows, "
              f"columns {list(fragment.column_names)}")
        print(fragment.to_text(max_rows=4))

    unrepeated = result.unrepeated_columns()
    if unrepeated:
        print()
        print("uniqueness gains for unrepeated columns:")
        for name in unrepeated:
            before = best_table.column(name).uniqueness_score
            fragment = next(
                f for f in result.fragments if f.has_column(name)
            )
            after = fragment.column(name).uniqueness_score
            if before > 0:
                print(f"  {name}: {before:.3f} -> {after:.3f} "
                      f"({after / before:.1f}x)")


if __name__ == "__main__":
    main()
