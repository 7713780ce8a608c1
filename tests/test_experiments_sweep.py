"""The differential sweep (``make verify-sweep``): its FD, fragment,
join and pool pairs."""

import dataclasses

import pytest

from repro.core.config import StudyConfig
from repro.core.study import Study
from repro.experiments import sweep
from repro.fd import FDSet, discover_fds, discover_fds_naive, discover_fds_tane
from repro.joinability import lshindex
from repro.joinability.index import build_profiles
from repro.normalize import bcnf
from repro.resilience import pool

SMALL = ("0.03", "2")

#: A corpus with a pair that one token missing from one column's token
#: order loses (at SMALL every pair's prefixes share two tokens or more).
LOSSY = ("0.08", "2")


def _build(args) -> Study:
    return Study.build(StudyConfig(scale=float(args[0]), seed=int(args[1])))


@pytest.fixture(scope="module")
def small_study():
    return _build(SMALL)


def _reshaped(engine, reshape):
    """*engine* with its FD list passed through *reshape*."""

    def run(table, max_lhs):
        fds = engine(table, max_lhs=max_lhs)
        out = FDSet(fds.table_name, reshape(list(fds)), fds.truncated)
        out.lhs_cards = fds.lhs_cards
        return out

    return run


def test_main_passes_when_both_pairs_agree():
    assert sweep.main(list(SMALL)) == 0


def test_reordered_fun_list_is_a_mismatch(monkeypatch, small_study):
    compared, mismatched = sweep.fd_mismatches(small_study)
    assert compared > 10 and not mismatched
    monkeypatch.setattr(
        sweep, "discover_fds", _reshaped(discover_fds, lambda fds: fds[::-1])
    )
    _, mismatched = sweep.fd_mismatches(small_study)
    assert mismatched


def test_missing_tane_fd_is_a_mismatch(monkeypatch, small_study):
    monkeypatch.setattr(
        sweep, "discover_fds_tane", _reshaped(discover_fds_tane, lambda fds: fds[1:])
    )
    _, mismatched = sweep.fd_mismatches(small_study)
    assert mismatched


def test_missing_naive_fd_is_a_mismatch(small_study):
    compared, mismatched = sweep.fd_mismatches(small_study, discover_fds_naive)
    assert compared > 10 and not mismatched
    _, mismatched = sweep.fd_mismatches(
        small_study, _reshaped(discover_fds_naive, lambda fds: fds[1:])
    )
    assert mismatched


def test_wrong_naive_result_on_one_table_fails_the_sweep(
    monkeypatch, capsys, small_study
):
    """The naive pair runs in ``main`` and names the one table whose
    planted naive list lacks an FD, while the TANE pair stays ok."""
    victim = next(
        table.name
        for portal in small_study
        for table in portal.filtered_tables()
        if len(discover_fds_naive(table, max_lhs=small_study.config.max_lhs))
    )
    naive = sweep.discover_fds_naive

    def planted(table, max_lhs):
        fds = naive(table, max_lhs=max_lhs)
        if table.name != victim:
            return fds
        out = FDSet(fds.table_name, list(fds)[1:], fds.truncated)
        out.lhs_cards = fds.lhs_cards
        return out

    monkeypatch.setattr(sweep, "discover_fds_naive", planted)
    assert sweep.main(list(SMALL)) == 1
    err = capsys.readouterr().err
    assert "sweep-mismatch pair=fun-naive tables=" in err
    assert "mismatched=1 " in err and f"/{victim}" in err
    assert "sweep-ok pair=fun-tane" in err


def test_dropped_prefix_pair_is_a_mismatch(monkeypatch, small_study):
    compared, mismatched = sweep.pair_mismatches(small_study)
    assert compared == 2 * len(small_study.portals) and not mismatched
    with_pairs = [
        f"{portal.code}@{threshold}"
        for portal in small_study
        for threshold in (0.9, 0.7)
        if portal.joinability(threshold).pairs
    ]
    assert with_pairs
    search = lshindex.lsh_joinable_pairs_flagged

    def dropping(*args):
        pairs, truncated = search(*args)
        return pairs[:-1], truncated

    # The study's own analyses reach the planted search, so the sweep
    # must see it on a study that has not cached them yet.
    monkeypatch.setattr(lshindex, "lsh_joinable_pairs_flagged", dropping)
    _, mismatched = sweep.pair_mismatches(_build(SMALL))
    assert mismatched == with_pairs


def _lossy_token(study):
    """``(profile, rank)``: a token whose removal from that column's
    order leaves some pair of the column without a shared prefix
    token."""
    for portal in study:
        profiles, _ = build_profiles(
            portal.screened_tables(), study.config.min_unique_values
        )
        order = lshindex.token_ranks(profiles)
        for threshold in (0.9, 0.7):

            def prefix(column, ranks):
                length = lshindex.prefix_length(
                    profiles[column].num_unique, threshold
                )
                return set(ranks[:length])

            for pair in portal.joinability(threshold).pairs:
                for mine, other in ((pair.left, pair.right), (pair.right, pair.left)):
                    theirs = prefix(other, order[other])
                    shared = prefix(mine, order[mine]) & theirs
                    if len(shared) != 1:
                        continue
                    (rank,) = shared
                    rest = [r for r in order[mine] if r != rank]
                    if not prefix(mine, rest) & theirs:
                        return profiles[mine], rank
    return None


def test_token_missing_from_the_shared_order_fails_the_sweep(
    monkeypatch, capsys
):
    """A state whose order lacks one token of one column loses a pair;
    the sweep must name it and exit 1."""
    lossy = _lossy_token(_build(LOSSY))
    assert lossy is not None
    victim, rank = lossy
    column = victim.column_id
    ranks = lshindex.token_ranks

    def planted(profiles):
        order = ranks(profiles)
        if len(profiles) > column and profiles[column] == victim:
            order[column] = [r for r in order[column] if r != rank]
        return order

    monkeypatch.setattr(lshindex, "token_ranks", planted)
    # Only the join pair runs: the FD pairs do not read the state.
    monkeypatch.setattr(sweep, "fd_mismatches", lambda study, oracle=None: (1, []))
    monkeypatch.setattr(sweep, "fragment_mismatches", lambda study: (1, []))
    assert sweep.main(list(LOSSY)) == 1
    assert "sweep-mismatch pair=prefix-allpairs" in capsys.readouterr().err


def test_fragment_derivations_match_fun(small_study):
    compared, mismatched = sweep.fragment_mismatches(small_study)
    assert compared > 50 and not mismatched


def test_wrong_fragment_derivation_fails_the_sweep(monkeypatch, capsys):
    derive = bcnf.fragment_fds
    monkeypatch.setattr(
        bcnf, "fragment_fds", lambda fragment, fds: derive(fragment, fds)[::-1]
    )
    assert sweep.main(list(SMALL)) == 1
    assert "sweep-mismatch pair=fragment-fun" in capsys.readouterr().err


def test_one_tick_in_pooled_units_is_a_mismatch(monkeypatch, capsys):
    """A tick planted in every unit a pool worker computes, and in no
    serial one, must fail the pool pair and name the units, while the
    rendered texts (unbudgeted, so ticks cannot move them) agree."""
    compute = pool.compute_unit

    def planted(*args, **kwargs):
        result, record = compute(*args, **kwargs)
        return result, dataclasses.replace(record, ticks=record.ticks + 1)

    # Patched before the pool forks its workers, which inherit it.
    monkeypatch.setattr(pool, "compute_unit", planted)
    _, mismatched = sweep.pooled_mismatches(_build(SMALL))
    assert mismatched
    assert {name.split("/")[1] for name in mismatched} == {"screen", "fd"}
    assert sweep.main(list(SMALL)) == 1
    err = capsys.readouterr().err
    assert "sweep-mismatch pair=pooled-serial outputs=" in err
    assert "sweep-ok pair=fun-tane" in err
