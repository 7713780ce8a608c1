"""The differential sweep (``make verify-sweep``): its FD and join pairs."""

import dataclasses

import pytest

from repro.core.config import StudyConfig
from repro.core.study import Study
from repro.experiments import sweep
from repro.fd import FDSet, discover_fds, discover_fds_tane
from repro.joinability.lshindex import analyze_joinability_lsh

SMALL = ("0.03", "2")


@pytest.fixture(scope="module")
def small_study():
    return Study.build(StudyConfig(scale=float(SMALL[0]), seed=int(SMALL[1])))


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

    def dropping(*args):
        analysis = analyze_joinability_lsh(*args)
        return dataclasses.replace(analysis, pairs=analysis.pairs[:-1])

    monkeypatch.setattr(sweep, "analyze_joinability_lsh", dropping)
    _, mismatched = sweep.pair_mismatches(small_study)
    assert mismatched == with_pairs
