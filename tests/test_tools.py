"""The pure functions of tools/paired_bench.py, on made-up runs; no benchmark is run."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import paired_bench  # noqa: E402

PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]  # IQR 0.045


def _claim(change, lower_is_better=True):
    block = {"w": {"pipeline_s": paired_bench._compare(PARENT, change, lower_is_better)}}
    return paired_bench._claim(block, "w", "pipeline_s", "s", lower_is_better)


def test_seeds_read_a_range_or_a_list():
    assert paired_bench._seeds("961-970") == list(range(961, 971))
    assert paired_bench._seeds("951,953") == [951, 953]


def test_compare_counts_the_pairs_in_which_the_change_is_better():
    parent, change = [1.0, 1.0, 1.0, 1.0], [0.9, 1.1, 0.8, 1.0]
    assert paired_bench._compare(parent, change, lower_is_better=True)["change_better_pairs"] == "2/4"
    # a tie is better on neither side
    assert paired_bench._compare(parent, change, lower_is_better=False)["change_better_pairs"] == "1/4"


def test_claim_is_met_at_nine_of_ten_pairs_with_a_gain_above_the_parent_iqr():
    nine = [p - 0.1 for p in PARENT[:9]] + [PARENT[9] + 0.01]
    claim = _claim(nine)
    assert claim["change_better_pairs"] == "9/10"
    assert claim["median_difference_s"] > claim["parent_iqr_s"] == 0.045
    assert claim["met"]
    # the same runs, read as a higher-is-better metric, are a loss
    assert not _claim(nine, lower_is_better=False)["met"]


def test_claim_is_not_met_at_eight_of_ten_pairs():
    eight = [p - 0.1 for p in PARENT[:8]] + [p + 0.01 for p in PARENT[8:]]
    claim = _claim(eight)
    assert claim["change_better_pairs"] == "8/10"
    assert claim["median_difference_s"] > claim["parent_iqr_s"]
    assert not claim["met"]


def test_claim_is_not_met_with_a_gain_within_the_parent_iqr():
    small = [p - 0.02 for p in PARENT]
    claim = _claim(small)
    assert claim["change_better_pairs"] == "10/10"
    assert claim["median_difference_s"] <= claim["parent_iqr_s"]
    assert not claim["met"]
    # no gain at all
    assert not _claim(list(PARENT))["met"]
