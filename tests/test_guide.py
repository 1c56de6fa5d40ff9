import pytest

from catenc.data import DataTable
from catenc.encoders import Categorical
from catenc.guide import (
    MODEL_FAMILIES,
    SUFFICIENT_MINASPL,
    GuidanceQuery,
    Recommendation,
    query_from_table,
    recommend,
)

# one expected row per (family, sufficiency side, time flag)
RULE_TABLE = [
    ("ati", 100.0, False, ("onehot",), "ati-sufficient"),
    ("ati", 100.0, True, ("mestimate", "onehot"), "ati-sufficient-fast"),
    ("ati", 99.9, False, ("glmm",), "ati-scarce"),
    ("ati", 99.9, True, ("mestimate",), "ati-scarce-fast"),
    ("tree", 100.0, False, ("mean", "sshrink", "mestimate", "jamesstein", "glmm"), "tree-sufficient"),
    ("tree", 100.0, True, ("mean", "sshrink", "mestimate", "jamesstein"), "tree-sufficient-fast"),
    ("tree", 99.9, False, ("minhash",), "tree-scarce"),
    ("tree", 99.9, True, ("ordinal",), "tree-scarce-fast"),
]


@pytest.mark.parametrize("family,min_aspl,time_flag,encoders,rule_id", RULE_TABLE)
def test_rule_table(family, min_aspl, time_flag, encoders, rule_id):
    rec = recommend(GuidanceQuery(family, min_aspl, time_flag))
    assert rec.encoders == encoders
    assert rec.rule_id == rule_id
    assert rec.rationale


def test_cutoff_is_inclusive():
    at = recommend(GuidanceQuery("ati", SUFFICIENT_MINASPL))
    below = recommend(GuidanceQuery("ati", SUFFICIENT_MINASPL - 1e-9))
    assert at.rule_id == "ati-sufficient"
    assert below.rule_id == "ati-scarce"


def test_other_family_gets_no_recommendation():
    for time_flag in (False, True):
        rec = recommend(GuidanceQuery("other", 500.0, time_flag))
        assert rec.encoders == ()
        assert rec.rule_id == "no-guidance"


def test_time_flag_never_widens_the_list():
    for family in MODEL_FAMILIES:
        for min_aspl in (5.0, 100.0, 1000.0):
            slow = recommend(GuidanceQuery(family, min_aspl, False))
            fast = recommend(GuidanceQuery(family, min_aspl, True))
            assert len(fast.encoders) <= len(slow.encoders) + 1  # ati swaps, others shrink
            if family == "tree":
                assert "glmm" not in fast.encoders


def test_query_validation():
    with pytest.raises(ValueError):
        GuidanceQuery("svm", 10.0)
    with pytest.raises(ValueError):
        GuidanceQuery("ati", -1.0)
    # NaN fell through every cutoff to the "scarce" rule
    with pytest.raises(ValueError, match="min_aspl must be nonnegative"):
        GuidanceQuery("ati", float("nan"))


def test_query_from_table_measures_minaspl():
    table = DataTable({"c": Categorical.of(["a", "b", "a", "b"]), "y": [0.0, 1.0, 0.0, 1.0]}, "y")
    q = query_from_table(table, "tree", time_sensitive=True)
    assert q.min_aspl == 2.0
    assert recommend(q).encoders == ("ordinal",)


def test_recommendation_is_frozen():
    rec = Recommendation(encoders=("onehot",), rationale="r", rule_id="x")
    with pytest.raises(AttributeError):
        rec.rule_id = "y"
