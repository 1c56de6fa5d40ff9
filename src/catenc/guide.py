"""Encoder selection rules keyed on model family, data sufficiency, and time budget.

The rules condense the benchmark findings: affine-input models (linear models
and MLPs, anything whose first layer is an affine map of the encoding) lose
nothing with one-hot once data is plentiful, while shrunk target encoders carry
small-data and time-sensitive settings; tree models lean on target encoders
when data suffices and on cheap compact codes when it does not.
"""
from __future__ import annotations

from dataclasses import dataclass

from .data import DataTable
from .metrics import SUFFICIENT_MINASPL, minaspl

MODEL_FAMILIES = ("ati", "tree", "other")


@dataclass(frozen=True)
class GuidanceQuery:
    """ati = affine-transformation-input models (ridge, logistic, mlp);
    tree = axis-aligned splitters (tree, forest); other = anything else."""

    model_family: str
    min_aspl: float
    time_sensitive: bool = False

    def __post_init__(self) -> None:
        if self.model_family not in MODEL_FAMILIES:
            raise ValueError(
                f"model_family must be one of {MODEL_FAMILIES}, got {self.model_family!r}"
            )
        if not self.min_aspl >= 0:  # NaN fails it too
            raise ValueError("min_aspl must be nonnegative")


@dataclass(frozen=True)
class Recommendation:
    encoders: tuple[str, ...]
    rationale: str
    rule_id: str


_TARGET_FAMILY = ("mean", "sshrink", "mestimate", "jamesstein")
_TREE_TARGET_RATIONALE = (
    "single-column target codes give tree splitters their best orderings once "
    "every level is well estimated"
)

#: (family, sufficient, time_sensitive) -> (encoders best first, rationale)
_RULES = {
    ("ati", True, False): (
        ("onehot",),
        "with enough samples per level, affine-input models recover any fixed "
        "encoding's fit from one-hot, so nothing cheaper is worth the information loss",
    ),
    ("ati", True, True): (
        ("mestimate", "onehot"),
        "single-column m-estimate codes train far faster than one-hot at "
        "near-identical quality when data is plentiful",
    ),
    ("ati", False, True): (
        ("mestimate",),
        "cheap shrunk target codes hold up best when both data and time are short",
    ),
    ("ati", False, False): (
        ("glmm",),
        "random-intercept shrinkage regularizes rare levels the most reliably when "
        "samples per level are scarce",
    ),
    ("tree", True, False): (_TARGET_FAMILY + ("glmm",), _TREE_TARGET_RATIONALE),
    ("tree", True, True): (
        _TARGET_FAMILY,
        _TREE_TARGET_RATIONALE + "; glmm is dropped because its iterative fit dominates encode time",
    ),
    ("tree", False, True): (
        ("ordinal",),
        "ordinal codes cost nothing and trees can still carve useful splits from them",
    ),
    ("tree", False, False): (
        ("minhash",),
        "hashed string signatures stay informative for trees when levels have too "
        "few samples for target statistics",
    ),
}


def recommend(query: GuidanceQuery) -> Recommendation:
    """Ordered encoder names for the query; empty for unknown model families.

    The sufficiency cutoff is inclusive: min_aspl exactly at 100 counts as
    sufficient. The rule id reads <family>-<sufficient|scarce>[-fast].
    """
    sufficient = query.min_aspl >= SUFFICIENT_MINASPL
    key = (query.model_family, sufficient, query.time_sensitive)
    if key not in _RULES:
        return Recommendation(
            encoders=(),
            rationale="no benchmark coverage for this model family; no recommendation",
            rule_id="no-guidance",
        )
    encoders, rationale = _RULES[key]
    rule_id = f"{query.model_family}-{'sufficient' if sufficient else 'scarce'}"
    return Recommendation(encoders, rationale, rule_id + ("-fast" if query.time_sensitive else ""))


def query_from_table(table: DataTable, model_family: str, time_sensitive: bool = False) -> GuidanceQuery:
    """Build a query from a concrete table by measuring its minASPL."""
    return GuidanceQuery(
        model_family=model_family,
        min_aspl=minaspl(table),
        time_sensitive=time_sensitive,
    )
