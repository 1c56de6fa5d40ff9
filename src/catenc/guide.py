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
        if self.min_aspl < 0:
            raise ValueError("min_aspl must be nonnegative")


@dataclass(frozen=True)
class Recommendation:
    encoders: tuple[str, ...]
    rationale: str
    rule_id: str


_TARGET_FAMILY = ("mean", "sshrink", "mestimate", "jamesstein")


def recommend(query: GuidanceQuery) -> Recommendation:
    """Ordered encoder names for the query; empty for unknown model families.

    The sufficiency cutoff is inclusive: min_aspl exactly at 100 counts as
    sufficient.
    """
    sufficient = query.min_aspl >= SUFFICIENT_MINASPL
    if query.model_family == "ati":
        if sufficient and not query.time_sensitive:
            return Recommendation(
                encoders=("onehot",),
                rationale=(
                    "with enough samples per level, affine-input models recover any "
                    "fixed encoding's fit from one-hot, so nothing cheaper is worth "
                    "the information loss"
                ),
                rule_id="ati-sufficient",
            )
        if sufficient and query.time_sensitive:
            return Recommendation(
                encoders=("mestimate", "onehot"),
                rationale=(
                    "single-column m-estimate codes train far faster than one-hot "
                    "at near-identical quality when data is plentiful"
                ),
                rule_id="ati-sufficient-fast",
            )
        if query.time_sensitive:
            return Recommendation(
                encoders=("mestimate",),
                rationale="cheap shrunk target codes hold up best when both data and time are short",
                rule_id="ati-scarce-fast",
            )
        return Recommendation(
            encoders=("glmm",),
            rationale=(
                "random-intercept shrinkage regularizes rare levels the most "
                "reliably when samples per level are scarce"
            ),
            rule_id="ati-scarce",
        )
    if query.model_family == "tree":
        if sufficient:
            encoders = _TARGET_FAMILY if query.time_sensitive else _TARGET_FAMILY + ("glmm",)
            rationale = (
                "single-column target codes give tree splitters their best "
                "orderings once every level is well estimated"
            )
            if query.time_sensitive:
                rationale += "; glmm is dropped because its iterative fit dominates encode time"
            return Recommendation(
                encoders=tuple(encoders),
                rationale=rationale,
                rule_id="tree-sufficient-fast" if query.time_sensitive else "tree-sufficient",
            )
        if query.time_sensitive:
            return Recommendation(
                encoders=("ordinal",),
                rationale="ordinal codes cost nothing and trees can still carve useful splits from them",
                rule_id="tree-scarce-fast",
            )
        return Recommendation(
            encoders=("minhash",),
            rationale=(
                "hashed string signatures stay informative for trees when levels "
                "have too few samples for target statistics"
            ),
            rule_id="tree-scarce",
        )
    return Recommendation(
        encoders=(),
        rationale="no benchmark coverage for this model family; no recommendation",
        rule_id="no-guidance",
    )


def query_from_table(table: DataTable, model_family: str, time_sensitive: bool = False) -> GuidanceQuery:
    """Build a query from a concrete table by measuring its minASPL."""
    return GuidanceQuery(
        model_family=model_family,
        min_aspl=minaspl(table),
        time_sensitive=time_sensitive,
    )
