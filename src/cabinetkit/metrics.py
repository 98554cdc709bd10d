"""Evaluation of predicted cabinet models against ground truth.

Predicted and ground-truth primitives are paired by optimal assignment on
3D IoU (Kuhn-Munkres on cost 1 - IoU, padded square with zero-IoU dummy
entries, warm-started by Jonker-Volgenant column reduction unless one side
holds two equal boxes, whose tie then falls in row order). A pairing at
IoU 0 is reported as unmatched, like a pairing with a dummy. A pair is a
true positive when its IoU strictly exceeds the threshold (default 0.5).
On top of the geometric matching:

* retrieval accuracy is the fraction of true-positive pairs whose model ID
  matches the ground truth's, and
* parameter accuracy is the fraction of correctly-retrieved pairs whose
  full model-specific parameter map matches.

Corpus aggregation reports both macro (mean of per-sample values) and micro
(derived from summed counts) figures, plus the raw counts so any other
aggregation can be recomputed downstream.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Iterable

import numpy as np

from .catalog import ParamValue, PrimitiveCatalog, PrimitiveSchema, KIND_LENGTH
from .geometry import pairwise_iou
from .program import CabinetModel

DEFAULT_IOU_THRESHOLD = 0.5

REPORT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Matching:
    """Optimal assignment between predicted and ground-truth instances."""

    pairs: tuple[tuple[int, int, float], ...]  # (pred index, gt index, iou)
    unmatched_pred: tuple[int, ...]
    unmatched_gt: tuple[int, ...]


def iou_matrix(pred: CabinetModel, gt: CabinetModel) -> np.ndarray:
    """Pairwise IoU matrix, shape (len(pred), len(gt)); see `geometry.pairwise_iou`."""
    return pairwise_iou([p.box for p in pred.instances], [g.box for g in gt.instances])


def _solve_min_cost(cost: np.ndarray, *, warm_start: bool) -> list[int]:
    """O(n^3) Kuhn-Munkres on a square cost matrix; returns column per row.

    With `warm_start`, the column reduction of Jonker & Volgenant (Computing
    38, 1987) goes first: each column's dual starts at its smallest cost,
    and the column is assigned to the first row holding that cost while the
    row is still free. Augmenting paths are then searched only for the rows
    left over, in row order; without it, every row is searched in row
    order. Deterministic: among equal-cost assignments the one reached first
    this way is returned. Raises ValueError on a NaN or infinite cost, which
    would never let the augmenting-path search terminate.
    """
    if not np.isfinite(cost).all():
        raise ValueError("assignment costs must be finite")
    n = cost.shape[0]
    INF = float("inf")
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    matched_row = [0] * (n + 1)  # row matched to each column (1-based; 0 = free)
    row_free = [True] * (n + 1)
    if warm_start:
        v = [0.0] + cost.min(axis=0).tolist()
        for j, i in enumerate(cost.argmin(axis=0).tolist(), start=1):
            if row_free[i + 1]:
                row_free[i + 1] = False
                matched_row[j] = i + 1
    way = [0] * (n + 1)
    rows = cost.tolist()
    for i in range(1, n + 1):
        if not row_free[i]:
            continue
        matched_row[0] = i
        j0 = 0
        minv = [INF] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = matched_row[j0]
            delta = INF
            j1 = 0
            row = rows[i0 - 1]
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[matched_row[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if matched_row[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            matched_row[j0] = matched_row[j1]
            j0 = j1
    assignment = [0] * n
    for j in range(1, n + 1):
        if matched_row[j]:
            assignment[matched_row[j] - 1] = j - 1
    return assignment


def match(pred: CabinetModel, gt: CabinetModel) -> Matching:
    """Assignment maximizing total IoU.

    Pairings with a dummy and pairings at IoU 0 are reported as unmatched,
    so which of several zero-IoU pairings the solver picks never shows.
    When either side holds the same box twice (equal `OrientedBox`es, which
    synthesized cabinets can hold: a fixed and an adjustable shelf in one
    place), every assignment among the twins costs the same, and the tie
    decides which model ID a pairing is credited with. The solver then runs
    without its warm start, so that the tie falls in row order.
    """
    ious = iou_matrix(pred, gt)
    n, m = ious.shape
    size = max(n, m)
    padded = np.zeros((size, size))
    padded[:n, :m] = ious
    twins = any(len({i.box for i in side}) < len(side) for side in (pred.instances, gt.instances))
    assignment = _solve_min_cost(1.0 - padded, warm_start=not twins)

    pairs = []
    unmatched_pred = []
    for i in range(n):
        j = assignment[i]
        if j < m and ious[i, j] > 0.0:
            pairs.append((i, j, float(ious[i, j])))
        else:
            unmatched_pred.append(i)
    matched_gt = {j for _, j, _ in pairs}
    unmatched_gt = [j for j in range(m) if j not in matched_gt]
    return Matching(tuple(pairs), tuple(unmatched_pred), tuple(unmatched_gt))


def param_match(
    a: dict[str, ParamValue],
    b: dict[str, ParamValue],
    schema: PrimitiveSchema,
) -> bool:
    """True iff the key sets are equal and every value matches.

    Two numbers match when they are equal in value: Python compares an int
    and a float exactly, so 160 and 160.0 match, and an int beyond the
    float range compares without an error. Any other pair of values must
    be equal, except that a length-typed value that is not a number never
    matches.
    """
    if set(a) != set(b):
        return False
    for key, value_a in a.items():
        value_b = b[key]
        if _is_number(value_a) and _is_number(value_b):
            if value_a != value_b:
                return False
        elif value_a != value_b:
            return False
        else:
            param = schema.schema_for(key)
            if param is not None and param.kind == KIND_LENGTH:
                return False
    return True


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass
class SampleReport:
    """Counts and derived metrics for one (prediction, ground truth) pair."""

    sample_id: str = ""
    tp: int = 0
    fp: int = 0
    fn: int = 0
    precision: float = 0.0
    recall: float = 0.0
    f1: float = 0.0
    retrieval_correct: int = 0
    retrieval_total: int = 0
    param_correct: int = 0
    param_total: int = 0
    parse_failed: bool = False

    @property
    def retrieval_acc(self) -> float | None:
        if self.retrieval_total == 0:
            return None
        return self.retrieval_correct / self.retrieval_total

    @property
    def param_acc(self) -> float | None:
        if self.param_total == 0:
            return None
        return self.param_correct / self.param_total


def evaluate_sample(
    pred: CabinetModel | None,
    gt: CabinetModel,
    catalog: PrimitiveCatalog,
    iou_thresh: float = DEFAULT_IOU_THRESHOLD,
    *,
    sample_id: str = "",
) -> SampleReport:
    """Evaluate one prediction; `pred=None` stands for an empty prediction.

    A matched pair is a true positive only when IoU > iou_thresh (strict).
    Retrieval accuracy is computed over the true-positive pairs.
    """
    if not 0.0 <= iou_thresh <= 1.0:
        raise ValueError(f"iou_thresh must lie in [0, 1], got {iou_thresh!r}")
    report = SampleReport(sample_id=sample_id, fn=len(gt))
    if pred is None:
        return report

    matching = match(pred, gt)
    tp_pairs = [p for p in matching.pairs if p[2] > iou_thresh]
    report.tp = len(tp_pairs)
    report.fp = len(pred) - report.tp
    report.fn = len(gt) - report.tp
    report.precision = report.tp / len(pred) if len(pred) else 0.0
    report.recall = report.tp / len(gt)
    if report.precision + report.recall > 0:
        report.f1 = (
            2 * report.precision * report.recall / (report.precision + report.recall)
        )

    report.retrieval_total = len(tp_pairs)
    for i, j, _ in tp_pairs:
        pred_inst = pred.instances[i]
        gt_inst = gt.instances[j]
        if pred_inst.model_id != gt_inst.model_id:
            continue
        report.retrieval_correct += 1
        report.param_total += 1
        schema = catalog.get(gt_inst.model_id)
        if schema is None:
            matches = pred_inst.params == gt_inst.params
        else:
            matches = param_match(pred_inst.params, gt_inst.params, schema)
        if matches:
            report.param_correct += 1
    return report


@dataclass
class CorpusReport:
    """Per-sample reports plus macro and micro aggregates."""

    iou_threshold: float
    samples: list[SampleReport] = field(default_factory=list)
    parse_failures: int = 0

    @property
    def n_samples(self) -> int:
        return len(self.samples)

    def totals(self) -> dict[str, int]:
        keys = ("tp", "fp", "fn", "retrieval_correct", "retrieval_total",
                "param_correct", "param_total")
        return {key: sum(getattr(s, key) for s in self.samples) for key in keys}

    def micro(self) -> dict[str, float]:
        t = self.totals()
        precision = t["tp"] / (t["tp"] + t["fp"]) if t["tp"] + t["fp"] else 0.0
        recall = t["tp"] / (t["tp"] + t["fn"]) if t["tp"] + t["fn"] else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        retrieval = (
            t["retrieval_correct"] / t["retrieval_total"] if t["retrieval_total"] else 0.0
        )
        param = t["param_correct"] / t["param_total"] if t["param_total"] else 0.0
        return {
            "precision": precision,
            "recall": recall,
            "f1": f1,
            "retrieval_acc": retrieval,
            "param_acc": param,
        }

    def macro(self) -> dict[str, float]:
        """Mean of per-sample values; accuracy means skip undefined samples."""
        if not self.samples:
            return {k: 0.0 for k in ("precision", "recall", "f1", "retrieval_acc", "param_acc")}
        retrieval = [s.retrieval_acc for s in self.samples if s.retrieval_acc is not None]
        param = [s.param_acc for s in self.samples if s.param_acc is not None]
        return {
            "precision": float(np.mean([s.precision for s in self.samples])),
            "recall": float(np.mean([s.recall for s in self.samples])),
            "f1": float(np.mean([s.f1 for s in self.samples])),
            "retrieval_acc": float(np.mean(retrieval)) if retrieval else 0.0,
            "param_acc": float(np.mean(param)) if param else 0.0,
        }

    def to_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "iou_threshold": self.iou_threshold,
            "n_samples": self.n_samples,
            "parse_failures": self.parse_failures,
            "totals": self.totals(),
            "macro": self.macro(),
            "micro": self.micro(),
            "samples": [asdict(s) for s in self.samples],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def evaluate_corpus(
    pairs: Iterable[tuple[str, CabinetModel | None, CabinetModel]],
    catalog: PrimitiveCatalog,
    iou_thresh: float = DEFAULT_IOU_THRESHOLD,
) -> CorpusReport:
    """Evaluate (sample_id, pred, gt) triples; pred=None counts a parse failure.

    Aggregation is a pure fold over per-sample counts, so the result is
    independent of evaluation order.
    """
    report = CorpusReport(iou_threshold=iou_thresh)
    for sample_id, pred, gt in pairs:
        sample = evaluate_sample(pred, gt, catalog, iou_thresh, sample_id=sample_id)
        if pred is None:
            sample.parse_failed = True
            report.parse_failures += 1
        report.samples.append(sample)
    if not report.samples:
        raise ValueError("evaluate_corpus requires at least one sample")
    report.samples.sort(key=lambda s: s.sample_id)
    return report
