"""Ranking stability under VP downsampling (paper §4, Figures 4–5).

The paper asks: if we had observed the world through fewer vantage
points, would the top-ranked ASes (TRA) have come out the same? For
each sample size it draws random VP subsets, recomputes the metric on
the restricted view, and scores the sample's top-10 against the full
ranking with NDCG. The number of VPs needed to clear an NDCG threshold
(0.8 / 0.9 in the paper) tells a country how much collector deployment
buys ranking fidelity.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.cone import cone_ranking
from repro.core.hegemony import hegemony_ranking
from repro.core.ndcg import ndcg
from repro.core.pipeline import PipelineResult
from repro.core.ranking import Ranking
from repro.core.registry import maybe_spec
from repro.core.views import View

if TYPE_CHECKING:  # resume support is imported lazily at runtime
    from repro.resilience.checkpoint import Checkpoint


@dataclass(frozen=True, slots=True)
class StabilityPoint:
    """NDCG statistics for one sample size."""

    sample_size: int
    mean_ndcg: float
    std_ndcg: float
    trials: int


@dataclass(frozen=True, slots=True)
class StabilityCurve:
    """A full downsampling sweep for one metric and view."""

    metric: str
    country: str
    total_vps: int
    points: tuple[StabilityPoint, ...]

    def min_vps_for(self, threshold: float) -> int | None:
        """Smallest sample size whose mean NDCG meets the threshold
        (and stays there for every larger sampled size)."""
        qualified: int | None = None
        for point in sorted(self.points, key=lambda p: p.sample_size):
            if point.mean_ndcg >= threshold:
                if qualified is None:
                    qualified = point.sample_size
            else:
                qualified = None
        return qualified

    def as_rows(self) -> list[tuple[int, float, float]]:
        """(size, mean NDCG, std) rows, ascending by size."""
        return [
            (p.sample_size, p.mean_ndcg, p.std_ndcg)
            for p in sorted(self.points, key=lambda q: q.sample_size)
        ]


def metric_ranking(
    metric: str, view: View, oracle, trim: float = 0.1
) -> Ranking:
    """One CC*/AH* ranking over an arbitrary (possibly downsampled)
    view — the per-trial work unit.

    Dispatch comes from the metric registry: cone-family specs rank by
    customer cone, hegemony-family specs by AS hegemony (honouring a
    variant's ``weighting``); other families (AHC, CTI) are not
    view-restrictable per trial and are rejected.
    """
    spec = maybe_spec(metric)
    if spec is None or spec.family not in ("cone", "hegemony"):
        raise ValueError(
            f"stability analysis supports CC*/AH* metrics, not {metric!r}"
        )
    if spec.family == "cone":
        return cone_ranking(view, oracle, spec.name)
    return hegemony_ranking(
        view, spec.name, trim, weighting=spec.weighting or "addresses"
    )


def _metric_ranking(result: PipelineResult, metric: str, view: View) -> Ranking:
    return metric_ranking(metric, view, result.oracle, result.config.trim)


def stability_curve(
    result: PipelineResult,
    metric: str,
    view: View,
    sizes: list[int] | None = None,
    trials: int = 10,
    seed: int = 0,
    k: int = 10,
    checkpoint: "Checkpoint | None" = None,
) -> StabilityCurve:
    """Downsample a view's VPs and score each sample against the full
    ranking (the machinery behind Figures 4 and 5).

    Trial views are :class:`repro.perf.ViewSlicer` index slices — the
    view's records are bucketed by VP once, then each trial merges the
    sampled VPs' buckets instead of re-filtering the whole view. Every
    VP sample is drawn up front from a single RNG stream seeded by
    ``seed``.

    ``checkpoint`` persists each trial's NDCG score as it completes;
    a resumed run recomputes only the missing trials and yields the
    identical curve (scores are serialized value-exactly).
    """
    from repro.perf.index import ViewSlicer

    if trials < 1:
        raise ValueError("need at least one trial per size")
    slicer = ViewSlicer(view)
    vps = [vp.ip for vp in view.vps()]
    total = len(vps)
    if sizes is None:
        sizes = sorted({s for s in _default_sizes(total)})
    full = _metric_ranking(result, metric, view)
    rng = random.Random(seed)
    valid_sizes = [size for size in sizes if 1 <= size <= total]
    samples: list[list[str]] = [
        rng.sample(vps, size) for size in valid_sizes for _ in range(trials)
    ]
    done: dict[int, float] = {}
    if checkpoint is not None:
        for index in range(len(samples)):
            banked = checkpoint.get(f"trial:{index}")
            if isinstance(banked, float):
                done[index] = banked
    todo = [index for index in range(len(samples)) if index not in done]
    for index in todo:
        restricted = slicer.restrict(samples[index])
        score = ndcg(full, _metric_ranking(result, metric, restricted), k)
        done[index] = score
        if checkpoint is not None:
            checkpoint.put(f"trial:{index}", score)
    scores = [done[index] for index in range(len(samples))]
    points: list[StabilityPoint] = []
    for index, size in enumerate(valid_sizes):
        batch = scores[index * trials:(index + 1) * trials]
        mean = sum(batch) / len(batch)
        variance = sum((s - mean) ** 2 for s in batch) / len(batch)
        points.append(StabilityPoint(size, mean, math.sqrt(variance), trials))
    return StabilityCurve(
        metric=metric,
        country=view.country or "global",
        total_vps=total,
        points=tuple(points),
    )


def _default_sizes(total: int) -> list[int]:
    """A sensible sweep grid: dense at the small end, sparse later."""
    sizes = [s for s in (1, 2, 3, 4, 5, 6, 8, 10, 13, 16, 20, 25, 32, 40,
                         50, 65, 80, 100, 130, 160, 200) if s < total]
    sizes.append(total)
    return sizes


def national_stability(
    result: PipelineResult,
    country: str,
    metric: str = "AHN",
    sizes: list[int] | None = None,
    trials: int = 10,
    seed: int = 0,
) -> StabilityCurve:
    """Figure 4: stability of a country's national ranking (AHN/CCN)."""
    view = result.view("national", country)
    return stability_curve(result, metric, view, sizes, trials, seed)


def international_stability(
    result: PipelineResult,
    country: str,
    metric: str = "AHI",
    sizes: list[int] | None = None,
    trials: int = 10,
    seed: int = 0,
) -> StabilityCurve:
    """Figure 5: stability of a country's international ranking (AHI/CCI)."""
    view = result.view("international", country)
    return stability_curve(result, metric, view, sizes, trials, seed)
