"""Ranked comparison of cloud deployment scenarios.

The unit behind ``repro cloud``: each :class:`CloudScenario` names one
:class:`~repro.bayes.chains.CloudDeployment`, is evaluated to a
:class:`CloudScenarioResult` (both Table 1 user classes plus the farm
marginal), and the grid is ranked by mean user-perceived availability.
Evaluation runs through :meth:`repro.engine.EvaluationEngine.map` (one
keyed item per scenario, so ``--workers N`` is byte-identical and
``--cache-dir`` memoizes unchanged deployments across runs) — the same
pattern as the ``repro policies`` comparison.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..errors import ValidationError
from .chains import CloudDeployment, CloudTravelAgency

__all__ = [
    "CloudComparisonReport",
    "CloudScenario",
    "CloudScenarioResult",
    "compare_cloud_scenarios",
    "evaluate_cloud_scenario",
    "format_cloud_comparison",
]

HOURS_PER_YEAR = 8760.0


@dataclass(frozen=True)
class CloudScenario:
    """One named deployment alternative of the comparison grid."""

    name: str
    deployment: CloudDeployment

    def __post_init__(self):
        if not self.name:
            raise ValidationError("cloud scenario name must be non-empty")


@dataclass(frozen=True)
class CloudScenarioResult:
    """The evaluated availabilities of one deployment scenario."""

    scenario: str
    zones: int
    class_a: float
    class_b: float
    web: float

    @property
    def mean(self) -> float:
        """Mean user-perceived availability over the two user classes."""
        return (self.class_a + self.class_b) / 2.0

    @property
    def downtime_hours_per_year(self) -> float:
        return (1.0 - self.mean) * HOURS_PER_YEAR


@dataclass(frozen=True)
class CloudComparisonReport:
    """All scenario results plus the availability ranking."""

    cells: Tuple[CloudScenarioResult, ...]
    ranking: Tuple[CloudScenarioResult, ...]

    @property
    def best(self) -> CloudScenarioResult:
        return self.ranking[0]


def evaluate_cloud_scenario(scenario: CloudScenario) -> CloudScenarioResult:
    """Evaluate one deployment (module-level: picklable for workers)."""
    from ..ta import CLASS_A, CLASS_B

    agency = CloudTravelAgency(scenario.deployment)
    return CloudScenarioResult(
        scenario=scenario.name,
        zones=scenario.deployment.zones,
        class_a=agency.user_availability(CLASS_A).availability,
        class_b=agency.user_availability(CLASS_B).availability,
        web=agency.web_availability(),
    )


def compare_cloud_scenarios(
    scenarios: Sequence[CloudScenario],
    engine=None,
) -> CloudComparisonReport:
    """Evaluate and rank *scenarios* through the evaluation engine.

    ``engine=None`` uses the in-process serial reference backend; any
    worker count produces bit-identical results (cells are assembled in
    scenario order, and each cell is deterministic).  Each scenario is
    keyed by a pickle digest of the whole scenario, so a warm cache
    skips every deployment whose parameters did not move.
    """
    if not scenarios:
        raise ValidationError(
            "compare_cloud_scenarios needs at least one scenario"
        )
    names = [s.name for s in scenarios]
    if len(set(names)) != len(names):
        raise ValidationError(
            f"cloud scenario names must be unique, got {names}"
        )
    from ..engine import EvaluationEngine, canonical_key

    if engine is None:
        engine = EvaluationEngine()
    keys = [
        canonical_key(
            "cloud-scenario", content=pickle.dumps(scenario, protocol=4)
        )
        for scenario in scenarios
    ]
    cells = engine.map(
        evaluate_cloud_scenario, scenarios, keys=keys,
        phase="cloud-comparison",
    ).outputs
    ranking = tuple(
        sorted(cells, key=lambda cell: (-cell.mean, cell.scenario))
    )
    return CloudComparisonReport(cells=cells, ranking=ranking)


def format_cloud_comparison(
    report: CloudComparisonReport, title: Optional[str] = None
) -> str:
    """Fixed-width ranking table, best deployment first."""
    from ..reporting import format_downtime, format_table

    rows = []
    for cell in report.ranking:
        rows.append([
            cell.scenario,
            str(cell.zones),
            f"{cell.class_a:.7f}",
            f"{cell.class_b:.7f}",
            f"{cell.mean:.7f}",
            format_downtime(cell.mean),
        ])
    return format_table(
        ["deployment", "zones", "A(class A)", "A(class B)", "mean",
         "downtime"],
        rows,
        title=title,
    )
