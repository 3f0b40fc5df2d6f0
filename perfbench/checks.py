"""Output checks: a wrong output is a failed operation, not a pass.

Every check returns a list of problems; an empty list means correct.
"""

from __future__ import annotations

import math

#: Table 8 of the paper at its own parameters, with the tolerances the
#: repository's golden-number tests pin (tests/ta/test_paper_numbers.py).
TABLE8_COUNTS = (1, 2, 3, 4, 5, 10)
TABLE8_PINS = {
    "A": ({1: 0.84235, 2: 0.96509, 3: 0.97867, 4: 0.98004, 5: 0.98018,
           10: 0.98020}, 2.5e-3),
    "B": ({1: 0.76875, 2: 0.95529, 3: 0.97593, 4: 0.97802, 5: 0.97822,
           10: 0.97825}, 1.5e-2),
}

#: A null-scenario campaign mean must lie within this distance of the
#: analytic eq.-(10) value.  The band is absolute because a standard
#: error taken from 4 replications is too noisy to scale it: four close
#: replications give a tiny one, and a correct campaign then sits 20+
#: "standard errors" out.  Over 100 seeds per cell at 4 x 1000 h the
#: mean's deviation had a standard deviation of at most 0.0084 (basic
#: architecture, class B) and never exceeded 0.023, so 0.05 is about six
#: of them: it catches a broken simulator, not a slightly biased one.
NULL_BAND = 0.05


def probability(value, label):
    if not isinstance(value, (int, float)) or math.isnan(value):
        return [f"{label} is not a number: {value!r}"]
    if not 0.0 <= value <= 1.0:
        return [f"{label} = {value!r} lies outside [0, 1]"]
    return []


def text(value, label):
    if not isinstance(value, str) or not value.strip():
        return [f"{label} is empty"]
    return []


def table8(rows, rendered):
    """*rows* maps class name -> {count: availability}."""
    problems = text(rendered, "table8 text")
    for name, (pins, tolerance) in TABLE8_PINS.items():
        for count, pinned in pins.items():
            value = rows.get(name, {}).get(count)
            problems += probability(value, f"Table 8 {name}[{count}]")
            if value is not None and abs(value - pinned) > tolerance:
                problems.append(
                    f"Table 8 {name}[{count}] = {value:.6f}, pinned "
                    f"{pinned} +/- {tolerance}"
                )
    return problems


def sweep(grid, rendered):
    problems = text(rendered, "sweep text")
    for row, values in enumerate(grid.outputs):
        for column, value in enumerate(values):
            problems += probability(value, f"sweep cell {row},{column}")
    return problems


def policies(report, rendered):
    problems = text(rendered, "policies text")
    for cell in report.cells:
        problems += probability(
            cell.availability, f"policies cell {cell.policy}/{cell.scenario}"
        )
    return problems


def cloud(report, rendered):
    problems = text(rendered, "cloud text")
    for cell in report.cells:
        problems += probability(cell.mean, f"cloud cell {cell.scenario}")
    return problems


def campaigns(results, rendered):
    """The campaign grid of one scenario: both user classes."""
    problems = text(rendered, "campaign text")
    for result in results:
        label = f"campaign {result.user_class}/{result.scenario}"
        problems += probability(result.mean_availability, label)
        for index, value in enumerate(result.values):
            problems += probability(value, f"{label} replication {index}")
        if result.scenario == "null":
            gap = abs(result.mean_availability - result.analytic_availability)
            if not gap <= NULL_BAND:
                problems.append(
                    f"{label} mean {result.mean_availability:.6f} is "
                    f"{gap:.2e} from eq. (10) "
                    f"{result.analytic_availability:.6f} (band {NULL_BAND})"
                )
    return problems


def server_job(kind, result):
    """The structured fields of one server job's result document."""
    if not isinstance(result, dict):
        return [f"{kind} job has no result document"]
    problems = text(result.get("text"), f"{kind} job text")
    if kind == "sweep":
        for rate, values in (result.get("series") or {}).items():
            for index, value in enumerate(values):
                problems += probability(value, f"sweep {rate}[{index}]")
    elif kind == "policies":
        best = result.get("best") or {}
        problems += probability(
            best.get("mean_availability"), "policies best mean"
        )
    elif kind == "cloud":
        best = result.get("best") or {}
        problems += probability(
            best.get("mean_availability"), "cloud best mean"
        )
    elif kind == "campaign":
        for entry in result.get("campaigns") or [None]:
            if not isinstance(entry, dict):
                problems.append("campaign job lists no campaigns")
                continue
            problems += probability(
                entry.get("mean_availability"), "campaign mean"
            )
    return problems
