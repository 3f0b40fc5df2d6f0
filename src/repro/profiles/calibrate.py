"""Calibration of a profile graph from observed scenario frequencies.

Web-server logs usually yield *which functions each session touched*
(scenario frequencies, Table 1 of the paper) rather than click-level
transition probabilities ``p_ij``.  :func:`calibrate_profile` inverts the
scenario computation: given an allowed transition structure and a target
scenario distribution, it fits transition probabilities by nonlinear
least squares over a softmax parametrization (which keeps every
candidate a valid probability graph during the search).

The fit is generally over-determined — a graph with ``d`` free
probabilities is asked to match more than ``d`` scenario frequencies —
so a perfect match is not guaranteed; the achieved total-variation
distance is reported so callers can judge the fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..errors import CalibrationError, ValidationError
from .graph import OperationalProfile
from .scenarios import ScenarioDistribution

__all__ = ["calibrate_profile", "CalibrationResult"]


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of a profile calibration.

    Attributes
    ----------
    profile:
        The fitted operational profile.
    total_variation_distance:
        Distance between the fitted and target scenario distributions
        (0 = perfect fit).
    iterations:
        Number of objective evaluations used by the optimizer.
    """

    profile: OperationalProfile
    total_variation_distance: float
    iterations: int


def _group_edges(
    edges: Sequence[Tuple[str, str]]
) -> List[Tuple[str, List[str]]]:
    grouped: Dict[str, List[str]] = {}
    order: List[str] = []
    for src, dst in edges:
        if src not in grouped:
            grouped[src] = []
            order.append(src)
        if dst in grouped[src]:
            raise ValidationError(f"duplicate edge ({src!r}, {dst!r})")
        grouped[src].append(dst)
    return [(src, grouped[src]) for src in order]


def _profile_from_params(
    groups: List[Tuple[str, List[str]]], params: np.ndarray
) -> OperationalProfile:
    transitions: Dict[Tuple[str, str], float] = {}
    cursor = 0
    for src, dsts in groups:
        k = len(dsts)
        if k == 1:
            transitions[(src, dsts[0])] = 1.0
            continue
        logits = np.concatenate([[0.0], params[cursor : cursor + k - 1]])
        cursor += k - 1
        logits = logits - logits.max()
        probs = np.exp(logits)
        probs /= probs.sum()
        for dst, p in zip(dsts, probs):
            transitions[(src, dst)] = float(p)
    return OperationalProfile(transitions)


def calibrate_profile(
    edges: Iterable[Tuple[str, str]],
    target: ScenarioDistribution,
    initial_profile: OperationalProfile = None,
    max_evaluations: int = 2000,
) -> CalibrationResult:
    """Fit transition probabilities to a target scenario distribution.

    Parameters
    ----------
    edges:
        Allowed transitions ``(src, dst)``; ``src`` may be ``"Start"``,
        ``dst`` may be ``"Exit"``.  Every function reachable in the graph
        must be able to reach Exit.
    target:
        Observed scenario distribution to match.
    initial_profile:
        Optional starting point; defaults to uniform branching.
    max_evaluations:
        Cap on objective evaluations.

    Returns
    -------
    CalibrationResult

    Raises
    ------
    CalibrationError
        If the optimizer fails outright (an imperfect but valid fit is
        *not* an error — check ``total_variation_distance``).
    """
    groups = _group_edges(list(edges))
    n_params = sum(len(dsts) - 1 for _, dsts in groups)

    target_sets = sorted(
        {s.functions for s in target.scenarios}, key=lambda fs: (len(fs), sorted(fs))
    )

    def residuals(params: np.ndarray) -> np.ndarray:
        profile = _profile_from_params(groups, params)
        dist = profile.scenario_distribution()
        model_sets = {s.functions for s in dist.scenarios}
        all_sets = target_sets + sorted(
            model_sets - set(target_sets), key=lambda fs: (len(fs), sorted(fs))
        )
        return np.array(
            [dist.probability_of(fs) - target.probability_of(fs) for fs in all_sets]
        )

    if initial_profile is not None:
        x0 = _params_from_profile(groups, initial_profile)
    else:
        x0 = np.zeros(n_params)

    if n_params == 0:
        profile = _profile_from_params(groups, x0)
        dist = profile.scenario_distribution()
        return CalibrationResult(
            profile=profile,
            total_variation_distance=dist.total_variation_distance(target),
            iterations=1,
        )

    from scipy.optimize import least_squares

    try:
        result = least_squares(
            residuals, x0, max_nfev=max_evaluations, xtol=1e-12, ftol=1e-12
        )
    except Exception as exc:  # scipy raises plain ValueError on bad shapes
        raise CalibrationError(f"profile calibration failed: {exc}") from exc

    profile = _profile_from_params(groups, result.x)
    dist = profile.scenario_distribution()
    return CalibrationResult(
        profile=profile,
        total_variation_distance=dist.total_variation_distance(target),
        iterations=int(result.nfev),
    )


def _params_from_profile(
    groups: List[Tuple[str, List[str]]], profile: OperationalProfile
) -> np.ndarray:
    params: List[float] = []
    floor = 1e-9
    for src, dsts in groups:
        if len(dsts) == 1:
            continue
        probs = np.array([max(profile.probability(src, d), floor) for d in dsts])
        logits = np.log(probs / probs[0])
        params.extend(logits[1:].tolist())
    return np.array(params)
