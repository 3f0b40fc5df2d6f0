"""High-level facade over the Travel Agency availability model.

:class:`TravelAgencyModel` bundles the parameters, the chosen
architecture and the assembled hierarchical model behind a small API
that the examples and the benchmark harness drive:

* per-level availabilities (service, function, user);
* the Table 8 sweep over the number of reservation systems, with and
  without the retry-adjusted column;
* the Fig. 13 scenario-category decomposition;
* a closed-form cross-check against the paper's eq. (10).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from ..core import HierarchicalModel, UserLevelResult
from ..errors import ValidationError
from ..profiles import UserClass
from . import equations
from .architecture import ARCHITECTURES, build_travel_agency, web_service_model
from .parameters import TAParameters
from .userclasses import SCENARIO_FUNCTION_SETS, scenario_category

__all__ = ["TravelAgencyModel"]


class TravelAgencyModel:
    """The Travel Agency of the paper, ready to evaluate.

    Parameters
    ----------
    params:
        Model parameters; defaults to the paper's Table 7 /
        Section 5.2 configuration.
    architecture:
        ``"basic"`` (Fig. 7) or ``"redundant"`` (Fig. 8, the default).

    Examples
    --------
    >>> from repro.ta import CLASS_A, TravelAgencyModel
    >>> ta = TravelAgencyModel()
    >>> result = ta.user_availability(CLASS_A)
    >>> 0.97 < result.availability < 0.99
    True
    """

    def __init__(
        self,
        params: TAParameters = TAParameters(),
        architecture: str = "redundant",
    ):
        if architecture not in ARCHITECTURES:
            raise ValidationError(
                f"unknown architecture {architecture!r}; expected one of "
                f"{ARCHITECTURES}"
            )
        self.params = params
        self.architecture = architecture
        self._model = build_travel_agency(params, architecture)

    # ------------------------------------------------------------------
    @property
    def hierarchical_model(self) -> HierarchicalModel:
        """The underlying four-level model."""
        return self._model

    def with_params(self, **changes) -> "TravelAgencyModel":
        """A new model with some parameters changed."""
        return TravelAgencyModel(self.params.replace(**changes), self.architecture)

    # ------------------------------------------------------------------
    # Level accessors
    # ------------------------------------------------------------------
    def web_service_availability(self) -> float:
        """A(WS): the composite web-service availability."""
        return web_service_model(self.params, self.architecture).availability()

    def service_availabilities(self) -> Dict[str, float]:
        """All service-level availabilities."""
        return self._model.service_availabilities()

    def function_availabilities(self) -> Dict[str, float]:
        """All function-level availabilities (Table 6)."""
        return {
            name: self._model.function_availability(name)
            for name in self._model.functions
        }

    def user_availability(self, user_class: UserClass) -> UserLevelResult:
        """User-perceived availability for a user class (eq. 10)."""
        return self._model.user_availability(user_class)

    # ------------------------------------------------------------------
    # Paper-specific analyses
    # ------------------------------------------------------------------
    def closed_form_user_availability(self, user_class: UserClass) -> float:
        """Eq. (10) evaluated through the paper's explicit formula.

        An independent computation path from
        :meth:`user_availability` (which goes through the generic
        hierarchical engine); the two agree to machine precision and the
        test suite enforces it.
        """
        pi = {
            i: user_class.distribution.probability_of(fs)
            for i, fs in SCENARIO_FUNCTION_SETS.items()
        }
        return equations.user_availability(self.params, pi, self.architecture)

    def reservation_sweep(
        self, user_class: UserClass, counts: Iterable[int]
    ) -> List[Tuple[int, float]]:
        """The Table 8 sweep: user availability vs ``N_F = N_H = N_C``."""
        results = []
        for count in counts:
            model = TravelAgencyModel(
                self.params.with_reservation_systems(count), self.architecture
            )
            results.append(
                (count, model.user_availability(user_class).availability)
            )
        return results

    def retry_adjusted_availability(
        self, user_class: UserClass, policy=None
    ):
        """User-perceived availability with bounded user retries.

        The closed-form extension of eq. (10) from
        :func:`repro.resilience.retry.retry_adjusted_user_availability`:
        failed sessions are retried up to ``policy.max_retries`` times
        (persisting with probability ``policy.persistence`` per
        failure), each attempt an independent draw from the steady
        state.  Defaults to a three-retry fully-persistent policy.

        Examples
        --------
        >>> from repro.ta import CLASS_A, TravelAgencyModel
        >>> ta = TravelAgencyModel()
        >>> result = ta.retry_adjusted_availability(CLASS_A)
        >>> result.adjusted_availability > result.availability
        True
        """
        from ..resilience.retry import RetryPolicy, retry_adjusted_user_availability

        if policy is None:
            policy = RetryPolicy()
        return retry_adjusted_user_availability(self._model, user_class, policy)

    def reservation_sweep_with_retries(
        self,
        user_class: UserClass,
        counts: Iterable[int],
        policy=None,
    ) -> List[Tuple[int, float, float]]:
        """Table 8 with a retry-adjusted column.

        Per reservation-system count ``N_F = N_H = N_C``, the
        single-submission eq.-(10) availability and the retry-adjusted
        value under *policy* (default: three fully-persistent retries).
        """
        from ..resilience.retry import RetryPolicy

        if policy is None:
            policy = RetryPolicy()
        results = []
        for count in counts:
            model = TravelAgencyModel(
                self.params.with_reservation_systems(count), self.architecture
            )
            adjusted = model.retry_adjusted_availability(user_class, policy)
            results.append(
                (count, adjusted.availability, adjusted.adjusted_availability)
            )
        return results

    def category_breakdown(self, user_class: UserClass) -> Dict[str, float]:
        """Fig. 13: unavailability contribution of SC1-SC4.

        Contributions ``sum_i pi_i (1 - A_i)`` per category; they add up
        to the total user-perceived unavailability.
        """
        result = self.user_availability(user_class)
        return result.contribution_by(scenario_category)

    def user_availability_at(
        self,
        user_class: UserClass,
        time: float,
        initial_servers: int = None,
    ) -> float:
        """User-perceived availability at a point in time.

        The web farm is the only resource with interesting dynamics on
        operational timescales (its repair/reconfiguration rates are
        per-hour); the other services are taken at steady state, and the
        web service's *transient* composite availability at *time*
        (hours) replaces its steady-state value in the user-level
        evaluation.  Answers questions like "what do users see in the
        first hours after we bring the farm up on one server?".
        """
        services = self._model.service_availabilities()
        web = web_service_model(self.params, self.architecture)
        services["web"] = web.transient_availability(
            time, initial_servers=initial_servers
        )
        return self._model.user_availability(user_class, services).availability

    def service_importance(self, user_class: UserClass) -> Dict[str, float]:
        """First-order influence of each service on user availability."""
        return self._model.service_importance(user_class)

    def __repr__(self) -> str:
        return (
            f"TravelAgencyModel(architecture={self.architecture!r}, "
            f"NW={self.params.web_servers}, "
            f"N_res=({self.params.n_flight},{self.params.n_hotel},{self.params.n_car}))"
        )
