"""Parameter sweeps over model evaluation functions.

Both :func:`sweep` and :func:`grid_sweep` evaluate point by point in a
plain Python loop by default.  Passing an
:class:`~repro.engine.EvaluationEngine` routes the evaluations through
the batch engine instead — parallel across points when the engine has
workers, memoized when cache *keys* are supplied — without changing a
single output bit: results are assembled in sweep order regardless of
completion order, and the serial engine backend is the reference the
parallel one is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional, Sequence, Tuple

from .._validation import check_non_negative
from ..errors import ResumeError, ValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..engine import EvaluationEngine

__all__ = ["sweep", "grid_sweep", "SweepResult", "GridSweepResult"]


@dataclass(frozen=True)
class SweepResult:
    """Result of a one-dimensional parameter sweep.

    Attributes
    ----------
    parameter:
        The swept parameter's name.
    values:
        Parameter values, in evaluation order.
    outputs:
        Model outputs, aligned with *values*.
    """

    parameter: str
    values: Tuple[float, ...]
    outputs: Tuple[float, ...]

    def as_pairs(self) -> List[Tuple[float, float]]:
        """``[(value, output), ...]`` pairs."""
        return list(zip(self.values, self.outputs))

    def argbest(self, maximize: bool = True) -> Tuple[float, float]:
        """The (value, output) pair with the best output."""
        chooser = max if maximize else min
        return chooser(self.as_pairs(), key=lambda pair: pair[1])

    def first_crossing(
        self, threshold: float, above: bool = True, tol: float = 0.0
    ) -> Tuple[float, float]:
        """First (value, output) whose output crosses *threshold*.

        Used for design questions like "how many web servers to reach an
        unavailability below 5 minutes per year?".

        The scan runs strictly in evaluation order and returns the
        *first* point satisfying the predicate, so for non-monotone
        outputs the answer is deterministic (earlier crossings win, even
        when the output later un-crosses).

        Parameters
        ----------
        threshold:
            The output level to cross.
        above:
            When True (default) find ``output >= threshold - tol``;
            otherwise ``output <= threshold + tol``.
        tol:
            Non-negative absolute tolerance.  An output within *tol* of
            the threshold counts as crossed on either side — use it when
            outputs land *exactly on* the threshold up to floating-point
            rounding, where a last-ulp platform difference would
            otherwise flip the answer between adjacent swept values.

        Raises
        ------
        ValidationError
            If no swept point crosses the threshold, or *tol* is
            negative.
        """
        tol = check_non_negative(tol, "tol")
        for value, output in self.as_pairs():
            crossed = (
                output >= threshold - tol
                if above
                else output <= threshold + tol
            )
            if crossed:
                return value, output
        side = ">=" if above else "<="
        raise ValidationError(
            f"no swept value of {self.parameter!r} yields output {side} {threshold}"
        )


@dataclass(frozen=True)
class GridSweepResult:
    """Result of a two-dimensional parameter sweep.

    Attributes
    ----------
    row_parameter / column_parameter:
        Names of the two axes.
    row_values / column_values:
        Axis values.
    outputs:
        ``outputs[i][j]`` is the model output at
        ``(row_values[i], column_values[j])``.
    """

    row_parameter: str
    column_parameter: str
    row_values: Tuple[float, ...]
    column_values: Tuple[float, ...]
    outputs: Tuple[Tuple[float, ...], ...]

    def row(self, row_value: float) -> SweepResult:
        """One row of the grid as a one-dimensional sweep."""
        try:
            index = self.row_values.index(row_value)
        except ValueError:
            raise ValidationError(
                f"{row_value!r} is not a swept value of {self.row_parameter!r}"
            ) from None
        return SweepResult(
            parameter=self.column_parameter,
            values=self.column_values,
            outputs=self.outputs[index],
        )


class _GridCell:
    """Picklable adapter turning ``fn(r, c)`` into ``fn(pair)``.

    A module-level class (rather than a closure) so grid sweeps can ship
    their model function to process-pool workers.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[float, float], float]):
        self.fn = fn

    def __call__(self, pair: Tuple[float, float]) -> float:
        return float(self.fn(*pair))


def _float_outputs(outputs: Tuple[Any, ...], journal) -> Tuple[float, ...]:
    """*outputs* as floats; each a finite real if a *journal* restored it."""
    if journal is not None:
        for index, output in enumerate(outputs):
            if (isinstance(output, bool) or not isinstance(output, Real)
                    or not math.isfinite(output)):
                raise ResumeError(
                    f"journal {getattr(journal, 'path', journal)} task "
                    f"{index} value {output!r} is not a finite real number"
                )
    return tuple(float(output) for output in outputs)


def sweep(
    model: Callable[[float], float],
    parameter: str,
    values: Iterable[float],
    engine: Optional["EvaluationEngine"] = None,
    keys: Optional[Sequence[Optional[str]]] = None,
    journal=None,
) -> SweepResult:
    """Evaluate ``model(value)`` over *values*.

    Parameters
    ----------
    model / parameter / values:
        The function to evaluate, the swept parameter's name, and the
        points to evaluate it at.
    engine:
        Optional :class:`~repro.engine.EvaluationEngine`; evaluations
        run through it (parallel and/or memoized) with outputs in sweep
        order — bit-identical to the default in-process loop.
    keys:
        Optional per-value content-addressed cache keys (see
        :func:`repro.engine.canonical_key`); only meaningful with an
        engine.
    journal:
        Optional journal (or path) passed to the engine: completed
        points are durably recorded and an interrupted sweep resumes
        when re-run over the same journal.  Requires *engine*.

    Examples
    --------
    >>> result = sweep(lambda n: 1 - 0.1 ** n, "servers", [1, 2, 3])
    >>> result.outputs
    (0.9, 0.99, 0.999)
    """
    values = tuple(values)
    if not values:
        raise ValidationError("sweep needs at least one value")
    if engine is None:
        if journal is not None:
            raise ValidationError("a journaled sweep needs an engine")
        outputs = tuple(float(model(v)) for v in values)
    else:
        batch = engine.map(
            model, values, keys=keys, phase=f"sweep {parameter}",
            journal=journal,
        )
        outputs = _float_outputs(batch.outputs, journal)
    return SweepResult(parameter=parameter, values=values, outputs=outputs)


def grid_sweep(
    model: Callable[[float, float], float],
    row_parameter: str,
    row_values: Iterable[float],
    column_parameter: str,
    column_values: Iterable[float],
    engine: Optional["EvaluationEngine"] = None,
    keys: Optional[Sequence[Optional[str]]] = None,
    journal=None,
) -> GridSweepResult:
    """Evaluate ``model(row_value, column_value)`` over a grid.

    The Fig. 11/12 studies are grid sweeps: failure rate x number of
    servers, one curve per row.

    Parameters
    ----------
    engine:
        Optional :class:`~repro.engine.EvaluationEngine`; grid cells
        are evaluated through it as one flat batch (row-major order).
    keys:
        Optional per-cell cache keys, row-major, matching the flattened
        grid.
    journal:
        Optional journal (or path) passed to the engine; an interrupted
        grid resumes when re-run over the same journal.  Requires
        *engine*.
    """
    row_values = tuple(row_values)
    column_values = tuple(column_values)
    if not row_values or not column_values:
        raise ValidationError("grid sweep needs at least one value per axis")
    if engine is None:
        if journal is not None:
            raise ValidationError("a journaled sweep needs an engine")
        outputs = tuple(
            tuple(float(model(r, c)) for c in column_values)
            for r in row_values
        )
    else:
        cells = [(r, c) for r in row_values for c in column_values]
        batch = engine.map(
            _GridCell(model),
            cells,
            keys=keys,
            phase=f"grid {row_parameter} x {column_parameter}",
            journal=journal,
        )
        flat = _float_outputs(batch.outputs, journal)
        columns = len(column_values)
        outputs = tuple(
            flat[i * columns:(i + 1) * columns]
            for i in range(len(row_values))
        )
    return GridSweepResult(
        row_parameter=row_parameter,
        column_parameter=column_parameter,
        row_values=row_values,
        column_values=column_values,
        outputs=outputs,
    )
