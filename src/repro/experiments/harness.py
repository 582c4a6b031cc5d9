"""Shared experiment harness.

An experiment = a sweep + a reference model + error metrics + report
rendering.  Each ``figN``/``table1``/``case_study`` module configures this
harness with the paper's parameters; the benchmark suite then prints the
same rows/series the paper reports.

Reporting a stored result (:meth:`ExperimentResult.from_payload` and the
text renderers) needs none of the models, calibration or caches, so
those are imported only by the functions that solve.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from ..analysis import (
    ErrorMetrics,
    ascii_plot,
    format_series_table,
    series_errors,
)
from ..errors import ExperimentError

if TYPE_CHECKING:
    from ..core.base import ThermalTSVModel
    from ..core.model_a import ModelA
    from ..core.sweep import Configurator, SweepResult
    from ..perf.executors import SweepExecutor


@dataclass(frozen=True)
class ExperimentResult:
    """A completed experiment, ready for reporting."""

    experiment_id: str
    title: str
    x_label: str
    x_values: list[Any]
    series: dict[str, list[float]]  # model name -> max ΔT series
    reference_name: str
    errors: dict[str, ErrorMetrics]  # vs the reference, per non-reference model
    runtimes_ms: dict[str, float]  # mean solve time per model
    metadata: dict[str, Any] = field(default_factory=dict)
    sweep_result: SweepResult | None = None

    def table_text(self) -> str:
        """The figure's data as an aligned table (ΔT in °C rise)."""
        return format_series_table(self.x_label, self.x_values, self.series)

    def plot_text(self, *, width: int = 72, height: int = 18) -> str:
        """ASCII rendition of the figure."""
        x = [float(v) for v in self.x_values]
        return ascii_plot(
            x,
            self.series,
            width=width,
            height=height,
            x_label=self.x_label,
            y_label="max ΔT [°C]",
        )

    def error_rows(self) -> list[list[Any]]:
        """Error table rows: model, max %, avg %, mean runtime ms."""
        rows: list[list[Any]] = [["model", "max err %", "avg err %", "time [ms]"]]
        for name, err in self.errors.items():
            pct = err.as_percentages()
            rows.append([name, pct["max_%"], pct["avg_%"], self.runtimes_ms[name]])
        return rows

    def to_payload(self) -> dict[str, Any]:
        """JSON-serialisable dump for the export helpers and the run store.

        ``errors`` holds the raw fractions (exact float round-trip via
        :meth:`from_payload`); ``errors_pct`` keeps the human-readable
        percentages the reports use.
        """
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "x_label": self.x_label,
            "x_values": self.x_values,
            "series": self.series,
            "reference": self.reference_name,
            "errors": {
                name: {
                    "max_error": err.max_error,
                    "avg_error": err.avg_error,
                    "rms_error": err.rms_error,
                    "signed_mean": err.signed_mean,
                }
                for name, err in self.errors.items()
            },
            "errors_pct": {
                name: err.as_percentages() for name, err in self.errors.items()
            },
            "runtimes_ms": self.runtimes_ms,
            "metadata": self.metadata,
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_payload` output (store/JSON).

        The numeric content round-trips exactly (JSON preserves doubles);
        only ``sweep_result`` — the raw per-point solver output — is not
        serialised and comes back as ``None``.
        """
        try:
            raw_errors = payload.get("errors")
            if raw_errors is not None:
                errors = {
                    name: ErrorMetrics(**values) for name, values in raw_errors.items()
                }
            else:  # pre-store payloads carried percentages only
                errors = {
                    name: ErrorMetrics(
                        max_error=pct["max_%"] / 100.0,
                        avg_error=pct["avg_%"] / 100.0,
                        rms_error=pct["rms_%"] / 100.0,
                        signed_mean=pct["signed_mean_%"] / 100.0,
                    )
                    for name, pct in payload["errors_pct"].items()
                }
            return cls(
                experiment_id=payload["experiment_id"],
                title=payload["title"],
                x_label=payload["x_label"],
                x_values=list(payload["x_values"]),
                series={name: list(ys) for name, ys in payload["series"].items()},
                reference_name=payload["reference"],
                errors=errors,
                runtimes_ms=dict(payload["runtimes_ms"]),
                metadata=dict(payload.get("metadata", {})),
            )
        except (KeyError, TypeError) as exc:
            raise ExperimentError(
                f"malformed experiment payload: {exc!r}"
            ) from exc


def calibration_sample_indexes(n_values: int, n_samples: int = 4) -> list[int]:
    """Indexes of the sweep values calibration samples at.

    Up to ``n_samples`` evenly spaced positions.  Shared by the eager path
    (:func:`calibrated_model_a`) and the execution-plan compiler, which
    lowers the same samples into plan nodes — both must pick identical
    values for the fitted coefficients to match.
    """
    if n_samples < 2:
        raise ExperimentError("calibration needs at least two samples")
    step = max(1, (n_values - 1) // (n_samples - 1)) if n_values > 1 else 1
    picked = list(range(n_values))[::step][:n_samples]
    if len(picked) < 2:
        picked = list(range(n_values))[:2]
    return picked


def calibration_sample_values(
    values: Sequence[Any], n_samples: int = 4
) -> list[Any]:
    """The sweep values calibration samples at (see the index variant)."""
    values = list(values)
    return [values[i] for i in calibration_sample_indexes(len(values), n_samples)]


def calibrated_model_from_fit(
    coefficients: Any, *, name: str = "model_a_cal"
) -> ModelA:
    """The ``model_a_cal`` instance a finished coefficient fit defines."""
    from ..core.model_a import ModelA

    model = ModelA(coefficients)
    model.name = name
    return model


def calibrated_model_a(
    values: Sequence[Any],
    configure: Configurator,
    reference: ThermalTSVModel,
    *,
    n_samples: int = 4,
    name: str = "model_a_cal",
) -> ModelA:
    """Model A with coefficients fitted to the experiment's own reference.

    This is the paper's actual workflow — k1/k2 come from "the simulation
    of a block" — re-run against *our* FEM.  Samples are taken at up to
    ``n_samples`` evenly spaced sweep values.

    Finished fits are memoized in the global result cache keyed on
    (reference config, sample solve keys) — the same
    :func:`repro.perf.calibration_key` identity the execution-plan
    compiler uses — so repeated in-process batches skip the least-squares
    fit itself, whichever path (eager or planned) ran first.  The fit is
    deterministic, so a cache hit returns identical coefficients.
    """
    from ..calibration import fit_coefficients
    from ..perf.memo import (
        calibration_fit_key,
        calibration_key,
        memoized_fit,
        model_key,
        solve_key,
    )

    samples = [configure(v) for v in calibration_sample_values(values, n_samples)]
    fit_key = calibration_fit_key(
        calibration_key(
            model_key(reference),
            (solve_key(reference, *sample) for sample in samples),
            name,
        )
    )
    fit, _ = memoized_fit(fit_key, lambda: fit_coefficients(samples, reference))
    return calibrated_model_from_fit(fit.coefficients, name=name)


def run_sweep_experiment(
    *,
    experiment_id: str,
    title: str,
    x_label: str,
    values: Sequence[Any],
    configure: Configurator,
    models: Sequence[ThermalTSVModel],
    reference: ThermalTSVModel,
    metadata: dict[str, Any] | None = None,
    executor: SweepExecutor | None = None,
) -> ExperimentResult:
    """Sweep all models plus the reference and compute errors against it.

    ``executor`` selects the sweep execution strategy (serial by default;
    see :class:`repro.perf.ParallelExecutor` for ``--jobs N`` fan-out).
    """
    from ..core.sweep import sweep

    all_models = list(models) + [reference]
    names = [m.name for m in all_models]
    if len(set(names)) != len(names):
        raise ExperimentError(f"duplicate model names in experiment: {names}")
    result = sweep(
        x_label, values, all_models, configure, metadata=metadata,
        executor=executor,
    )
    return assemble_experiment(
        experiment_id=experiment_id,
        title=title,
        x_label=x_label,
        values=values,
        model_names=[m.name for m in models],
        reference_name=reference.name,
        result=result,
        metadata=metadata,
    )


def assemble_experiment(
    *,
    experiment_id: str,
    title: str,
    x_label: str,
    values: Sequence[Any],
    model_names: Sequence[str],
    reference_name: str,
    result: SweepResult,
    metadata: dict[str, Any] | None = None,
) -> ExperimentResult:
    """Derive an :class:`ExperimentResult` from an already-solved sweep.

    The "assemble" half of :func:`run_sweep_experiment`: series, errors
    against the reference and mean runtimes are pure functions of the
    solved points, so the execution-plan scheduler reuses this unchanged
    to reassemble per-scenario results from plan nodes — guaranteeing the
    planned and eager paths build byte-identical payloads.
    """
    all_names = list(model_names) + [reference_name]
    reference_series = result.series(reference_name)
    series = {name: result.series(name) for name in all_names}
    errors = {
        name: series_errors(series[name], reference_series) for name in model_names
    }
    runtimes = {
        name: float(
            np.mean([r.solve_time for r in result.result_series(name)]) * 1e3
        )
        for name in all_names
    }
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        x_label=x_label,
        x_values=list(values),
        series=series,
        reference_name=reference_name,
        errors=errors,
        runtimes_ms=runtimes,
        metadata=metadata or {},
        sweep_result=result,
    )
