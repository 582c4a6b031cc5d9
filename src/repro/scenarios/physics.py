"""Physics-kind execution: transient and nonlinear scenarios as plan work.

The spec layer declares *what* a transient or nonlinear scenario is
(:class:`~repro.scenarios.spec.TransientParams` /
:class:`~repro.scenarios.spec.NonlinearParams`); this module supplies the
pieces that make those kinds executable through the same machinery the
steady-state sweeps use:

* :func:`build_transient_circuit` — Model A's network with thermal mass
  attached per the capacitance policy (the circuit the RC step response
  integrates);
* :class:`TransientModel` — a model-shaped adapter around one network +
  time grid.  It dispatches through the ordinary
  :class:`~repro.perf.PointTask` machinery, and because the backward-Euler
  left-hand matrix C/dt + G is power-independent it also implements the
  matrix-group contract (``assembly_key`` / ``solve_batch``): trajectories
  sharing a network factorise once and integrate per drive level;
* :class:`NonlinearModel` — the k(T) fixed-point chain around any inner
  model, seeded with a precomputed linear baseline (a plain
  :class:`~repro.scenarios.plan.SolveNode` shared — and deduplicated —
  with steady-state scenarios at the same point);
* :class:`TransientExperiment` / :class:`NonlinearExperiment` — the
  scenario-level result containers with exact JSON payload round-trips
  for the run store;
* :func:`run_transient_spec_direct` / :func:`run_nonlinear_spec_direct` —
  the reference implementations: plain :func:`~repro.network.step_response`
  / :class:`~repro.core.nonlinear.NonlinearSolver` library calls, which
  the planned path must match byte-for-byte (asserted by tests and the
  bench checks).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..core.factory import make_model
from ..core.model_a import ModelA, build_model_a_circuit, bulk_node
from ..core.nonlinear import NonlinearResult, NonlinearSolver
from ..core.result import ModelResult
from ..errors import ExperimentError, ValidationError
from ..geometry import PowerSpec, Stack3D, TSV, TSVCluster, validate_tsv_in_stack
from ..geometry.tsv import as_cluster
from ..network import (
    ThermalCircuit,
    TransientResult,
    pulse_train_scales,
    step_response,
    transient_lhs,
)
from ..network.solve import factorized_solver
from ..perf import content_key, model_key
from .spec import NonlinearParams, ScenarioSpec, TransientParams

#: x-axis placeholder for axis-less physics scenarios (one base-geometry point)
BASE_POINT_VALUE = "base"
BASE_POINT_LABEL = "geometry"


def transient_model_name(inner_name: str) -> str:
    """Report/series name of a transient trajectory of one inner model."""
    return f"transient({inner_name})"


def nonlinear_model_name(inner_name: str) -> str:
    """Report/series name of a k(T) fixed point around one inner model."""
    return f"nonlinear({inner_name})"


def default_observed_nodes(stack: Stack3D) -> tuple[str, ...]:
    """The plane bulk nodes — what a transient scenario observes by default."""
    return tuple(bulk_node(j) for j in range(stack.n_planes))


def plane_capacitance(stack: Stack3D, plane_index: int, policy: str) -> float:
    """Thermal capacitance (J/K) lumped onto one plane's bulk node.

    ``"plane_lumped"`` spreads the substrate material's ρ·cp over the
    plane's full thickness (the library's historical transient example);
    ``"substrate_ild"`` sums the substrate and ILD capacities from their
    own materials and thicknesses.
    """
    plane = stack.planes[plane_index]
    if policy == "plane_lumped":
        return (
            stack.footprint_area
            * plane.thickness
            * plane.substrate.material.volumetric_heat_capacity
        )
    if policy == "substrate_ild":
        return stack.footprint_area * (
            plane.substrate.thickness
            * plane.substrate.material.volumetric_heat_capacity
            + plane.ild.thickness * plane.ild.material.volumetric_heat_capacity
        )
    raise ValidationError(f"unknown capacitance policy {policy!r}")


def build_transient_circuit(
    model: ModelA,
    stack: Stack3D,
    via: TSV | TSVCluster,
    power: PowerSpec,
    capacitance: str = "plane_lumped",
) -> ThermalCircuit:
    """Model A's Fig. 2 network with per-plane thermal mass attached.

    The resistive skeleton and the heat sources are exactly what the
    steady-state :class:`~repro.core.model_a.ModelA` solve assembles; the
    capacitance policy adds one capacitor per plane bulk node, turning
    G·ΔT = q into the RC system C·dΔT/dt + G·ΔT = q(t).
    """
    if not isinstance(model, ModelA):
        raise ValidationError(
            f"transient circuits are built from Model A networks, "
            f"got {type(model).__name__}"
        )
    cluster = as_cluster(via)
    validate_tsv_in_stack(stack, cluster.member)
    heats = tuple(power.plane_heat(stack, j) for j in range(stack.n_planes))
    circuit = build_model_a_circuit(model.resistances(stack, cluster), heats)
    for j, _plane in stack.iter_planes():
        circuit.add_capacitor(
            bulk_node(j), plane_capacitance(stack, j, capacitance)
        )
    return circuit


# ---------------------------------------------------------------------------
# model-shaped adapters (the units the scheduler dispatches)
# ---------------------------------------------------------------------------
class TransientModel:
    """One RC step response as a dispatchable, model-shaped unit of work.

    ``solve(stack, via, power)`` integrates the backward-Euler trajectory
    of the inner Model A network under the given drive power and returns
    the :class:`~repro.network.TransientResult` restricted to the observed
    nodes.  The adapter carries only the *right-hand-side-invariant*
    configuration plus the drive shape — time grid, capacitance policy,
    observed nodes, pulse-train parameters — never the drive *level*:
    the plan bakes ``power_scale`` into each node's power, and the drive
    shape only rescales the per-step sources, so the left-hand matrix
    C/dt + G (and hence :meth:`assembly_key`) is shared across drive
    levels and the adapter implements the matrix-group contract:
    ``solve_batch`` factorises once and integrates one trajectory per
    drive — bit-identical to per-point solves (factorization is
    deterministic and shared through the factor cache either way).
    """

    def __init__(
        self,
        model: ModelA,
        params: TransientParams,
        observe: tuple[str, ...],
    ) -> None:
        self.model = model
        self.t_end_s = params.t_end_s
        self.n_steps = params.n_steps
        self.capacitance = params.capacitance
        self.drive = params.drive
        self.period_s = params.period_s
        self.duty = params.duty
        self.observe = tuple(observe)
        self.name = transient_model_name(model.name)

    def _drive_scales(self) -> np.ndarray | None:
        """Per-step source scales, or ``None`` for the constant step drive."""
        if self.drive == "step":
            return None
        return pulse_train_scales(
            self.t_end_s, self.n_steps, self.period_s, self.duty
        )

    def _circuit(
        self, stack: Stack3D, via: TSV | TSVCluster, power: PowerSpec
    ) -> ThermalCircuit:
        return build_transient_circuit(
            self.model, stack, via, power, self.capacitance
        )

    def solve(
        self, stack: Stack3D, via: TSV | TSVCluster, power: PowerSpec
    ) -> TransientResult:
        result = step_response(
            self._circuit(stack, via, power),
            t_end=self.t_end_s,
            n_steps=self.n_steps,
            drive=self._drive_scales(),
        )
        return result.observed(self.observe)

    def assembly_key(
        self, stack: Stack3D, via: TSV | TSVCluster
    ) -> str | None:
        """Content hash of the backward-Euler system C/dt + G at (stack, via).

        The matrix depends on the network (inner model config, stack,
        via), the capacitance policy and the time grid — everything in
        this adapter's configuration — but not on the drive power, which
        only shapes the per-step right-hand side.
        """
        return content_key(
            "transient_assembly/v1", model_key(self), stack, as_cluster(via)
        )

    def solve_batch(
        self,
        stack: Stack3D,
        via: TSV | TSVCluster,
        powers: Sequence[PowerSpec],
    ) -> list[TransientResult]:
        """Integrate many drive levels of one network.

        The left-hand matrix is assembled and factorised once
        (:func:`~repro.network.transient_lhs` + the precomputed-solver
        hook of :func:`~repro.network.step_response`); each drive level
        costs its per-step back-substitutions only.
        """
        powers = list(powers)
        if not powers:
            return []
        circuits = [self._circuit(stack, via, power) for power in powers]
        dt = self.t_end_s / self.n_steps
        step_solver = factorized_solver(transient_lhs(circuits[0], dt))
        drive = self._drive_scales()
        return [
            step_response(
                circuit,
                t_end=self.t_end_s,
                n_steps=self.n_steps,
                step_solver=step_solver,
                drive=drive,
            ).observed(self.observe)
            for circuit in circuits
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<TransientModel {self.name!r}>"


class NonlinearModel:
    """One k(T) fixed-point chain as a dispatchable, model-shaped unit.

    ``initial`` optionally carries the precomputed constant-k baseline —
    the plan lowers it as an ordinary solve node shared (and deduplicated)
    with steady-state scenarios, and the scheduler hands the landed result
    in here.  Solves are deterministic, so seeded and unseeded chains are
    bit-identical.
    """

    def __init__(
        self,
        model: Any,
        params: NonlinearParams,
        initial: ModelResult | None = None,
    ) -> None:
        self.model = model
        self.params = params
        self.initial = initial
        self.name = nonlinear_model_name(model.name)

    def solve(
        self, stack: Stack3D, via: TSV | TSVCluster, power: PowerSpec
    ) -> NonlinearResult:
        solver = NonlinearSolver(
            self.model,
            tolerance=self.params.tolerance,
            max_iterations=self.params.max_iterations,
            relaxation=self.params.relaxation,
            slope_scale=self.params.slope_scale,
        )
        return solver.solve(stack, via, power, initial=self.initial)

    def assembly_key(
        self, stack: Stack3D, via: TSV | TSVCluster
    ) -> str | None:
        """Always None: iterations re-assemble at updated conductivities."""
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<NonlinearModel {self.name!r}>"


# ---------------------------------------------------------------------------
# scenario-level result containers
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TransientExperiment:
    """A completed transient scenario: one trajectory per (model, value).

    ``results[name][i]`` is the observed-node trajectory of adapter
    ``name`` at ``x_values[i]``.  The payload round-trips exactly —
    trajectories are deterministic and carry no wall-clock times.
    """

    experiment_id: str
    title: str
    x_label: str
    x_values: list[Any]
    results: dict[str, list[TransientResult]]
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def series(self) -> dict[str, list[float]]:
        """Final (steady-state) max rise per model per value."""
        return {
            name: [float(r.final.max()) for r in trajectories]
            for name, trajectories in self.results.items()
        }

    def result_at(self, model_name: str, value: Any) -> TransientResult:
        """The trajectory of one model at one axis value."""
        try:
            i = self.x_values.index(value)
            return self.results[model_name][i]
        except (KeyError, ValueError):
            raise ValidationError(
                f"no trajectory for ({model_name!r}, {value!r}); models: "
                f"{sorted(self.results)}, values: {self.x_values}"
            ) from None

    def rows(self) -> list[list[Any]]:
        """Report rows: final/peak rise and the 90 % settle time per point."""
        out: list[list[Any]] = [
            ["value", "model", "final ΔT [°C]", "peak ΔT [°C]", "t90 [µs]"]
        ]
        for i, value in enumerate(self.x_values):
            for name, trajectories in self.results.items():
                r = trajectories[i]
                hottest = r.nodes[int(np.argmax(r.final))]
                out.append(
                    [
                        value,
                        name,
                        float(r.final.max()),
                        r.peak_rise,
                        r.settle_time(hottest) * 1e6,
                    ]
                )
        return out

    def to_payload(self) -> dict[str, Any]:
        return {
            "kind": "transient",
            "experiment_id": self.experiment_id,
            "title": self.title,
            "x_label": self.x_label,
            "x_values": list(self.x_values),
            "series": self.series,
            "results": {
                name: [r.to_payload() for r in trajectories]
                for name, trajectories in self.results.items()
            },
            "metadata": self.metadata,
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "TransientExperiment":
        try:
            return cls(
                experiment_id=payload["experiment_id"],
                title=payload["title"],
                x_label=payload["x_label"],
                x_values=list(payload["x_values"]),
                results={
                    name: [TransientResult.from_payload(p) for p in trajectories]
                    for name, trajectories in payload["results"].items()
                },
                metadata=dict(payload.get("metadata", {})),
            )
        except (KeyError, TypeError) as exc:
            raise ExperimentError(
                f"malformed transient experiment payload: {exc!r}"
            ) from exc


@dataclass(frozen=True)
class NonlinearExperiment:
    """A completed nonlinear scenario: one fixed point per (model, value).

    Every :class:`~repro.core.nonlinear.NonlinearResult` carries its
    constant-k baseline (``history[0]``), so the linear-vs-nonlinear
    comparison needs no separate reference sweep.
    """

    experiment_id: str
    title: str
    x_label: str
    x_values: list[Any]
    results: dict[str, list[NonlinearResult]]
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def series(self) -> dict[str, list[float]]:
        """Converged max rise per model per value."""
        return {
            name: [r.max_rise for r in results]
            for name, results in self.results.items()
        }

    def result_at(self, model_name: str, value: Any) -> NonlinearResult:
        """The fixed-point result of one model at one axis value."""
        try:
            i = self.x_values.index(value)
            return self.results[model_name][i]
        except (KeyError, ValueError):
            raise ValidationError(
                f"no result for ({model_name!r}, {value!r}); models: "
                f"{sorted(self.results)}, values: {self.x_values}"
            ) from None

    def rows(self) -> list[list[Any]]:
        """Report rows: linear vs converged rise and loop diagnostics."""
        out: list[list[Any]] = [
            ["value", "model", "linear ΔT [°C]", "k(T) ΔT [°C]", "lin err %", "iters"]
        ]
        for i, value in enumerate(self.x_values):
            for name, results in self.results.items():
                r = results[i]
                out.append(
                    [
                        value,
                        name,
                        r.linear_rise,
                        r.max_rise,
                        r.linear_error * 100.0,
                        r.iterations,
                    ]
                )
        return out

    def to_payload(self) -> dict[str, Any]:
        return {
            "kind": "nonlinear",
            "experiment_id": self.experiment_id,
            "title": self.title,
            "x_label": self.x_label,
            "x_values": list(self.x_values),
            "series": self.series,
            "results": {
                name: [r.to_payload() for r in results]
                for name, results in self.results.items()
            },
            "metadata": self.metadata,
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "NonlinearExperiment":
        try:
            return cls(
                experiment_id=payload["experiment_id"],
                title=payload["title"],
                x_label=payload["x_label"],
                x_values=list(payload["x_values"]),
                results={
                    name: [NonlinearResult.from_payload(p) for p in results]
                    for name, results in payload["results"].items()
                },
                metadata=dict(payload.get("metadata", {})),
            )
        except (KeyError, TypeError) as exc:
            raise ExperimentError(
                f"malformed nonlinear experiment payload: {exc!r}"
            ) from exc


# ---------------------------------------------------------------------------
# direct (reference) execution — plain library calls, no plan machinery
# ---------------------------------------------------------------------------
def _drive_power(power: PowerSpec, params: TransientParams) -> PowerSpec:
    return power if params.power_scale == 1.0 else power.scaled(params.power_scale)


def run_transient_spec_direct(
    spec: ScenarioSpec, *, fast: bool = False
) -> TransientExperiment:
    """A transient scenario via direct :func:`step_response` library calls.

    The reference implementation the planned path must match byte-for-byte
    (same expansion into points, but every trajectory integrated by plain
    library composition — no nodes, caches or stores involved).
    """
    from .plan import scenario_axis_points

    params = spec.transient
    assert params is not None  # guaranteed by ScenarioSpec validation
    x_label, values, points = scenario_axis_points(spec)
    drive = (
        pulse_train_scales(
            params.t_end_s, params.n_steps, params.period_s, params.duty
        )
        if params.drive == "pulse_train"
        else None
    )
    results: dict[str, list[TransientResult]] = {}
    for model_spec in spec.models:
        inner = make_model(model_spec)
        name = transient_model_name(inner.name)
        if name in results:
            raise ExperimentError(f"duplicate model names in scenario: {name}")
        trajectories = []
        for stack, via, power in points:
            circuit = build_transient_circuit(
                inner, stack, via, _drive_power(power, params), params.capacitance
            )
            full = step_response(
                circuit, t_end=params.t_end_s, n_steps=params.n_steps, drive=drive
            )
            trajectories.append(
                full.observed(params.observe or default_observed_nodes(stack))
            )
        results[name] = trajectories
    return TransientExperiment(
        experiment_id=spec.scenario_id,
        title=spec.title,
        x_label=x_label,
        x_values=list(values),
        results=results,
        metadata={
            **dict(spec.metadata), "fast": fast, "spec_hash": spec.content_hash(),
        },
    )


def run_nonlinear_spec_direct(
    spec: ScenarioSpec, *, fast: bool = False
) -> NonlinearExperiment:
    """A nonlinear scenario via direct :class:`NonlinearSolver` library calls."""
    from .plan import scenario_axis_points

    params = spec.nonlinear
    assert params is not None  # guaranteed by ScenarioSpec validation
    x_label, values, points = scenario_axis_points(spec)
    results: dict[str, list[NonlinearResult]] = {}
    for model_spec in spec.models:
        inner = make_model(model_spec)
        name = nonlinear_model_name(inner.name)
        if name in results:
            raise ExperimentError(f"duplicate model names in scenario: {name}")
        solver = NonlinearSolver(
            inner,
            tolerance=params.tolerance,
            max_iterations=params.max_iterations,
            relaxation=params.relaxation,
            slope_scale=params.slope_scale,
        )
        results[name] = [
            solver.solve(stack, via, power) for stack, via, power in points
        ]
    return NonlinearExperiment(
        experiment_id=spec.scenario_id,
        title=spec.title,
        x_label=x_label,
        x_values=list(values),
        results=results,
        metadata={
            **dict(spec.metadata), "fast": fast, "spec_hash": spec.content_hash(),
        },
    )
