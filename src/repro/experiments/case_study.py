"""Section IV-E experiment — the 3-D DRAM-µP system.

Wraps :mod:`repro.casestudy` into the experiment interface and optionally
re-runs the paper's *calibration workflow*: instead of taking k1/k2/c on
faith, fit them against our own FEM on the unit cell and report how well
the recalibrated Model A tracks the reference (the paper's 1.9-minute
"simulation of a block" step).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..resistances.fitting import FittingCoefficients

if TYPE_CHECKING:
    from ..casestudy import CaseStudyReport

EXPERIMENT_ID = "case_study"
TITLE = "Section IV-E: 3-D DRAM-uP case study"


@dataclass(frozen=True)
class CaseStudyExperiment:
    """Case-study outcome: paper-coefficient run plus optional recalibration."""

    report: CaseStudyReport
    recalibrated: FittingCoefficients | None = None
    recalibrated_rise: float | None = None
    metadata: dict[str, Any] = field(default_factory=dict)

    def rows(self) -> list[list[Any]]:
        out = self.report.rows()
        if self.recalibrated is not None:
            out.append(
                [
                    f"model_a (recal. k1={self.recalibrated.k1:.2f}, "
                    f"k2={self.recalibrated.k2:.2f})",
                    self.recalibrated_rise,
                    float("nan"),
                ]
            )
        return out

    def to_payload(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "experiment_id": EXPERIMENT_ID,
            "title": TITLE,
            "rises": self.report.rises(),
            "runtimes_ms": {
                name: r.solve_time * 1e3 for name, r in self.report.results.items()
            },
            "n_vias": self.report.system.n_vias,
            "metadata": self.metadata,
        }
        if self.recalibrated is not None:
            payload["recalibrated"] = {
                "k1": self.recalibrated.k1,
                "k2": self.recalibrated.k2,
                "c_bond": self.recalibrated.c_bond,
                "max_rise": self.recalibrated_rise,
            }
        return payload


@dataclass(frozen=True)
class StoredCaseStudy:
    """A case-study run reloaded from the store (payload-backed view).

    Mirrors :class:`CaseStudyExperiment`'s reporting surface without
    importing the solver stack, so a store hit stays cheap.
    """

    payload: dict[str, Any]

    @property
    def title(self) -> str:
        return self.payload.get("title", TITLE)

    def rises(self) -> dict[str, float]:
        return dict(self.payload["rises"])

    def rows(self) -> list[list[Any]]:
        out: list[list[Any]] = [["model", "max ΔT [°C]", "solve time [ms]"]]
        runtimes = self.payload.get("runtimes_ms", {})
        for name, rise in self.payload["rises"].items():
            out.append([name, rise, runtimes.get(name, float("nan"))])
        recal = self.payload.get("recalibrated")
        if recal is not None:
            out.append(
                [
                    f"model_a (recal. k1={recal['k1']:.2f}, k2={recal['k2']:.2f})",
                    recal["max_rise"],
                    float("nan"),
                ]
            )
        return out

    def to_payload(self) -> dict[str, Any]:
        return self.payload


def run(
    *,
    fem_resolution: str | tuple[int, int] = "medium",
    fast: bool = False,
    recalibrate: bool = True,
    model_b_segments: int = 1000,
    jobs: int = 1,
) -> CaseStudyExperiment:
    """Run the case study; ``fast`` trims Model B to 100 segments.

    ``jobs`` is accepted for interface symmetry with the sweep experiments
    (``run_all`` forwards it everywhere) but unused: the case study solves
    a single operating point, so there is nothing to fan out.
    """
    del jobs
    from ..calibration import fit_coefficients
    from ..casestudy import analyze_case_study
    from ..core.model_a import ModelA
    from ..fem import FEMReference

    if fast:
        model_b_segments = 100
    report = analyze_case_study(
        fem_resolution=fem_resolution, model_b_segments=model_b_segments
    )
    recalibrated = None
    recalibrated_rise = None
    if recalibrate:
        system = report.system
        # the paper calibrates on the block itself; we fit (k1, k2) against
        # our FEM on the bond-enhanced unit cell, sampling two via radii
        fem_stack = system.cell_stack.with_bond_conductivity_factor(
            FittingCoefficients.paper_case_study().c_bond
        )
        samples = [
            (fem_stack, system.via.with_radius(r), system.cell_power)
            for r in (system.via.radius * 0.7, system.via.radius, system.via.radius * 1.3)
        ]
        fit = fit_coefficients(
            samples,
            FEMReference(fem_resolution),
            initial=FittingCoefficients.paper_case_study(),
        )
        # apply the fitted k1/k2 with the physical bond factor back on the
        # raw stack (c plays the same role in both formulations)
        recalibrated = FittingCoefficients(
            fit.coefficients.k1,
            fit.coefficients.k2,
            FittingCoefficients.paper_case_study().c_bond,
        )
        recalibrated_rise = (
            ModelA(recalibrated)
            .solve(system.cell_stack, system.via, system.cell_power)
            .max_rise
        )
    return CaseStudyExperiment(
        report=report,
        recalibrated=recalibrated,
        recalibrated_rise=recalibrated_rise,
        metadata={"fast": fast, "model_b_segments": model_b_segments},
    )
