"""Core analytical models: Model A, Model B, the 1-D baseline, sweeps."""

from .._lazy import lazy_exports

__all__ = [
    "ThermalTSVModel",
    "AssembledSystem",
    "solve_stacked",
    "ModelResult",
    "ModelA",
    "ModelB",
    "Model1D",
    "SegmentScheme",
    "build_model_a_circuit",
    "build_model_b_circuit",
    "solve_three_plane_closed_form",
    "make_model",
    "sweep",
    "SweepResult",
    "SweepPoint",
    "NonlinearSolver",
    "NonlinearResult",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".base": ("AssembledSystem", "ThermalTSVModel", "solve_stacked"),
        ".factory": ("make_model",),
        ".model_1d": ("Model1D",),
        ".model_a": (
            "ModelA",
            "build_model_a_circuit",
            "solve_three_plane_closed_form",
        ),
        ".model_b": ("ModelB", "SegmentScheme", "build_model_b_circuit"),
        ".nonlinear": ("NonlinearResult", "NonlinearSolver"),
        ".result": ("ModelResult",),
        ".sweep": ("SweepPoint", "SweepResult", "sweep"),
    },
)
