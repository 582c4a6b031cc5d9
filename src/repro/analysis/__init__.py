"""Analysis: error metrics, convergence studies, tables, plots, export."""

from .._lazy import lazy_exports

__all__ = [
    "ErrorMetrics",
    "series_errors",
    "relative_errors",
    "crossover_points",
    "is_monotonic",
    "format_table",
    "format_series_table",
    "format_kv_block",
    "ascii_plot",
    "export_series_csv",
    "export_json",
    "read_series_csv",
    "segment_convergence",
    "mesh_convergence",
    "richardson_extrapolate",
    "ConvergencePoint",
    "Sensitivity",
    "sensitivity",
    "sensitivity_table",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".ascii_plot": ("ascii_plot",),
        ".convergence": (
            "ConvergencePoint",
            "mesh_convergence",
            "richardson_extrapolate",
            "segment_convergence",
        ),
        ".export": ("export_json", "export_series_csv", "read_series_csv"),
        ".metrics": (
            "ErrorMetrics",
            "crossover_points",
            "is_monotonic",
            "relative_errors",
            "series_errors",
        ),
        ".report": ("format_kv_block", "format_series_table", "format_table"),
        ".sensitivity": ("Sensitivity", "sensitivity", "sensitivity_table"),
    },
)
