"""The paper's experiment support: parameters, facts, harness, reporting.

Figs. 4–7 and Table I run as registered scenarios
(:mod:`repro.scenarios.builtin`); this package keeps what they share —
the captions' parameters (:mod:`.params`), the paper's stated numbers
(:mod:`.paper_facts`), the sweep/error harness, the case-study entry point
and the EXPERIMENTS.md renderer.
"""

from .._lazy import lazy_exports

__all__ = [
    "ExperimentResult",
    "run_sweep_experiment",
    "render_markdown",
    "table1_segments",
    "case_study",
    "paper_facts",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".": ("case_study", "paper_facts", "table1_segments"),
        ".harness": ("ExperimentResult", "run_sweep_experiment"),
        ".runner": ("render_markdown",),
    },
)
