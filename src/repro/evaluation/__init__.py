"""Evaluation harness for the paper's experiments (Section 4).

* :mod:`repro.evaluation.accuracy` -- logical-error counting against
  ground truth (Figure 4).
* :mod:`repro.evaluation.searchspace` -- constraint search-space
  accounting (Section 4.2).
* :mod:`repro.evaluation.scaling` -- runtime scalability sweeps
  (Figure 5).
* :mod:`repro.evaluation.report` -- plain-text tables and histograms.
"""

from repro import lazy_exports

lazy_exports(globals(), {
    ".accuracy": ("count_logical_errors", "DocumentErrors", "AccuracyReport", "evaluate_accuracy"),
    ".searchspace": ("SearchSpaceReport", "run_search_space_experiment"),
    ".scaling": ("ScalingPoint", "ScalingReport", "run_scaling_experiment"),
    ".report": ("format_table", "format_histogram"),
})
