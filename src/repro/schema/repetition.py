"""The repetitive-elements rule (Section 3.3).

Because every path in the majority schema is frequent, no element is
optional by default; the remaining question is whether an element occurs
once or repeatedly.  For a prefix ``p = p' . e``::

    rep(T_D, p)  = 1  iff the document realizes p with sibling
                      multiplicity num >= repThreshold
    mult(e)      = |{D : rep(T_D, p) = 1}| / |D^p_XML|

where ``D^p_XML`` are the documents containing ``p``.  ``e`` is rendered
``e+`` when ``mult(e)`` exceeds ``multThreshold`` (0.5 in the paper);
"empirical studies prove the value 3 to be useful" for ``repThreshold``
(also observed by XTRACT [17]).

Both fractions are read from a
:class:`~repro.schema.accumulator.PathAccumulator`:
:meth:`~repro.schema.accumulator.PathAccumulator.multiplicity_fraction`
is ``mult(e)``, and
:meth:`~repro.schema.accumulator.PathAccumulator.presence_fraction` --
how many documents containing the parent contain the child -- lets the
DTD deriver mark low-presence children ``e?`` when a deployment wants
optional elements.
"""

from __future__ import annotations

from repro.schema.accumulator import PathAccumulator
from repro.schema.paths import LabelPath

DEFAULT_REP_THRESHOLD = 3
MULT_THRESHOLD = 0.5


def is_repetitive(
    statistics: PathAccumulator,
    path: LabelPath,
    *,
    rep_threshold: int = DEFAULT_REP_THRESHOLD,
) -> bool:
    """Whether the tail element of ``path`` should be rendered ``e+``."""
    if rep_threshold <= 1:
        raise ValueError("repThreshold must be greater than 1 for e to be repetitive")
    return statistics.multiplicity_fraction(
        path, rep_threshold=rep_threshold
    ) > MULT_THRESHOLD
