"""The paper's reported numbers (as data) and fitted model constants.

:mod:`repro.calibration.paper` transcribes every quantitative claim in the
paper's evaluation; :mod:`repro.calibration.fitted` holds the per-app
constants our models are anchored to, with the derivations documented,
as one immutable :class:`Calibration` value (:data:`DEFAULT`).  The
models read :func:`current`; ``with use(value):`` selects another value
for the calling thread or task.
"""

from repro.calibration import paper
from repro.calibration import fitted
from repro.calibration.fitted import DEFAULT, Calibration, current, use

__all__ = ["paper", "fitted", "Calibration", "DEFAULT", "current", "use"]
