"""Error mitigation for the solution-finding step.

The Red-QAOA design (paper Fig. 4) runs the original graph only for the
final, already-optimized parameters, which makes error mitigation cheap to
apply there.  This subpackage provides the two standard techniques the
paper's discussion points to (ref. [55]):

- :mod:`repro.mitigation.zne` -- zero-noise extrapolation: evaluate the
  observable at amplified noise levels and Richardson-extrapolate to zero;
- :mod:`repro.mitigation.readout` -- measurement-error mitigation by
  inverting the per-qubit assignment confusion matrices.
"""

from repro.mitigation.readout import ReadoutError, ReadoutMitigator
from repro.mitigation.zne import (
    richardson_extrapolate,
    scale_noise,
    zne_maxcut_expectation,
)

__all__ = [
    "ReadoutError",
    "ReadoutMitigator",
    "richardson_extrapolate",
    "scale_noise",
    "zne_maxcut_expectation",
]
