"""Numerical tolerances used across the analysis pipeline.

Each threshold is set against the scale of the quantity it guards, but some
have floors: clustering is relative to max(1, max|eig h|), the umbilic test to
max(1, ||h||), the Dupin metric adds the absolute `canal._METRIC_FLOOR` to
|h|^2 and the canal metric divides by 1 + ||a3p||, so those verdicts change
when the scene is rescaled (ROADMAP item 1: an ellipsoid scaled by 100 comes
out canal).  A single frozen `Tolerances` value is threaded through the public
entry points; tests and the command line may override individual fields.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # relative band around <X,X> = 0 used when classifying lifted vectors
    isotropy: float = 1.0e-9
    # relative band around <v,v> = 0 for causal classification of directions
    lightcone: float = 1.0e-9
    # band around |inversive product| = 1 separating pencil types
    pencil: float = 1.0e-9
    # eigenvalue clustering width, relative to max(1, max|eig h|)
    clustering: float = 1.0e-6
    # normalized |a_iii| threshold for the one-parameter canal criterion
    canal: float = 1.0e-3
    # normalized ||a_ijk|| threshold for the cyclide criterion (n = 3)
    dupin: float = 1.0e-6
    # ||a|| / max(1, ||h||) threshold below which a sample counts as umbilic
    umbilic: float = 1.0e-8
    # maximum scalar-product residual accepted for a constructed frame
    frame_residual: float = 1.0e-8
    # relative width of the degenerate band for the focal discriminant
    discriminant: float = 1.0e-8

    def replace(self, **kwargs) -> "Tolerances":
        return dataclasses.replace(self, **kwargs)

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


DEFAULT_TOLERANCES = Tolerances()
