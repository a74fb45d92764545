"""Numerical tolerances used across the analysis pipeline.

Each threshold is set against the scale of the quantity it guards.  No
surface or family verdict has a floor in units of length, so translating,
rotating or dilating a scene changes none.  Family thresholds read the family (causal bands are
relative to max_p (|dc_p|^2 + drho_p^2) / rho^2, frame floors to the spine's
speed); surface ones read the curvature at the same sample (clustering
max|eig h|, the umbilic test ||h||, the canal metric ||a||^2, the Dupin
metric |lam3| + ||h||^2).  A single frozen `Tolerances` value is threaded
through the public entry points; tests and the command line may override
individual fields.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # relative band around <X,X> = 0 used when classifying lifted vectors
    isotropy: float = 1.0e-9
    # relative band around <v,v> = 0 for causal classification of directions and families
    lightcone: float = 1.0e-9
    # band around |inversive product| = 1 separating pencil types
    pencil: float = 1.0e-9
    # eigenvalue clustering width, relative to max|eig h| at the sample
    clustering: float = 1.0e-6
    # |a_iii| / ||a||^2 threshold for the one-parameter canal criterion
    canal: float = 1.0e-3
    # ||a_ijk|| / (||lam3|| + ||h||^2) threshold for the cyclide criterion (n = 3)
    dupin: float = 1.0e-6
    # ||a|| / ||h|| threshold below which a sample counts as umbilic
    umbilic: float = 1.0e-8
    # relative width of the degenerate band for the focal discriminant
    discriminant: float = 1.0e-8

    def replace(self, **kwargs) -> "Tolerances":
        return dataclasses.replace(self, **kwargs)

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


DEFAULT_TOLERANCES = Tolerances()
