"""The ``verify`` workload: an in-process library run modelled on acceptance
criteria 04 (R^4 round trip), 05 (R^3 round trip and dented tubes) and 08
(fast singular points against the rank-drop oracle), at a smaller size.

``setup`` builds every chart and family, ``analyse`` is the timed part, and
``gates`` checks the results afterwards against the acceptance tolerances.
Each call ``analyse`` makes into the library is one operation; a
``CanalGeoError`` it raises counts as one failed operation, and so does each
call skipped because an earlier one failed.  A healthy commit fails none, so
any failed operation is also a gate problem.
"""

from __future__ import annotations

import json
import math

import numpy as np
import sympy as sp
from canalgeo import canal, catalog, envelope, errors, focal, jets

from inputs import TWO_PI, VERIFY_CONTACT_COUNTS, spine_jet, verify_operations

# acceptance tolerances
ENV3_CUBIC_MAX = 1e-4
ENV4_CONTACT_MAX = 1e-4
DENT_FLOOR_MIN = 1e-2
ORACLE_AGREE_MIN = 0.98
ORACLE_GAP_MAX = 1e-3

# detect_canal grid sizes per chart kind
ANALYTIC_COUNTS = 6
DENT_COUNTS = 10
FD_COUNTS = 6
FD_COUNTS_R4 = 4
ENV3_COUNTS = 8
ENV4_COUNTS = 3


def fourier_family(spec: dict, name: str):
    """SphereFamily with the exact jets of a Fourier spine from ``inputs``."""

    def jet2(t):
        c, dc, d2c, rho, drho, d2rho = spine_jet(spec, float(np.asarray(t).reshape(-1)[0]))
        return envelope.FamilyJet(
            c=c,
            dc=dc.reshape(1, -1),
            d2c=d2c.reshape(1, 1, -1),
            rho=rho,
            drho=np.array([drho]),
            d2rho=np.array([[d2rho]]),
        )

    return envelope.SphereFamily(
        dim_n=spec["dim_n"], r=1, jet2=jet2, domain=((0.0, TWO_PI),), name=name
    )


def dented_tube(d: dict):
    """Planar-spine canal tube with a radial bump that destroys canality."""
    t, th = sp.symbols("t th", real=True)
    bump = (
        sp.Float(d["amp"])
        * sp.sin(d["f1"] * t + sp.Float(d["phase"][0]))
        * sp.cos(d["f2"] * th + sp.Float(d["phase"][1]))
    )
    surf, _ = catalog.planar_canal_surface(
        d["b"] * sp.cos(t) + d["a2"][0] * sp.cos(2 * t),
        d["b"] * sp.sin(t) + d["a2"][1] * sp.sin(2 * t),
        sp.Float(d["rho"]),
        t_sym=t,
        dim_n=3,
        t_domain=(0.0, TWO_PI),
        perturbation=bump,
        name=d["name"],
    )
    return surf


class VerifyRun:
    def __init__(self, input_path: str, tracer=None):
        with open(input_path) as fh:
            self.data = json.load(fh)
        self.tracer = tracer
        self.attempted = verify_operations(self.data)
        self.made = 0
        self.raised = 0

    @property
    def failed(self) -> int:
        return self.raised + self.attempted - self.made

    def _op(self, fn, *args, **kwargs):
        self.made += 1
        try:
            return fn(*args, **kwargs)
        except errors.CanalGeoError:
            self.raised += 1
            return None

    def _fd_copy(self, surface):
        fd = surface.without_analytic_jet()
        return self.tracer.wrap_chart(fd, "catalog.chart") if self.tracer else fd

    def setup(self) -> None:
        d = self.data
        self.surfaces = [catalog.make_surface(s["name"], s["params"]) for s in d["surfaces"]]
        self.dents = [dented_tube(x) for x in d["dents"]]
        self.env3 = [fourier_family(s, f"e3_{i}") for i, s in enumerate(d["env3"])]
        self.env4 = [fourier_family(s, f"e4_{i}") for i, s in enumerate(d["env4"])]
        self.singular = [fourier_family(s, f"s{i}") for i, s in enumerate(d["singular"])]

    def analyse(self) -> None:
        op = self._op
        self.analytic = [op(canal.detect_canal, s, counts=ANALYTIC_COUNTS) for s in self.surfaces]
        self.dent_reports = [op(canal.detect_canal, s, counts=DENT_COUNTS) for s in self.dents]
        self.fd = [
            op(
                canal.detect_canal,
                self._fd_copy(s),
                counts=FD_COUNTS_R4 if s.dim_n == 4 else FD_COUNTS,
            )
            for s in self.surfaces + self.dents
        ]

        self.env3_reports = []
        for fam in self.env3:
            surf = op(envelope.envelope_surface, fam)
            self.env3_reports.append(surf and op(canal.detect_canal, surf, counts=ENV3_COUNTS))

        self.env4_reports = []
        self.contacts = []  # (family, u, contact spheres)
        for fam in self.env4:
            surf = op(envelope.envelope_surface, fam)
            if surf is None:
                self.env4_reports.append(None)
                continue
            self.env4_reports.append(op(canal.detect_canal, surf, counts=ENV4_COUNTS))
            for u in surf.sample_grid(VERIFY_CONTACT_COUNTS):
                jet = op(jets.evaluate_jet, surf, u)
                tens = jet and op(canal.build_tensors, jet)
                spec = tens and op(canal.principal_spectrum, tens)
                cs = spec and op(canal.contact_spheres, jet, tens, spec)
                self.contacts.append((fam, u, cs))

        m = self.data["singular_samples"]
        self.pairs = []  # (fast report, oracle report)
        for fam in self.singular:
            lo, hi = fam.domain[0]
            for t in lo + (hi - lo) / m * (np.arange(m) + 0.5):
                coeffs = op(focal.adapted_frame_coefficients, fam, float(t))
                fast = coeffs and op(focal.singular_set, coeffs)
                oracle = op(focal.rank_drop_singular_points, fam, float(t))
                self.pairs.append((fast, oracle))

    # -- gates (outside the timed region) -----------------------------------

    def gates(self) -> tuple[list, dict]:
        problems = []
        if self.failed:
            problems.append(f"{self.failed} of {self.attempted} operations failed")

        cubic = 0.0
        for k, rep in enumerate(self.env3_reports):
            metrics = [c.metric for c in rep.clusters if c.mechanism == "third-order"] if rep else []
            if not metrics:
                problems.append(f"envelope e3_{k}: no third-order verdicts")
                continue
            cubic = max(cubic, min(metrics))
        if cubic >= ENV3_CUBIC_MAX:
            problems.append(f"envelope cubic {cubic:.3e} >= {ENV3_CUBIC_MAX}")

        for k, rep in enumerate(self.env4_reports):
            if rep is None or sum(c.multiplicity == 2 for c in rep.clusters) != 1:
                problems.append(f"envelope e4_{k}: no single multiplicity-2 cluster")
        contact = 0.0
        for fam, u, cs in self.contacts:
            mult2 = [s for s in cs or () if s.multiplicity == 2]
            if not mult2:
                problems.append(f"{fam.name}: no multiplicity-2 contact sphere at {u.tolist()}")
                continue
            fj = fam.jet_at([u[0]])
            contact = max(
                contact,
                float(np.linalg.norm(mult2[0].sphere.center - fj.c)),
                abs(mult2[0].sphere.radius - float(fj.rho)),
            )
        if contact >= ENV4_CONTACT_MAX:
            problems.append(f"contact-sphere error {contact:.3e} >= {ENV4_CONTACT_MAX}")

        floor = math.inf
        n_dent = len(self.dents)
        for k, rep in enumerate(self.dent_reports + self.fd[-n_dent:]):
            metrics = [c.metric for c in rep.clusters if c.metric is not None] if rep else []
            if not metrics:
                problems.append(f"dent report {k}: no third-order verdicts")
                continue
            floor = min(floor, min(metrics))
        if not floor > DENT_FLOOR_MIN:
            problems.append(f"dent floor {floor:.3e} <= {DENT_FLOOR_MIN}")

        agree = 0
        gap = 0.0
        for k, (fast, oracle) in enumerate(self.pairs):
            if fast is None or oracle is None:
                problems.append(f"singular sample {k}: a call failed")
                continue
            if fast.count == oracle.count:
                agree += 1
                if fast.count:
                    slow = np.asarray(oracle.points)
                    for p in fast.points:
                        gap = max(gap, float(np.linalg.norm(slow - p.point, axis=1).min()))
            elif abs(fast.discriminant) > fast.band:
                problems.append(
                    f"off-band singular mismatch at t={fast.t:.6f}: "
                    f"fast {fast.count}, oracle {oracle.count}"
                )
        rate = agree / len(self.pairs) if self.pairs else 0.0
        if rate < ORACLE_AGREE_MIN:
            problems.append(f"oracle agreement {rate:.4f} < {ORACLE_AGREE_MIN}")
        if gap >= ORACLE_GAP_MAX:
            problems.append(f"oracle location gap {gap:.3e} >= {ORACLE_GAP_MAX}")

        values = {
            "canal.env3_cubic_max": cubic,
            "canal.env4_contact_err_max": contact,
            "canal.dent_floor_min": floor if math.isfinite(floor) else 0.0,
            "focal.oracle_agree_frac": rate,
            "focal.oracle_loc_gap_max": gap,
        }
        return problems, values
