"""Exception types shared across the package."""


class CanalGeoError(Exception):
    """Base class for all library-specific failures."""


class DimensionMismatch(CanalGeoError, ValueError):
    """Operands live in models of different ambient dimension."""


class DomainError(CanalGeoError, ValueError):
    """Input is outside the mathematical domain of an operation."""


class ImmersionError(CanalGeoError, ValueError):
    """Chart derivative is rank-deficient at the requested parameter."""


class FrameConsistencyError(CanalGeoError, ArithmeticError):
    """A constructed moving frame fails its defining scalar-product relations."""


class DegeneratePencilError(CanalGeoError, ValueError):
    """Sphere pair does not span a pencil (coincident or invalid spheres)."""


class DegenerateFrameError(CanalGeoError, ArithmeticError):
    """Family frame cannot be adapted at this parameter (stalled or collapsing)."""


class ImaginaryCharacteristicError(CanalGeoError, ValueError):
    """Characteristic sphere has negative squared radius at this parameter."""


class SceneError(CanalGeoError, ValueError):
    """A scene document fails its checks; ``diagnostics`` lists every failure."""

    def __init__(self, diagnostics: list):
        super().__init__(f"invalid scene: {len(diagnostics)} diagnostics")
        self.diagnostics = diagnostics
