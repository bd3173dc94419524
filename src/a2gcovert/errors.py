"""Exception types shared across the package."""


class A2GError(Exception):
    """Base class for all package-specific errors."""


class DomainError(A2GError, ValueError):
    """An argument lies outside the mathematical domain of a function."""


class ScenarioError(A2GError, ValueError):
    """A scenario file or parameter set failed validation."""


class DegenerateArrayError(A2GError, ValueError):
    """The antenna-array approximation breaks down for the given element count."""


class QuadratureError(A2GError, RuntimeError):
    """A quadrature missed its tolerance: adaptive quadrature did not
    converge, or a fixed rule's error estimate exceeded its bound."""
