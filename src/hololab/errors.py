"""Exception hierarchy shared across the package."""


class HololabError(Exception):
    """Base class for all package-specific errors."""


# --- expression layer ---

class ExprSyntaxError(HololabError):
    """Malformed expression source; carries the byte offset of the failure."""

    def __init__(self, offset, expected):
        self.offset = offset
        self.expected = expected
        super().__init__(f"syntax error at offset {offset}: expected {expected}")


class UnknownIdentifier(HololabError):
    def __init__(self, name, offset=None):
        self.name = name
        self.offset = offset
        super().__init__(f"unknown function {name!r}")


class UnboundVariable(HololabError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"variable {name!r} is not bound")


class DomainError(HololabError):
    """Evaluation left the real domain (log of nonpositive, fractional power
    of a nonpositive base, division by zero)."""


# --- manifold layer ---

def _plain(value):
    """Nested tuples of built-in floats, so messages never show numpy reprs."""
    try:
        return tuple(_plain(v) for v in value)
    except TypeError:
        return float(value)


class OutOfDomain(HololabError):
    def __init__(self, point, detail=""):
        point = _plain(point)
        self.point = point
        super().__init__(f"point {point} outside chart domain{': ' + detail if detail else ''}")


class SingularMetric(HololabError):
    def __init__(self, point, det):
        point, det = _plain(point), float(det)
        self.point = point
        self.det = det
        super().__init__(f"metric singular at {point}: |det| = {abs(det):.3e}")


class BadDimension(HololabError):
    pass


class BadSignature(HololabError):
    pass


class OrderingViolated(HololabError):
    """Eigenfunction ordering of a projective-equivalence family failed on
    the sample grid."""


# --- transport layer ---

class NotClosed(HololabError):
    """Loop endpoints do not match the basepoint, even modulo declared
    coordinate periods."""


class StepUnderflow(HololabError):
    """Integrator error estimate exceeded the requested target: a
    step-controlled segment at the maximum step count, or a fixed grid
    given an explicit target."""


class FamilyNotTrivial(HololabError):
    """Loop family declared trivial at s = 0 but the integrated transport
    at s = 0 is not the identity."""


class NotTotallyGeodesic(HololabError):
    """Numerical total-geodesy check failed for a coordinate slice."""


class EmptyRegion(HololabError):
    pass


# --- linear algebra layer ---

class ShapeMismatch(HololabError):
    pass


class LogUndefined(HololabError):
    """Matrix has an eigenvalue on the closed negative real axis, or the
    square-root iteration failed to converge."""


# --- catalog / cli ---

class UnknownExample(HololabError):
    pass


class ConfigError(HololabError):
    """Invalid run configuration (bad JSON shape, unparsable expression,
    unknown check name, ...)."""
