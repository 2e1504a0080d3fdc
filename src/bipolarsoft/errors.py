"""Exception types shared across the package."""


class BipolarSoftError(Exception):
    """Base class for every error raised by this package."""


class InvalidArgument(BipolarSoftError, ValueError):
    """A call got a value outside its domain: a bad mask shape or range, size or arity."""


class InvalidSpace(BipolarSoftError):
    """A parameter space violates its structural invariants."""


class UnknownObject(BipolarSoftError):
    def __init__(self, object_id):
        super().__init__(f"unknown object {object_id!r}")
        self.object_id = object_id


class UnknownParameter(BipolarSoftError):
    def __init__(self, param):
        super().__init__(f"unknown parameter {param!r}")
        self.param = param


class DisjointnessViolation(BipolarSoftError):
    """The approving and rejecting sets overlap at some parameter."""

    def __init__(self, param, witnesses):
        self.param = param
        self.witnesses = tuple(witnesses)
        shared = ", ".join(self.witnesses)
        super().__init__(
            f"parameter {param!r}: positive and negative sets share {{{shared}}}"
        )


class SpaceMismatch(BipolarSoftError):
    """Operands are defined over different parameter spaces."""


class DimensionMismatch(BipolarSoftError):
    """Table dimensions disagree with its labels or the target space."""


class LabelMismatch(BipolarSoftError):
    """Table labels disagree with the target space."""


class ParseError(BipolarSoftError):
    """A document could not be decoded; ``location`` names the offending spot."""

    def __init__(self, message, location=None):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


class BoundsTooLarge(BipolarSoftError):
    """Requested exhaustive enumeration is not tractable."""


class UnknownLaw(BipolarSoftError):
    def __init__(self, law_id):
        super().__init__(f"unknown law {law_id!r}")
        self.law_id = law_id
