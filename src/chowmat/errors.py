"""Exception types shared across the package."""


class ChowmatError(Exception):
    """Base class for all library errors."""


class EmptyBases(ChowmatError):
    pass


class ExchangeAxiomViolation(ChowmatError):
    pass


class InvalidRank(ChowmatError):
    pass


class InvalidEdge(ChowmatError):
    pass


class GroundSetTooLarge(ChowmatError):
    pass


class GroundSetMismatch(ChowmatError):
    pass


class NotAFlat(ChowmatError):
    pass


class EmptyFlat(ChowmatError):
    pass


class NotAProperFlat(ChowmatError):
    pass


class LoopyMatroid(ChowmatError):
    pass


class NotComparable(ChowmatError):
    pass


class WrongDimension(ChowmatError):
    pass


class InhomogeneousElement(ChowmatError):
    pass


class WrongGrade(ChowmatError):
    pass


class WrongArity(ChowmatError):
    pass


class EmptySetMember(ChowmatError):
    pass


class NotDegreeOne(ChowmatError):
    pass


class NonexactDivision(ChowmatError):
    pass


class ParseError(ChowmatError):
    pass


class InvariantViolation(ChowmatError):
    """A result failed an internal consistency check: a defect, not bad input."""
