"""Exception types shared across the package."""


class DivisionByZero(ZeroDivisionError):
    """Division by the zero scalar."""


class RangeError(ValueError):
    """An integer argument fell outside its documented range."""


class DatumError(ValueError):
    """A datum for the monomial family violates one of its defining conditions."""

    def __init__(self, condition: str, message: str = ""):
        self.condition = condition
        super().__init__(message or condition)


class UnsupportedFamily(ValueError):
    """The operation needs a family-built Hopf algebra of a specific kind."""


class NotInvertible(ValueError):
    """A convolution or ring inverse does not exist."""


class NotPointedOrder(ValueError):
    """The basis order does not allow triangular convolution solves."""


class ParseError(ValueError):
    """Syntax error in a noncommutative polynomial expression."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class UnknownLabel(ValueError):
    """A basis label does not belong to the algebra at hand."""


class NotHopfMap(ValueError):
    """A claimed Hopf algebra map fails one of the structure checks."""


class CocycleMismatch(ValueError):
    """Cocycles on source and target are not compatible with the map."""


class NotDegreeZero(ValueError):
    """Decomposition applies to degree-zero monomials only."""


class OutOfLocalization(ValueError):
    """Negative exponents are only allowed on group-like generators."""


class SingularJacobian(ArithmeticError):
    """The Jacobian determinant vanished where independence was expected."""


class WitnessFailure(RuntimeError):
    """A constructed coinvariance witness failed its exact verification."""


class UnsupportedKind(ValueError):
    """Unknown named-basis kind."""


class IndexMismatch(RuntimeError):
    """A computed lattice index disagrees with the abelianization order."""
