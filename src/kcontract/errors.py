"""Exception hierarchy shared by all kcontract modules."""


class KContractError(Exception):
    """Base class for all errors raised by this package."""


# -- index/combinatorics ----------------------------------------------------

class NonIncreasingTuple(KContractError):
    pass


class IndexOutOfRange(KContractError):
    pass


class RankOutOfRange(KContractError):
    pass


class MismatchedShapes(KContractError):
    pass


class DimensionTooLarge(KContractError):
    """Ambient dimension exceeds the 64-bit-safe binomial range (n > 62)."""


# -- compound algebra -------------------------------------------------------

class NotSquare(KContractError):
    pass


class OrderTooLarge(KContractError):
    pass


class CompoundSizeCapExceeded(KContractError):
    pass


class DimensionMismatch(KContractError):
    pass


class SingularTransform(KContractError):
    pass


class EvaluationFailure(KContractError):
    pass


# -- measures / spectra -----------------------------------------------------

class EigensolveFailure(KContractError):
    pass


class SingularScaling(KContractError):
    pass


class NonConvergence(EigensolveFailure):
    """The LAPACK symmetric eigensolver (eigh/eigvalsh) did not converge."""


class QRNonConvergence(EigensolveFailure):
    """The LAPACK nonsymmetric eigenvalue QR iteration (eigvals) did not converge."""


# -- dynamics ---------------------------------------------------------------

class NonFiniteState(KContractError):
    pass


class StateLeftDomain(KContractError):
    """Raised only when domain exit is configured as a hard error."""


class NewtonDivergence(KContractError):
    pass


class NoPeriodFound(KContractError):
    pass


class JacobianMismatch(KContractError):
    """Analytic Jacobian disagrees with finite differences of the field."""


# -- certification ----------------------------------------------------------

class NotDiagonal(KContractError):
    pass


class BadWeightVector(KContractError):
    pass


class NotPositiveDefinite(KContractError):
    pass


# -- model zoo --------------------------------------------------------------

class UnknownModel(KContractError):
    pass


class BadParameter(KContractError):
    pass


class GammaNearZero(KContractError):
    """Trajectory coordinate used for diagnostic scaling dropped below threshold."""
