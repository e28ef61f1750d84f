"""Exception types for isospec.

Each numerical refusal has its own class so callers can tell input
problems and regime violations apart; ``exit_code`` is the command-line
exit status each class ends a run with (1 input, 2 regime or domain).
"""


class IsospecError(Exception):
    """Base class for all isospec errors."""

    exit_code = 1


class DimensionError(IsospecError):
    """Operand shapes are incompatible with the requested operation."""


class SingularityError(IsospecError):
    """A matrix or vector family that must be invertible is rank deficient."""

    exit_code = 2


class RegimeError(IsospecError):
    """None of the supported construction regimes applies, or a stated
    regime precondition fails; the message names the violated condition."""

    exit_code = 2


class KernelError(IsospecError):
    """An index with vanishing pairing constant was used where a strictly
    positive one is required."""

    exit_code = 2


class PairingError(IsospecError):
    """A biorthogonal system has the wrong pairing normalization for the
    requested construction (level mismatch)."""

    exit_code = 2


class DivergenceError(IsospecError):
    """Series evaluation requested outside the convergence disk."""

    exit_code = 2


class MomentError(IsospecError):
    """No closed-form radial measure is available for the given sequence."""

    exit_code = 2


class DegenerateError(IsospecError):
    """A construction degenerated (zero intertwiner, empty surviving set)."""

    exit_code = 2


class SpectrumError(IsospecError):
    """Simple spectrum required but repeated eigenvalues were supplied."""

    exit_code = 2


class ParameterError(IsospecError):
    """Algebraic parameter constraint violated."""


class SeedVectorError(IsospecError):
    """A supplied seed vector is not annihilated by the required operator."""

    exit_code = 2


class NumericalError(IsospecError):
    """An iterative kernel failed to converge; carries a residual report."""

    exit_code = 2
