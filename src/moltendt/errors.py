"""Exception taxonomy.

Every failure mode raised by this package derives from MoltenDTError.  The
`exit_code` attribute drives the command-line process status: 1 for input that
cannot be accepted or served, 2 for an integrity violation discovered while
computing (the data was plausible, the pipeline caught an inconsistency).
"""

from __future__ import annotations


class MoltenDTError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class ParseError(MoltenDTError):
    """Malformed input document (JSON shape, missing field, bad literal)."""

    exit_code = 1


class ValidationError(MoltenDTError):
    """Well-formed input violating a structural invariant; the message names
    the first violated invariant."""

    exit_code = 1


class NoCutError(MoltenDTError):
    """The potential admits no cut, so no perfect-matching diagram exists."""

    exit_code = 1


class AmbiguousCornerError(MoltenDTError):
    """A corner of the diagram is hit by more than one cut."""


class StripCountMismatch(MoltenDTError):
    """Removing two consecutive cuts split the quiver into a number of
    components different from the side's lattice length."""


class InvalidSeedArrow(MoltenDTError):
    """The requested seed arrow is not usable for the point framing at the
    chosen corner."""

    exit_code = 1


class InconsistentPoset(MoltenDTError):
    """The atom poset broke an invariant of crystal enumeration: its
    predecessor relation has a cycle, or an enumerated atom set is not
    downward closed or comes out twice.  The message names the stage."""


class BoundTooSmall(MoltenDTError):
    """The requested truncation bound cannot support the requested output."""

    exit_code = 1


class ShapeMismatch(MoltenDTError):
    """Operands live in different truncated series rings."""

    exit_code = 1


class NonUnitConstantTerm(MoltenDTError):
    """Series inversion needs an invertible constant term."""

    exit_code = 1


class NonCommutingSupport(MoltenDTError):
    """Plethystic Exp/Log applied to a support that is not pairwise
    twist-commuting."""

    exit_code = 1


class NonzeroConstantTerm(MoltenDTError):
    """Plethystic Exp needs a zero constant term (Log: constant term one)."""

    exit_code = 1


class NonCentralSigma(MoltenDTError):
    """The bar anti-involution is coefficientwise only on central support."""

    exit_code = 1


class InfeasiblePattern(MoltenDTError):
    """No integral slope realizes the requested sign pattern."""

    exit_code = 1


class InvalidInterval(MoltenDTError):
    """A side interval refers to unknown sides or is empty."""

    exit_code = 1


class NonExactDivision(MoltenDTError):
    """A wall-crossing coefficient failed to divide exactly where the theory
    requires a Laurent result."""


class MissingFraming(MoltenDTError):
    """The requested node has no framed series to invert against."""

    exit_code = 1


class InconsistentFraming(MoltenDTError):
    """Two framing nodes produced different unframed series."""


class NonGenericStability(MoltenDTError):
    """Tied slopes on non-commuting rays; the factorization order would
    matter."""


class NonIntegralBps(MoltenDTError):
    """A BPS coefficient came out non-Laurent."""


class PerturbationDisagreement(MoltenDTError):
    """Two independent attractor perturbations disagreed."""


class UnknownFormula(MoltenDTError):
    """No closed form is available for this geometry (no interior point)."""

    exit_code = 1
