"""Exception taxonomy.

Every failure mode raised by this package derives from MoltenDTError.  The
`exit_code` attribute is the process status for a caller that exits on the
error: 1 for input that cannot be accepted or served, 2 for an integrity
violation discovered while computing (the data was plausible, the pipeline
caught an inconsistency).  Every class here is raised somewhere in the
package; a class comes with the code that raises it.  ``_check_int`` is
the one check for integer arguments that the modules share.
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
    """The zig-zag strips of a side do not fit its lattice length K: an
    arrow's two ends disagree with its height step, the strip count or the
    number of distinct heights differs from K, or no zig-zag path matches a
    strip."""


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


class InfeasiblePattern(MoltenDTError):
    """No integral slope realizes the requested sign pattern."""

    exit_code = 1


class InvalidInterval(MoltenDTError):
    """A side interval refers to unknown sides or is empty."""

    exit_code = 1


def _check_int(x, what):
    """``x`` if it is an int, else ValidationError naming ``what`` and x.

    int() would truncate a float and read a bool as 0 or 1."""
    if type(x) is not int:
        raise ValidationError("%s must be an int, got %r" % (what, x))
    return x
