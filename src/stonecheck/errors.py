"""Exception types shared across the package.

Every validation error carries the first witnessing tuple that broke the
law being checked, so callers (and test suites) can assert on the exact
counterexample instead of parsing messages.
"""

from __future__ import annotations


class StonecheckError(Exception):
    """Base class for all errors raised by this package."""

    def __init__(self, message: str, witness=None):
        super().__init__(message if witness is None else f"{message}; witness={witness!r}")
        self.witness = witness


class NotAPoset(StonecheckError):
    """The relation is not reflexive, antisymmetric, or transitive."""


class NotALattice(StonecheckError):
    """Some pair of elements lacks a unique meet or join."""


class NotDistributive(StonecheckError):
    """Some triple violates the distributive law."""


class ComplementLawFails(StonecheckError):
    """x and its claimed complement do not meet to bottom / join to top."""


class BoundExceeded(StonecheckError):
    """Input is larger than the documented exhaustive-checking cap."""


class DegenerateAlgebra(StonecheckError):
    """The one-element algebra has no proper filters; the operation is undefined."""


class NotMeetPreserving(StonecheckError):
    """The map breaks meet (or bottom) preservation."""


class NotJoinPreserving(StonecheckError):
    """The map breaks join (or top) preservation."""


class NotComplementPreserving(StonecheckError):
    """The map breaks complement preservation."""


class NotStone(StonecheckError):
    """The generated topology is not Hausdorff (hence not a Stone space)."""


class NotContinuous(StonecheckError):
    """Some open set of the target has a non-open preimage."""


class NotAnEmbedding(StonecheckError):
    """The map fails to be an order/lattice embedding or a homeomorphic embedding."""


class ImageNotDense(StonecheckError):
    """The closure of the embedded image is not the whole space."""


class EmptySpace(StonecheckError):
    """The construction requires a nonempty point set."""


class LibraryBug(StonecheckError):
    """Raised only by a bug in this package, never by bad input (CLI exit 3)."""


class NoExtension(LibraryBug):
    """No continuous extension satisfies the required equation (library bug)."""


class NoClopenPreimage(LibraryBug):
    """A preimage that duality guarantees to be clopen was not found (library bug)."""


class InvariantViolation(LibraryBug):
    """An internal certificate failed; this always signals a bug in the library."""


class UnknownName(StonecheckError):
    """The document does not define an algebra or homomorphism with that name."""


class ParseError(StonecheckError):
    """The input document is not well-formed."""


class ValidationError(StonecheckError):
    """The document parsed but one of its entries failed validation."""
