"""Exception hierarchy shared by all clustercomb modules.

Every validation failure raises a specific subclass of ValidationError so
callers (and the CLI) can name the violated invariant.
"""
from __future__ import annotations


class ClustercombError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ClustercombError):
    """An input object violates one of its structural invariants."""


class InvariantBroken(ClustercombError):
    """An internal self-check failed (a package fault); survives python -O."""


class MalformedJSON(ValidationError):
    """A JSON document does not have the shape of the object it should encode."""


class WrongObjectType(ValidationError):
    """An operation was given a valid object of a type it does not take."""


# -- coloured forests / trees ------------------------------------------------

class CycleDetected(ValidationError):
    pass


class DuplicateColourAtVertex(ValidationError):
    def __init__(self, vertex: int, colour: int):
        self.vertex = vertex
        self.colour = colour
        super().__init__(f"vertex {vertex} has two edges coloured S_{colour}")


class VertexOutOfRange(ValidationError):
    pass


class DuplicateEdge(ValidationError):
    pass


class NotConnected(ValidationError):
    pass


# -- arc diagrams -------------------------------------------------------------

class UnequalBases(ValidationError):
    pass


class SlotReused(ValidationError):
    pass


class SelfArc(ValidationError):
    pass


class ShiftCollision(ClustercombError):
    pass


# -- polygon dissections ------------------------------------------------------

class BadDiagonalModulus(ValidationError):
    pass


class DiagonalsCross(ValidationError):
    pass


class WrongFaceShape(ValidationError):
    pass


class WrongDiagonalCount(ValidationError):
    pass


class NotADiagonal(ClustercombError):
    pass


class NotASnake(ClustercombError):
    pass


class SymbolOutOfRange(ClustercombError):
    pass


# -- bijections ---------------------------------------------------------------

class ConditionAViolated(ValidationError):
    pass


class ConditionBViolated(ValidationError):
    pass


class WrongCircularOrder(ValidationError):
    pass


class NotInFamily(ValidationError):
    def __init__(self, family: int, reason: str):
        self.family = family
        self.reason = reason
        super().__init__(f"object is not in family ({family}): {reason}")


# -- induction ----------------------------------------------------------------

class NotMaximalChain(ClustercombError):
    pass


class SymbolMismatch(ClustercombError):
    pass


class HypothesisViolated(ClustercombError):
    pass


class WrongColourSet(ClustercombError):
    pass


class DimensionMismatch(ClustercombError):
    pass


# -- enumeration guards ---------------------------------------------------------

class SizeLimitExceeded(ClustercombError):
    pass
