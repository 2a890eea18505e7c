"""Exception taxonomy shared across the package.

Every error carries a stable ``code`` (its class name) and an optional
``context`` dict so front ends can emit machine-readable records.
"""


class DomainError(Exception):
    """Base for all mathematically meaningful failures."""

    def __init__(self, message, **context):
        super().__init__(message)
        self.message = message
        self.context = context

    @property
    def code(self):
        return type(self).__name__

    def record(self):
        return {"error_code": self.code, "message": self.message, "context": self.context}


# -- finite fields ----------------------------------------------------------

class NonPrimeP(DomainError):
    pass


class DegreeMismatch(DomainError):
    pass


class NotCoprime(DomainError):
    pass


class DegreeTooLarge(DomainError):
    pass


# -- groups ------------------------------------------------------------------

class BadDivisor(DomainError):
    pass


class GroupTooLarge(DomainError):
    pass


class NotASubgroup(DomainError):
    pass


class NotCocyclic(DomainError):
    pass


class NoRootsOfUnity(DomainError):
    pass


class GroupMismatch(DomainError):
    pass


# -- group algebra -----------------------------------------------------------

class CharDividesOrder(DomainError):
    pass


class NotIdempotent(DomainError):
    pass


class NoUniqueSubgroup(DomainError):
    pass


# -- codes -------------------------------------------------------------------

class AlgebraMismatch(DomainError):
    pass


class DimensionTooLarge(DomainError):
    pass


class HypothesisFails(DomainError):
    pass
