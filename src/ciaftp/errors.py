"""Exception hierarchy shared across the package."""


class CiaftpError(Exception):
    """Base class for all errors raised by this package."""

    code = "Error"


class TrieStructureError(CiaftpError):
    """A trie violates the complete-suffix-dictionary structure."""

    code = "TrieStructure"


class IncompleteTrie(TrieStructureError):
    """An internal trie node lacks a branch for some symbol."""


class KernelSpecError(CiaftpError):
    """A kernel specification file is invalid."""

    code = "KernelSpec"


class IncompleteDictionary(KernelSpecError):
    code = "IncompleteDictionary"


class OverlappingContexts(KernelSpecError):
    code = "OverlappingContexts"


class BadProbability(KernelSpecError):
    code = "BadProbability"


class UnknownSymbol(KernelSpecError):
    code = "UnknownSymbol"


class UnsupportedOperation(CiaftpError):
    code = "UnsupportedOperation"


class EnumerationGuardExceeded(CiaftpError):
    """A brute-force enumeration would exceed the configured guard."""

    code = "EnumerationGuard"


class BudgetError(CiaftpError):
    """A run exhausted one of its budgets; carries partial diagnostics."""

    code = "Budget"

    def __init__(self, message: str, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class MaxDepthExceeded(BudgetError):
    code = "MaxDepthExceeded"


class IterationLimitExceeded(BudgetError):
    code = "IterationLimitExceeded"


class NodeBudgetExceeded(BudgetError):
    code = "NodeBudgetExceeded"


class ReducibleChain(CiaftpError):
    code = "ReducibleChain"


class PeriodicChain(CiaftpError):
    code = "PeriodicChain"


class InvariantViolation(CiaftpError):
    """A runtime self-check failed; indicates a bug, not user error."""

    code = "InvariantViolation"
