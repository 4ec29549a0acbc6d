"""Exception taxonomy.

Exit-code mapping used by the CLI: bad input or malformed JSON -> 2,
precision exhausted or iteration budget exceeded without a verdict -> 3,
violated internal invariant -> 4. Library callers catch the types.
"""


class TaumodError(Exception):
    """Base class for package errors."""


class InputError(TaumodError):
    """Malformed or inconsistent user input (CLI exit 2)."""


class PrecisionLoss(TaumodError):
    """An operation needed a coefficient outside the known window (CLI exit 3).

    Carries enough context to tell the user which window to widen.
    """

    def __init__(self, msg, *, need=None, window=None):
        super().__init__(msg)
        self.need = need
        self.window = window


class BudgetExceeded(TaumodError):
    """Iteration or extension budget ran out without a verdict (CLI exit 3)."""


class ExtensionExhausted(BudgetExceeded):
    """No base-field extension within the sweep bound settled the question."""


class NoRoot(TaumodError):
    """A required q-th root does not exist in the working field.

    `witness` is a JSON-able description of the failing coefficient
    equation (used verbatim inside NoSolution certificates).
    """

    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


class NotInvertible(TaumodError):
    """Division by a non-unit."""


class NotStable(TaumodError):
    """A claimed invariant subspace is not preserved by the action."""


class CoercionError(TaumodError):
    """Operands live in incompatible fields."""


class InvariantError(TaumodError):
    """An internal consistency check failed (CLI exit 4)."""
