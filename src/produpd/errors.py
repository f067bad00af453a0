"""Exception types shared across the package."""


class ProdupdError(Exception):
    """Base class for package-specific errors."""


class ParseError(ProdupdError):
    """Input text or JSON does not conform to the expected syntax, or a
    model or event model breaks a structural invariant (see `models`)
    other than a precondition outside the base language, which is a
    `PreconditionNotBaseMso`.

    `span` is a SourceSpan for formula text (None for JSON-level errors);
    `expected` lists the token kinds that would have been accepted.
    """

    def __init__(self, message, span=None, expected=()):
        super().__init__(message)
        self.span = span
        self.expected = tuple(expected)


class EmptyDomain(ParseError):
    """A model file declared an empty world set."""


class UnknownWorldInRelation(ParseError):
    """A relation edge mentions a world that is not in the domain."""


class UnknownWorldInValuation(ParseError):
    """A valuation entry mentions a world that is not in the domain."""


class EmptyEventSet(ParseError):
    """An event model has no events."""


class PositivityViolation(ProdupdError):
    """A fixpoint binder has a body that is not positive in its variable."""


class PreconditionNotBaseMso(ProdupdError):
    """A precondition (or announced formula) lies outside the base language."""


class WorldOutOfModel(ProdupdError):
    """A world argument (a point, an override, a relativisation set) does
    not belong to the model at hand; a malformed model is a `ParseError`."""


class UnknownEvent(ParseError):
    """An event name or nominal index has no referent in an event model."""


class NominalOutsideProductContext(ProdupdError):
    """An action nominal was evaluated on a model that carries no event tags."""


class BudgetExceeded(ProdupdError):
    """Subset enumeration exceeded the evaluation budget."""


class InputNotSentenceFragment(ProdupdError):
    """A rewriting operation received a formula outside its input fragment."""


class NotABisimulation(ProdupdError):
    """A relation offered as a bisimulation fails the atom/forth/back checks."""
