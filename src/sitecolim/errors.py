"""Shared exception types."""


class SitecolimError(Exception):
    pass


class BudgetExceeded(SitecolimError):
    """An enumeration ran past its candidate budget."""


class SaturationExceeded(SitecolimError):
    """Path saturation did not stabilize within the given bound."""


class IllTypedRelation(SitecolimError):
    """A relation of a presentation equates paths that are not parallel."""


class IncompleteAssignment(SitecolimError):
    """A needed chosen limit is missing from the limit assignment."""


class NotFiltered(SitecolimError):
    """The index 2-category fails one of the filteredness conditions."""


class NameCollision(SitecolimError):
    """Two objects or two morphisms of a colimit would get one name."""


class IncompleteDiagram(SitecolimError):
    """A cell of a diagram has no functor or transformation."""


class NotLiftable(SitecolimError):
    """A diagram in the colimit could not be lifted to a single fiber."""


class IllFormedCone(SitecolimError):
    """A pseudocone fails its coherence equations."""


class NonInvertibleComponent(SitecolimError):
    """A component required to be invertible is not."""


class FixtureError(SitecolimError):
    """A fixture file is malformed or references an unknown name."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line
