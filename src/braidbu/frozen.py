"""The base of the package's immutable value classes."""


class Frozen:
    """Assigning or deleting an attribute raises AttributeError.

    A subclass sets its fields once, in ``__init__``, through
    ``object.__setattr__``, and defines its own equality and hash.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
