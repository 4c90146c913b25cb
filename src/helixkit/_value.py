"""The base of the package's immutable value classes.

Every launch of the command line imports all of these classes, so they are
plain classes: no method is generated or compiled for them at import, and
no module but operator is loaded for them.
"""

from operator import attrgetter


class Value:
    """An immutable value compared by the fields named in _fields.

    == holds only between instances of one class whose fields are equal, the
    hash is the hash of the tuple of the fields, and repr is
    Name(field=value, ...). Setting or deleting any attribute raises
    AttributeError. A subclass sets its attributes in its own constructor,
    through self.__dict__ or object.__setattr__; an attribute outside
    _fields (a cache) takes no part in ==, hash or repr.
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls):
        super().__init_subclass__()
        # attrgetter of two or more names gives their tuple, read in C; of
        # one name it gives the bare value, which is wrapped
        get = attrgetter(*cls._fields)
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda x: (get(x),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
