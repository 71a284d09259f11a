"""Read-only value records, written out by hand.

The standard library's generated records import ``inspect``, ``ast``, ``dis``
and ``tokenize``, which costs a series command more start-up than its algebra,
so the package's records derive from :class:`Value` instead.
"""


class Value:
    """A record of the fields named in ``__slots__``, in order.

    Records of one class are equal, and hash equal, when their compared fields
    are; a record never equals a tuple or a record of another class.  Fields
    are read-only once ``Value.__init__`` has set them.  The repr is
    ``Name(field=value, ...)`` over the compared fields.
    """

    __slots__ = ()
    #: fields left out of equality, hashing and the repr
    _hidden: tuple[str, ...] = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _items(self) -> tuple:
        """(name, value) of each compared field."""
        return tuple((n, getattr(self, n)) for n in self.__slots__ if n not in self._hidden)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._items() == other._items()

    def __hash__(self) -> int:
        return hash(self._items())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in self._items())})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} of {type(self).__name__} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self):
        # copy and pickle rebuild through __init__, as fields cannot be set afterwards
        return type(self), tuple(getattr(self, name) for name in self.__slots__)
