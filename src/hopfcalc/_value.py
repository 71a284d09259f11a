"""Read-only value records whose fields are declared once, in the class body.

The standard library's generated records import ``inspect``, ``ast``, ``dis``
and ``tokenize``, which costs a series command more start-up than its algebra,
so the package's records derive from :class:`Value` instead.
"""


class _Fields(type):
    """Makes each annotated public name of a class body a slot, in order.

    A value written after the annotation is the field's default, moved into
    ``_defaults`` so that it does not hide the slot; all instances share it,
    so it must be immutable.  Slots can only be made as the class is created.
    """

    def __new__(mcs, name, bases, body):
        fields = tuple(n for n in body.get("__annotations__", ()) if not n.startswith("_"))
        body["__slots__"] = fields
        body["_defaults"] = {n: body.pop(n) for n in fields if n in body}
        return super().__new__(mcs, name, bases, body)


class Value(metaclass=_Fields):
    """A record of the fields annotated in its class body, in order.

    Fields are given positionally or by keyword; a field with a class-body
    default may be left out.  Records of one class are equal, and hash equal,
    when their fields are; a record never equals a tuple or a record of
    another class.  Fields are read-only once ``Value.__init__`` has set
    them.  The repr is ``Name(field=value, ...)``.
    """

    def __init__(self, *values, **named) -> None:
        fields = self.__slots__
        if named or len(values) != len(fields):
            kind = type(self).__name__
            if len(values) > len(fields):
                raise TypeError(f"{kind} takes {len(fields)} fields, got {len(values)}")
            given = {**self._defaults, **dict(zip(fields, values))}
            for name in named:
                if name not in fields or name in fields[: len(values)]:
                    raise TypeError(f"{kind} got an unknown or repeated field {name!r}")
            given.update(named)
            missing = [n for n in fields if n not in given]
            if missing:
                raise TypeError(f"{kind} is missing field(s) {', '.join(map(repr, missing))}")
            values = [given[n] for n in fields]
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)

    def _items(self) -> tuple:
        """(name, value) of each field."""
        return tuple((n, getattr(self, n)) for n in self.__slots__)

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
