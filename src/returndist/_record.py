"""Frozen record base for the package's report and parameter types.

A subclass declares its fields as class annotations, in order, and gets
an ``__init__`` taking them by position or keyword, a ``repr`` in the
form ``Name(field=value, ...)``, equality and hashing over the field
tuple (only between instances of the same class), and attributes that
cannot be assigned or deleted. Field names are in ``_fields``.

Not ``dataclasses``: importing it (with ``inspect``, ``ast``, ``dis`` and
``tokenize``) and generating each class's methods cost more than the
rest of the package's import together.
"""


class Record:
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs) -> None:
        names = self._fields
        values = dict(zip(names, args))
        values.update(kwargs)
        if len(args) + len(kwargs) != len(names) or values.keys() != set(names):
            raise TypeError(
                f"{type(self).__name__}() takes the fields {', '.join(names)}; "
                f"got {len(args)} positional and {', '.join(kwargs) or 'no'} keyword arguments"
            )
        self.__dict__.update(values)

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def _asdict(self) -> dict:
        """Field name to value, in field order; nested records stay records."""
        return dict(zip(self._fields, self._values()))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
