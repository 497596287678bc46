"""Immutable records: the frozen-dataclass behaviour the program uses,
built from closures at class creation.

`record` reads the field names from the class's own annotations, in
order, and adds what the class does not define itself: an `__init__`
taking the fields positionally or by name (a field with a class-level
value has that value as its default) that calls `__post_init__` when
the class has one; `__eq__` between instances of the same class only;
`__hash__` as the hash of the field tuple; the repr
`Name(field=value, ...)`; and `__setattr__`/`__delattr__` that raise
AttributeError.  `__init__` and methods write fields with
`object.__setattr__`, as dataclasses do (filling `__dict__` directly
would take attribute reads off CPython's fast path), and
`functools.cached_property` still caches in the instance dict.  No
source is generated or compiled, which keeps import cheap for a
program started once per question.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


def _bind(cls, names, args, kwargs) -> list:
    """The field values of a call with keywords or a partial argument list."""
    if len(args) > len(names):
        raise TypeError(f"{cls.__name__}() takes {len(names)} arguments, got {len(args)}")
    values = list(args)
    for name in names[len(args):]:
        if name in kwargs:
            values.append(kwargs.pop(name))
        elif name in cls.__dict__:
            values.append(cls.__dict__[name])
        else:
            raise TypeError(f"{cls.__name__}() missing argument {name!r}")
    if kwargs:
        raise TypeError(f"{cls.__name__}() got an unexpected or repeated argument "
                        f"{next(iter(kwargs))!r}")
    return values


def record(cls):
    """cls with the record methods it does not define itself."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    values = attrgetter(*names)
    post_init = cls.__dict__.get("__post_init__")

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = _bind(cls, names, args, kwargs)
        for name, value in zip(names, args):
            _set(self, name, value)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    if len(names) == 1:
        def __hash__(self):
            return hash((values(self),))
    else:
        def __hash__(self):
            return hash(values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        if method.__name__ not in cls.__dict__:
            setattr(cls, method.__name__, method)
    return cls
