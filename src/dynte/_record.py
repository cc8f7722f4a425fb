"""Record classes: the part of a frozen `dataclasses.dataclass` dynte's
containers use.

`@record` on a class with annotated fields gives it the constructor,
`__repr__`, `__eq__` and `__hash__` that a frozen `@dataclass` would:
positional or keyword arguments with class-level defaults, then
`__post_init__` if the class has one; `QualName(f=...)` over every field,
unless the class body defines a `__repr__`; equal when of the same class
and equal field by field; a hash of the field tuple. Every record is
frozen: assignment and deletion raise an AttributeError, as the stdlib's
do, so `__post_init__` sets fields through `object.__setattr__`, and a
value derived from the fields is a `functools.cached_property`, which
writes the instance `__dict__` directly. Bad arguments raise one TypeError
that names the record, its fields, the number of positional arguments
given, each unknown or repeated keyword and each missing field.

The stdlib writes those methods as source text and compiles it with `exec`
for every class; for the 24 records dynte then had, that was about 30 ms,
a third of what `import dynte.cli` adds to every process. Here they are
closures over each class's field names, made once per class. Ordering,
`replace`, `asdict`, `__match_args__`, slots, subclassing and the
recursive-repr guard are left out: no record uses them.
"""

from __future__ import annotations


def record(cls):
    """Class decorator: `cls` becomes a frozen record of its annotated fields."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    n = len(names)
    post_init = hasattr(cls, "__post_init__")

    def bind(args: tuple, kwargs: dict) -> tuple:
        """The arguments in field order."""
        given = dict(zip(names, args))
        bad = [key for key in kwargs if key not in names or key in given]
        given.update(kwargs)
        missing = [p for p in names if p not in given and p not in defaults]
        if len(args) > n or bad or missing:
            raise TypeError(f"{cls.__qualname__}({', '.join(names)}) got {len(args)} "
                            f"positional arguments, unknown or repeated keywords {bad}, "
                            f"missing fields {missing}")
        return tuple(given[p] if p in given else defaults[p] for p in names)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = bind(args, kwargs)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        if post_init:
            self.__post_init__()

    def values(self) -> tuple:
        return tuple(getattr(self, name) for name in names)

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for fn in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        fn.__qualname__ = f"{cls.__qualname__}.{fn.__name__}"
        if fn is not __repr__ or "__repr__" not in cls.__dict__:  # as dataclass does
            setattr(cls, fn.__name__, fn)
    return cls
