"""Record classes: the part of `dataclasses.dataclass` dynte's containers use.

`@record` or `@record(frozen=True)` on a class with annotated fields gives
it the constructor, `__repr__`, `__eq__` and `__hash__` that
`@dataclass`/`@dataclass(frozen=True)` would: positional or keyword
arguments with class-level defaults, the same TypeErrors for a missing,
unknown or repeated argument, then `__post_init__` if the class has one;
`QualName(f=...)` over every field; equal when of the same class and equal
field by field; a hash of the field tuple when frozen and none otherwise.
A frozen record refuses assignment and deletion with an AttributeError, as
the stdlib does, so `__post_init__` sets fields through
`object.__setattr__`. `field(init=False)` declares a field the constructor
does not take.

The stdlib writes those methods as source text and compiles it with `exec`
for every class; for dynte's 28 records that was about 30 ms, a third of
what `import dynte.cli` adds to every process. Here they are closures over
each class's field names, made once per class. Ordering, `replace`,
`asdict`, `__match_args__`, slots and the recursive-repr guard are left
out: no record uses them.
"""

from __future__ import annotations

_MISSING = object()
_NO_INIT = object()


def field(*, init: bool):
    """`name: type = field(init=False)`: a field the constructor does not
    take and `__post_init__` sets."""
    if init:
        raise TypeError("field() only declares init=False fields")
    return _NO_INIT


def record(cls=None, /, *, frozen: bool = False):
    """Class decorator; `@record` or `@record(frozen=True)`."""
    if cls is None:
        return lambda c: _build(c, frozen)
    return _build(cls, frozen)


def _quoted(names: list[str]) -> str:
    """'a', 'a' and 'b', or 'a', 'b', and 'c', as Python's own messages list
    missing arguments."""
    q = [repr(n) for n in names]
    if len(q) <= 2:
        return " and ".join(q)
    return ", ".join(q[:-1]) + ", and " + q[-1]


def _build(cls, frozen: bool):
    names = tuple(cls.__dict__.get("__annotations__", {}))
    params: list[str] = []
    defaults: dict[str, object] = {}
    for name in names:
        value = cls.__dict__.get(name, _MISSING)
        if value is _NO_INIT:
            delattr(cls, name)
            continue
        if value is not _MISSING:
            defaults[name] = value
        elif defaults:
            raise TypeError(f"non-default argument {name!r} follows default argument")
        params.append(name)
    accepted = frozenset(params)
    n, n_required = len(params), len(params) - len(defaults)
    where = f"{cls.__qualname__}.__init__()"
    set_field = object.__setattr__ if frozen else setattr
    post_init = hasattr(cls, "__post_init__")

    def bind(args: tuple, kwargs: dict) -> tuple:
        """The arguments in field order, checked in the order Python checks
        a def's: keywords, then the positional count, then what is missing."""
        given = dict(zip(params, args))
        for key, value in kwargs.items():
            if key not in accepted:
                raise TypeError(f"{where} got an unexpected keyword argument {key!r}")
            if key in given:
                raise TypeError(f"{where} got multiple values for argument {key!r}")
            given[key] = value
        if len(args) > n:
            takes = f"from {n_required + 1} to {n + 1}" if defaults else str(n + 1)
            raise TypeError(f"{where} takes {takes} positional arguments "
                            f"but {len(args) + 1} were given")
        missing = [p for p in params[:n_required] if p not in given]
        if missing:
            raise TypeError(f"{where} missing {len(missing)} required positional "
                            f"argument{'s' if len(missing) > 1 else ''}: {_quoted(missing)}")
        return tuple(given[p] if p in given else defaults[p] for p in params)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = bind(args, kwargs)
        for name, value in zip(params, args):
            set_field(self, name, value)
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
        if type(self) is cls or name in names:
            raise AttributeError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise AttributeError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    methods = [__init__, __repr__, __eq__]
    if frozen:
        methods += [__hash__, __setattr__, __delattr__]
    else:
        cls.__hash__ = None
    for fn in methods:
        fn.__qualname__ = f"{cls.__qualname__}.{fn.__name__}"
        setattr(cls, fn.__name__, fn)
    return cls
