"""Shared exception types, and the frozen record the value classes share.

`_record` stands in for `dataclasses.dataclass(frozen=True)`, whose import
(with `inspect`) and per-class code generation cost tens of milliseconds of
every CLI start.
"""


class GraphError(ValueError):
    """Invalid graph data or an operation applied to an unsupported graph."""


class GraphFormatError(GraphError):
    """Malformed graph file. Carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DisconnectedGraphError(GraphError):
    """Operation requires a connected (underlying) graph."""


class StructureError(GraphError):
    """Graph lacks the combinatorial structure an operation needs."""


class InternalCheckError(RuntimeError):
    """An exact identity that must hold by construction failed to verify."""


def _record(cls):
    """Make cls a frozen record of its annotated fields, in order: built from
    positional or keyword arguments with class-level defaults, then checked by
    cls.__post_init__ if defined; setting or deleting an attribute raises
    AttributeError; equality only with the same class; hash and repr over the
    field tuple, which each instance keeps as `_values`. Instances keep a
    __dict__, so functools.cached_property works on them."""
    names = tuple(cls.__annotations__)
    count, defaults = len(names), {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    post_init = cls.__dict__.get("__post_init__")

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            rest, given = names[len(args):], {**defaults, **kwargs}
            if len(args) > count or kwargs.keys() - rest or set(rest) - given.keys():
                raise TypeError(f"{cls.__name__}() takes the fields {', '.join(names)}")
            args += tuple(map(given.__getitem__, rest))
        fields = self.__dict__
        fields.update(zip(names, args))
        fields["_values"] = args
        if post_init is not None:
            post_init(self)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{cls.__name__} is frozen: cannot set or delete {name!r}")

    def __eq__(self, other):
        return self._values == other._values if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        return f"{cls.__qualname__}({', '.join(f'{n}={v!r}' for n, v in zip(names, self._values))})"

    cls.__init__, cls.__eq__, cls.__repr__, cls._fields = __init__, __eq__, __repr__, names
    cls.__setattr__ = cls.__delattr__ = __setattr__
    cls.__hash__ = lambda self: hash(self._values)
    return cls


def replace(record, **changes):
    """A copy of a `_record` instance with the given fields changed, checked
    again by its __post_init__."""
    return type(record)(**{**dict(zip(record._fields, record._values)), **changes})
