"""Records: classes whose instances hold a fixed list of named fields.

``record`` gives a class the constructor, ``repr``, equality and hash of
its annotated fields, as ``dataclasses.dataclass`` would. Its methods are
written once here and shared by every record, so decorating a class
generates and compiles no code: the decorator only reads the field names
and defaults from the class's annotations.
"""

from __future__ import annotations

#: the default of a field that has none
_REQUIRED = object()


class factory:
    """A field default made anew for each instance by calling ``make()``."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make


def record(cls=None, *, frozen: bool = False, eq: bool = True):
    """Make ``cls`` a record of the fields its annotations name.

    The fields are those of the nearest record base, then the class's own
    annotations in order, leaving out ``ClassVar`` ones; a class attribute
    of a field's name is its default, a ``factory`` one a default made per
    instance. The class gets ``__init__`` (fields by position or keyword,
    then ``__post_init__`` if the class has one) and ``__repr__``. With
    ``eq`` it compares and, when ``frozen``, hashes by its fields, and a
    mutable record is unhashable; without, both stay by identity. A
    ``frozen`` record refuses assignment and deletion with
    ``AttributeError``. A method the class defines itself is kept. Works
    as ``@record`` and as ``@record(frozen=..., eq=...)``.
    """
    if cls is None:
        return lambda cls: record(cls, frozen=frozen, eq=eq)
    fields = dict(getattr(cls, "__record_fields__", {}))
    for name, annotation in cls.__annotations__.items():
        if str(annotation).split("[")[0] in ("ClassVar", "typing.ClassVar"):
            continue
        fields[name] = cls.__dict__.get(name, _REQUIRED)
        if isinstance(fields[name], factory):
            delattr(cls, name)
    cls.__record_fields__ = fields
    methods = {"__init__": _init, "__repr__": _repr}
    if eq:
        methods.update(__eq__=_eq, __hash__=_hash if frozen else None)
    if frozen:
        methods.update(__setattr__=_refuse_set, __delattr__=_refuse_delete)
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls


def _init(self, *args, **kwargs):
    fields = self.__record_fields__
    if len(args) > len(fields):
        raise TypeError(
            f"{type(self).__name__}() takes {len(fields)} positional arguments "
            f"but {len(args)} were given"
        )
    # written into the instance's dict, past a frozen record's guard
    state = self.__dict__
    state.update(zip(fields, args))
    for name, default in fields.items():
        if name in kwargs:
            if name in state:
                raise TypeError(f"{type(self).__name__}() got multiple values for {name!r}")
            state[name] = kwargs.pop(name)
        elif name in state:
            continue
        elif default is _REQUIRED:
            raise TypeError(f"{type(self).__name__}() missing argument {name!r}")
        else:
            state[name] = default.make() if isinstance(default, factory) else default
    if kwargs:
        raise TypeError(
            f"{type(self).__name__}() got an unexpected keyword argument {next(iter(kwargs))!r}"
        )
    post_init = getattr(self, "__post_init__", None)
    if post_init is not None:
        post_init()


def _repr(self) -> str:
    shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__record_fields__)
    return f"{type(self).__qualname__}({shown})"


def _values(self) -> tuple:
    return tuple(getattr(self, name) for name in self.__record_fields__)


def _eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return _values(self) == _values(other)


def _hash(self) -> int:
    return hash(_values(self))


def _refuse_set(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")


def _refuse_delete(self, name):
    raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")
