"""Immutable value records: a subclass's own annotations are its fields, in
order, and class attributes their defaults. Construction binds the arguments,
then calls ``self.__post_init__()``. Loads no ``inspect``, unlike ``dataclasses``."""


class Record:
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        cls = type(self)
        self.__dict__.update(zip(cls._fields, args))
        for name in cls._fields[len(args):]:
            if name not in kwargs and name not in cls.__dict__:
                raise TypeError(f"{cls.__name__} missing argument {name!r}")
            self.__dict__[name] = kwargs.pop(name, cls.__dict__.get(name))
        if kwargs or len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__} got unexpected arguments")
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(self.__dict__[name] for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
