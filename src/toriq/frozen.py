"""The base of the immutable value classes.

Each value class writes out its ``__init__``, one ``object.__setattr__`` per
field, and, where instances are compared, ``__eq__`` and ``__hash__`` over
its field tuple.  ``dataclasses`` would generate the same methods, but
importing it loads ``inspect``, ``ast``, ``dis`` and ``tokenize``, and each
decoration compiles its methods at import time: a quarter of a short CLI
command's run time.
"""


class Frozen:
    """An immutable value: setting or deleting an attribute raises
    ``AttributeError``.  ``_fields`` names the fields the repr shows.
    ``functools.cached_property`` still works, as it writes the instance
    ``__dict__`` directly."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
