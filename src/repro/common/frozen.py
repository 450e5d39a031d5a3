"""Frozen slotted value objects that fill their slots directly.

The ``__init__`` of ``@dataclass(frozen=True, slots=True)`` stores each
field with ``object.__setattr__``, a full attribute lookup per field, and
the simulator builds such objects per encoded word, log entry and write.
"""

from dataclasses import MISSING, fields
from inspect import signature


def slot_init(check=None):
    """Class decorator, above ``@dataclass(frozen=True, slots=True)``.

    Replaces the dataclass's ``__init__`` with one of the same parameters
    and defaults that calls ``check`` with the fields its parameters name,
    then stores each field through its slot's member descriptor.  Frozen
    assignment, ``==``, ``hash``, ``repr`` and pickling stay the
    dataclass's, and ``dataclasses.replace`` runs the check again.
    """

    def install(cls):
        if hasattr(cls, "__post_init__") or any(
            f.default_factory is not MISSING for f in fields(cls)
        ):
            raise TypeError("%s: slot_init takes plain fields" % cls.__name__)
        env = {"_check": check}
        params, body = [], []
        if check is not None:
            body.append("_check(%s)" % ", ".join(signature(check).parameters))
        for f in fields(cls):
            env["_set_" + f.name] = cls.__dict__[f.name].__set__
            env["_dflt_" + f.name] = f.default
            body.append("_set_%s(self, %s)" % (f.name, f.name))
            params.append(
                f.name if f.default is MISSING else "%s=_dflt_%s" % (f.name, f.name)
            )
        exec("def __init__(self, %s):\n %s" % (", ".join(params), "\n ".join(body)), env)
        env["__init__"].__qualname__ = cls.__qualname__ + ".__init__"
        cls.__init__ = env["__init__"]
        return cls

    return install
