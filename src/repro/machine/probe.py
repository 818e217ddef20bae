"""Probe attachment: wrappers assigned over machine methods.

Trace capture, :class:`~repro.machine.tracelog.TraceLog` and the obs
collector observe a machine by assigning wrappers over methods of the
bus, counters or CPU *instance*. Detaching gives back exactly what was
there: the class method when nothing else was attached -- so no
instance attribute is left behind, and the CPU's block tier sees a plain
machine again -- or the earlier probe's wrapper. Probes nest, so they
detach in reverse order of attachment; detaching one from under a later
one would silently unhook the later one, and raises instead.
"""


class ProbeOrderError(RuntimeError):
    """A probe was detached while a later probe's wrapper sat on top."""


def unwrapped(instance, name, cls):
    """Whether ``instance.name`` is *cls*'s method bound to *instance*,
    with no instance attribute over it.

    Read through ``getattr``, never the instance ``__dict__``: on
    CPython 3.11, reading an object's ``__dict__`` turns its inline
    attribute values into a dictionary, and every later attribute access
    on it gets slower (the bus and CPU's step path by about a third).
    """
    method = getattr(instance, name)
    return (
        getattr(method, "__func__", None) is getattr(cls, name, None)
        and getattr(method, "__self__", None) is instance
    )


class Patches:
    """Wrappers assigned over instance methods, undone together."""

    def __init__(self, patches):
        #: ``(target, name, wrapper, saved)``; *saved* is the attribute
        #: the wrapper replaced, or None when that was the class method.
        self._patches = []
        for target, name, wrapper in patches:
            saved = getattr(target, name)
            if unwrapped(target, name, type(target)):
                saved = None
            self._patches.append((target, name, wrapper, saved))
            setattr(target, name, wrapper)

    def undo(self):
        """Restore every attribute; raise if another probe wrapped one."""
        for target, name, wrapper, _saved in self._patches:
            if getattr(target, name) is not wrapper:
                raise ProbeOrderError(
                    f"{type(target).__name__}.{name} was wrapped again after "
                    "this probe attached; detach probes in reverse order"
                )
        for target, name, _wrapper, saved in reversed(self._patches):
            if saved is None:
                delattr(target, name)
            else:
                setattr(target, name, saved)
