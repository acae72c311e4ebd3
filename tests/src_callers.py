"""List the methods of the library's classes that no library code calls.

    python tests/src_callers.py [PYTEST ARGUMENTS]

The script wraps every method of every class defined in `src/nctoric`:
plain, static and class methods, dunders included, and property getters.
It then runs the tier-1 tests in this process (pytest with `-q` and the
given arguments).  Each wrapper notes when the frame that calls it lies in
`src/`, so a dunder that an operator, `hash` or `copy` invokes counts for
the code that applied the operator.  A method that only tests call, or that
nothing calls, is test-only code.  The static guard in `test_source.py`
misses such a method when it is a dunder or when another method shares its
name.

The script prints each such method and exits 1 unless they are exactly the
`__repr__`s of KEPT, which pytest prints when an assertion fails, or when
the tests fail.
"""
import functools
import importlib
import inspect
import os
import pkgutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.join(os.path.dirname(HERE), "src", "nctoric")
KEPT = {"exactmath.GaussRational.__repr__", "freeword.ReducedWord.__repr__",
        "freeword.Submonoid.__repr__", "ncalgebra.AlgElem.__repr__"}
# Frozen.__setattr__ refuses assignment: the library never assigns to a
# frozen value, so by design no library frame calls it
UNWRAPPED = {"errors.Frozen.__setattr__"}


def wrapped(fn, name, called):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if name not in called and sys._getframe(1).f_code.co_filename.startswith(PACKAGE):
            called.add(name)
        return fn(*args, **kwargs)
    return wrapper


def install(called):
    """Wrap the methods of the package's classes in place; return their
    names, as module.Class.method."""
    sys.path.insert(0, os.path.dirname(PACKAGE))
    names = set()
    for info in pkgutil.iter_modules([PACKAGE]):
        module = importlib.import_module(f"nctoric.{info.name}")
        for cls in vars(module).values():
            if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                continue
            for attr, value in list(vars(cls).items()):
                name = f"{info.name}.{cls.__name__}.{attr}"
                if name in UNWRAPPED:
                    continue
                if isinstance(value, (staticmethod, classmethod)):
                    new = type(value)(wrapped(value.__func__, name, called))
                elif isinstance(value, property):
                    new = value.getter(wrapped(value.fget, name, called))
                elif inspect.isfunction(value):
                    new = wrapped(value, name, called)
                else:
                    continue
                setattr(cls, attr, new)
                names.add(name)
    return names


def main(argv):
    import pytest

    called = set()
    names = install(called)
    code = pytest.main(["-q", "-p", "no:cacheprovider", HERE, *argv])
    unread = sorted(names - called)
    print(f"{len(unread)} of {len(names)} methods have no caller in src/:")
    for name in unread:
        print(f"  {name}{'' if name in KEPT else '  (test-only)'}")
    if code != 0:
        print(f"the tests failed (pytest exit code {int(code)})")
    return int(code != 0 or set(unread) != KEPT)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
