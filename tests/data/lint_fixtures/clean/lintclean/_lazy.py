"""The shared lazy-export helper, as a package's ``__init__`` binds it."""

import sys
from importlib import import_module


def lazy_exports(package, exports):
    def __getattr__(name):
        if name not in exports:
            raise AttributeError(name)
        value = getattr(import_module(exports[name], package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
