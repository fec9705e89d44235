"""No polyk module keeps mutable state at module level.

A module-level dict, list, set or bytearray is shared by every caller in
the process, so one run (or one test) could see another's leftovers.
"""

import importlib
import pkgutil

import polyk

MUTABLE = (dict, list, set, bytearray)


def test_no_mutable_module_attributes():
    names = ["polyk"] + [m.name for m in pkgutil.iter_modules(polyk.__path__, prefix="polyk.")]
    offenders = []
    for name in names:
        for attr, value in vars(importlib.import_module(name)).items():
            if not (attr.startswith("__") and attr.endswith("__")) and isinstance(value, MUTABLE):
                offenders.append(f"{name}.{attr}: {type(value).__name__}")
    assert not offenders, offenders
