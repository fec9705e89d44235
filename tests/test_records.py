"""polyk's plain records are named tuples; five classes stay dataclasses.

A frozen dataclass costs about 1 ms of class creation each time polyk is
imported, a named tuple a tenth of that.  A class stays a dataclass only
where a constructor check or a derived field must run on every
construction: a named tuple's ``_make`` and ``_replace`` bypass ``__new__``.
"""

import dataclasses
import importlib
import pkgutil

import pytest

import polyk
from polyk.cellular import ChainComplex

DATACLASSES = {"cellular.ChainComplex", "cellular.AbelianGroup", "comb_type.AbstractLattice",
               "polytope.FaceLattice", "linalg.QMatrix"}
RECORDS = {"cellular.HomologyResult", "comb_type.UnsignedIncidence", "comb_type.LatticeIso",
           "cones.LiftedCone", "cones.FaceConeData", "cones.EdgeRay", "files.PolytopeFile",
           "ktheory.E1Page", "ktheory.KReport", "linalg.SNFResult", "pipeline.PipelineResult",
           "polytope.Polytope", "polytope.Face", "polytope.Facet"}


def polyk_classes() -> dict[str, type]:
    """Every class defined in a polyk module, as ``module.Class``."""
    out = {}
    for info in pkgutil.iter_modules(polyk.__path__, prefix="polyk."):
        module = importlib.import_module(info.name)
        for attr, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == info.name:
                out[f"{info.name.removeprefix('polyk.')}.{attr}"] = value
    return out


def test_exactly_five_classes_are_dataclasses():
    own = {name for name, cls in polyk_classes().items() if "__dataclass_fields__" in vars(cls)}
    assert not own - DATACLASSES, f"new dataclasses: {sorted(own - DATACLASSES)}"
    assert not DATACLASSES - own, f"no longer dataclasses: {sorted(DATACLASSES - own)}"


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_immutable_named_tuples(name):
    cls = polyk_classes()[name]
    assert issubclass(cls, tuple) and cls._fields, name
    record = cls(*range(len(cls._fields)))
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    # equal fields give the hash and the repr a frozen dataclass gave
    assert hash(record) == hash(tuple(range(len(cls._fields))))
    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{field}={i}" for i, field in enumerate(cls._fields)) + ")"


def test_chain_complex_stays_frozen():
    X = ChainComplex(dim=0, columns=(({0: 1},),), face_order=(((),), ((0,),)))
    for field in ("dim", "columns", "face_order"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(X, field, None)


def test_nothing_subclasses_chain_complex():
    # ChainComplex checks D_{j-1} D_j = 0 itself, so no subclass marks a
    # checked complex and homology reads any complex alike
    subclasses = [name for name, cls in polyk_classes().items()
                  if cls is not ChainComplex and issubclass(cls, ChainComplex)]
    assert subclasses == []
