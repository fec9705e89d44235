"""End-to-end pipeline: polytope -> lattice -> cone -> complex -> reports."""

from __future__ import annotations

from typing import NamedTuple

from .cellular import ChainComplex, build_complex, trivialize
from .cones import ConeSystem, lift
from .ktheory import E1Page, KReport, e1_page, k_report
from .polytope import FaceLattice, Polytope, face_lattice


class PipelineResult(NamedTuple):
    """Everything one run computes, each value held once: the lifted cone is
    ``system.cone``, and the homology results are the report's."""

    polytope: Polytope
    lattice: FaceLattice
    system: ConeSystem
    complex: ChainComplex
    e1: E1Page
    report: KReport


def run_pipeline(P: Polytope) -> PipelineResult:
    lattice = face_lattice(P)
    system = ConeSystem(lift(P), lattice)
    complex_ = build_complex(trivialize(lattice), system)
    page = e1_page(complex_)
    report = k_report(complex_)
    return PipelineResult(
        polytope=P, lattice=lattice, system=system, complex=complex_, e1=page, report=report)
