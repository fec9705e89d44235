"""End-to-end pipeline: polytope -> lattice -> cone -> complex -> reports."""

from __future__ import annotations

from dataclasses import dataclass

from .cellular import ChainComplex, HomologyResult, Trivialization, build_complex, trivialize
from .cones import ConeSystem, LiftedCone, lift
from .ktheory import E1Page, KReport, e1_page, k_report
from .polytope import FaceLattice, Polytope, face_lattice


@dataclass
class PipelineResult:
    """Everything one run computes; all members immutable."""

    polytope: Polytope
    lattice: FaceLattice
    cone: LiftedCone
    system: ConeSystem
    trivialization: Trivialization
    complex: ChainComplex
    augmented_homology: HomologyResult
    reduced_homology: HomologyResult
    e1: E1Page
    report: KReport


def run_pipeline(P: Polytope) -> PipelineResult:
    lattice = face_lattice(P)
    cone = lift(P)
    system = ConeSystem(cone, lattice)
    triv = trivialize(lattice)
    complex_ = build_complex(triv, system)
    page = e1_page(complex_)
    report = k_report(P, complex_)
    return PipelineResult(
        polytope=P, lattice=lattice, cone=cone, system=system,
        trivialization=triv, complex=complex_,
        augmented_homology=report.augmented_homology,
        reduced_homology=report.reduced_homology, e1=page, report=report)
