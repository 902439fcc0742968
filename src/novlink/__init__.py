"""Exact computer algebra over the Novikov field.

Core capabilities: series arithmetic with adic precision tracking, Laurent
potentials on the unit torus with multiplicative gradients and Hessians,
leading-order solving plus order-by-order lifting of critical points, the
chain-link potential family on the sphere, Clifford-algebra traces, the
symmetric sphere quantum algebra with its idempotents, and exact action
spectrum enumeration with rigidity and homogenization utilities.
"""

from .novikov import (
    INFINITY,
    Exponent,
    NovikovSeries,
    as_fraction,
    divide,
    linear_combination,
)
from .laurent import LaurentPotential, UnitaryPoint, det_bareiss, solve_linear
from .critlift import (
    CriticalCertificate,
    LiftConfig,
    certify_morse,
    hensel_lift,
    leading_solutions,
)
from .linkfam import (
    BulkParameter,
    CircleLinkS2,
    TruncationReport,
    build_chain_potential,
    critical_data,
    truncation_obstruction,
)
from .cliffordtrace import (
    KAPPA,
    CliffordAlgebraModel,
    CliffordElement,
    clifford_product,
    defect_bound,
    poincare_pairing,
    trace_Z,
)
from .symprodqh import (
    SymQHElement,
    grading,
    symk_idempotents,
    symk_multiply,
)
from .spectrum import (
    ModelOrbitSet,
    RigidityResult,
    SpectrumConfig,
    enumerate_spectrum,
    fekete_homogenize,
    rigidity_check,
    spectrum_gap,
)
from .harness import AreaSchedule, ScanConfig, nobulk_scan, weyl_scan
from . import errors

__version__ = "0.1.0"

__all__ = [
    "INFINITY",
    "Exponent",
    "NovikovSeries",
    "as_fraction",
    "divide",
    "linear_combination",
    "LaurentPotential",
    "UnitaryPoint",
    "det_bareiss",
    "solve_linear",
    "CriticalCertificate",
    "LiftConfig",
    "certify_morse",
    "hensel_lift",
    "leading_solutions",
    "BulkParameter",
    "CircleLinkS2",
    "TruncationReport",
    "build_chain_potential",
    "critical_data",
    "truncation_obstruction",
    "KAPPA",
    "CliffordAlgebraModel",
    "CliffordElement",
    "clifford_product",
    "defect_bound",
    "poincare_pairing",
    "trace_Z",
    "SymQHElement",
    "grading",
    "symk_idempotents",
    "symk_multiply",
    "ModelOrbitSet",
    "RigidityResult",
    "SpectrumConfig",
    "enumerate_spectrum",
    "fekete_homogenize",
    "rigidity_check",
    "spectrum_gap",
    "AreaSchedule",
    "ScanConfig",
    "nobulk_scan",
    "weyl_scan",
    "errors",
]
