"""Matrix-valued positive definite kernels that fail strictness while all of
their scalar projections keep it, plus the tooling to verify that claim.

The public surface mirrors the module layout: ``numcore`` for Hermitian
verdicts, ``spaces`` and ``symmetry`` for point spaces and maps, ``kernels``
for the catalog and Gram assembly, ``counterexample`` for the grid
constructions, ``fourier`` for finite abelian groups, and ``harness`` for
named verification suites.
"""

from .counterexample import (
    CounterexampleKernel,
    DegeneracyWitness,
    Variant,
    build_adjoint,
    build_shifted,
    build_unitary,
    embed,
    witness,
)
from .fourier import (
    FourierSpectrum,
    analyze,
    brute_force_strict,
    character,
    spectrum_kernel,
    strict_criterion,
    synthesize,
)
from .harness import SuiteConfig, SuiteReport, emit_report, list_suites, run_suite
from .kernels import (
    CircleExpCos,
    Composed,
    DotExp,
    Gaussian,
    GroupFourier,
    MatrixKernel,
    OffsetKernel,
    ProjectedKernel,
    ScalarKernel,
    TorusProduct,
    ZeroKernel,
    check_adjoint_invariance,
    check_unitary_invariance,
    gram,
    project,
)
from .numcore import HermitianMatrix, PDKind, PDVerdict, classify, classify_many, quadratic_form
from .spaces import (
    Circle,
    ComplexSphere,
    Euclidean,
    FiniteAbelian,
    Space,
    group_elements,
    sample_distinct,
)
from .symmetry import (
    CircleRotation,
    ComplexSphereRotation,
    EuclideanScaling,
    EuclideanTranslation,
    GroupTranslation,
    OrbitDecomposition,
    SymmetryMap,
    check_aperiodic,
    check_center,
    check_injective_on,
    orbit_decompose,
)

__version__ = "0.1.0"
