"""Adaptive kernel decompositions on the unit disc and the 2-torus.

The package decomposes Hardy-space boundary signals into parameterized
reproducing kernels: 1-d greedy decomposition over rational orthonormal
systems, product-system and tensor-kernel decompositions on the 2-torus,
and the pre-orthogonal greedy algorithm with multiplicity escalation.
"""

from .errors import (
    ConfigError,
    DegenerateInputError,
    DimensionMismatchError,
    DomainError,
    IngestError,
    InvariantViolation,
    RecordFormatError,
    SpanDegeneracyError,
    TruncationWarning,
)
from .hardy import (
    FourierCoeffs1D,
    FourierCoeffs2D,
    GridSpec,
    QuadrantParts,
    Record,
    Step,
    analytic_part,
    grid_argmax,
    grid_argmax_pairs,
    grid_points,
    inner_product_1d,
    inner_product_2d,
    next_pow2,
    quadrant_split,
)
from .szego import (
    AtomSpec,
    TensorAtomSpec,
    higher_order_coeffs,
    normalization,
    normalized_atom_coeffs,
    szego_coeffs,
    tensor_atom_coeffs,
)
from .afd1d import (
    afd_decompose_1d,
    backward_shift,
    msp_1d,
    reconstruct_1d,
    tm_matrix,
)
from .afd2d import (
    afd2d_tm_decompose,
    msp_product_tm,
    pga_decompose,
    pga_step,
    reconstruct_pga,
    reconstruct_product_tm,
)
from .poga import (
    EPS_SPAN,
    OrthoFrame,
    ProductSzegoDictionary2D,
    RateReport,
    SelectionOutcome,
    SzegoDictionary1D,
    poga_decompose,
    rate_report,
    reconstruct_poga,
)
from .cli import (
    cli_main,
    load_image_2d,
    load_record,
    load_signal_1d,
    save_record,
    synth_signal_1d,
    verify_record,
)

__version__ = "0.1.0"

# Per-algorithm names that perfbench/checks.py still builds records by;
# ROADMAP item 3's benchmark change can drop them.
AFDStep = Afd2dStep = PGAStep = PogaStep = Step
AFDRecord = Afd2dRecord = PGARecord = PogaRecord = Record
