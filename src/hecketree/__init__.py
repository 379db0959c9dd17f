"""Exact Hecke-algebra arithmetic for groups acting on locally finite trees.

Families covered: the vertex-stabilizer (spherical) algebra, the edge-fixator
algebra with its reduced-word presentation, the end-stabilizer algebras of
the full automorphism group (horocycle basis and isometry normal form), and
the p-adic realization for SL2 through unit-square orbits.  A finite tree
ball with direct geometric counting serves as the independent oracle, and an
integer-linear-algebra layer covers AF direct limits and crossed-product
K-groups.
"""

from .core import HeckeAlgebra, HeckeElement
from .endstab import (
    EventuallyConstantSeq,
    HorocycleAlgebra,
    ToeplitzAlgebra,
    from_sequence,
    m_element_to_nf,
    m_to_nf,
    nf_to_m,
    to_sequence,
    toeplitz_bratteli,
    toeplitz_shift_alpha,
)
from .iwahori import DeltaIndex, IwahoriAlgebra, bar, word_concat, word_inverse
from .ktheory import (
    AbelianGroupPresentation,
    BratteliDiagram,
    IntMatrix,
    cokernel,
    kernel_rank,
    pv_k_groups,
    smith_normal_form,
    truncated_limit,
)
from .sl2 import (
    DoubleCoset,
    PruferElement,
    PruferGroupAlgebra,
    SL2EndAlgebra,
    make_prufer,
    nu,
    orbit,
    prufer_add,
    prufer_zero,
    same_double_coset,
    unit_squares_mod,
)
from .spherical import SphericalAlgebra, SphericalParams
from .tree import (
    TreeBall,
    build_ball,
    distance,
    horocycle_class,
    horocycle_constant,
    horocycle_members,
    horocycle_product,
    iwahori_constant,
    iwahori_product,
    spherical_constant,
    spherical_product,
    weyl_distance,
)

__version__ = "0.1.0"
