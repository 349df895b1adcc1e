"""condlab: permutation conductance lab over GF(2^n) word vectors.

Build and invert the algebraic permutation constructions, measure their
conductance degree exactly or bound it heuristically, partition box
images by thin-slice cutting, and verify min-entropy and residual
bounds empirically. The ``condlab`` console script fronts everything.
"""

from .boxes import (
    PointSet,
    QBox,
    box_count,
    combination_rank,
    combination_unrank,
    covering_box,
    enumerate_qboxes,
    enumerate_qboxes_range,
    greedy_box,
    image_of_box,
    intersection_count,
)
from .conductance import (
    BoundSheet,
    ConductanceReport,
    best_V_for_U,
    bound_sheet,
    cond_to_condd,
    condd_to_cond,
    degree_from_count,
    exact_conductance,
    heuristic_lower_bound,
    replay_witness,
)
from .condenser import (
    CondenserProfile,
    ConverseReport,
    Decomposition,
    FiniteDistribution,
    FlatDecomposition,
    coordinate_min_entropy,
    decompose,
    empirical_condenser_profile,
    flat_decomposition_check,
    min_entropy,
    verify_converse_bounds,
)
from .errors import (
    BudgetError,
    CondlabError,
    DegreeMismatchError,
    NotAPermutationError,
    RangeError,
    ShapeError,
    TableFormatError,
    UndefinedEntropyError,
    UnsupportedDegreeError,
)
from .gf2n import (
    FieldElement,
    ReductionPolynomial,
    default_poly,
    gf_add,
    gf_inv,
    gf_mul,
    gf_pow,
    is_irreducible,
)
from .perms import (
    BijectivityReport,
    PermutationSpec,
    WordVector,
    load_table_file,
    random_table,
    verify_bijective,
    write_table_file,
)

__version__ = "0.1.0"
