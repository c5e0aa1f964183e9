"""Exact signed domino-tiling sums and the number theory they encode."""

from .board import (
    Board,
    Cell,
    LShapeSpec,
    half_board,
    l_board,
    rectangle,
)
from .gaussian import GaussianInt, i_power
from .limits import SizeLimitError
from .tiling import (
    Domino,
    Tiling,
    count_tilings,
    enumerate_tilings,
    flip_at,
    flip_component,
    flip_moves,
    horizontal_count,
    is_totally_vertical,
    normalize_to_vertical,
    parity_counts,
    signed_sum,
    signed_sum_bruteforce,
    totally_vertical_tiling,
)
from .kasteleyn import build_kasteleyn, det_exact, signed_sum_via_det
from .residue import (
    gauss_sign,
    gauss_sign_even_half,
    jacobi,
    theorem_rhs,
)
from .spectral import (
    ToleranceError,
    eisenstein_product,
    ktf_count,
    norm_product,
    round_signed,
    signed_sum_via_spectral,
)
from .decomp import (
    DecompositionReport,
    InvariantError,
    admissible_diagonal,
    closure,
    closure_union,
    half_board_parity,
    half_board_sum,
    half_board_support,
    l_signed_sum_closed,
    periodicity_factor,
    reciprocity_free_sum,
    restricted_sum,
    verify_decomposition,
)

__version__ = "0.1.0"
