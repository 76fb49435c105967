"""Exact generalized Stirling matrices S^{a,e}: construction by four
routes (three independent), constructive total non-negativity decisions with
planar-network certificates, chordal graph Stirling numbers, and
Ferrers-board rook numbers."""

from .core import (
    SequencePair,
    TriMatrix,
    format_matrix,
    format_rational,
    parse_rational,
)
from .stirling import (
    PRESET_NAMES,
    RgsReport,
    RgsViolation,
    eulerian_matrix,
    preset,
    rgs_check,
    sequence_pair,
    stirling_explicit,
    stirling_recurrence,
    stirling_symmetric,
)
from .network import (
    PivotTrace,
    WeightArray,
    build_initial,
    certify,
    path_matrix,
    pivot,
)
from .tnn import (
    EntryWitness,
    MinorWitness,
    TnnVerdict,
    decide_tnn,
    det_exact,
    is_tnn_exhaustive,
    iter_minors,
    unit_lower_inverse,
)
from .chordal import (
    ChordalReport,
    Graph,
    PeoReport,
    chromatic_check,
    find_peo,
    graph_from_rgs,
    graph_stirling_bruteforce,
    graph_stirling_matrix,
    parse_graph,
    signed_inverse_check,
    verify_peo,
)
from .rook import (
    FerrersBoard,
    board_pair,
    gjw_check,
    parse_board,
    rook_matrix,
    rook_numbers_bruteforce,
)

__version__ = "0.1.0"

__all__ = [
    "ChordalReport",
    "EntryWitness",
    "FerrersBoard",
    "Graph",
    "MinorWitness",
    "PRESET_NAMES",
    "PeoReport",
    "PivotTrace",
    "RgsReport",
    "RgsViolation",
    "SequencePair",
    "TnnVerdict",
    "TriMatrix",
    "WeightArray",
    "board_pair",
    "build_initial",
    "certify",
    "chromatic_check",
    "decide_tnn",
    "det_exact",
    "eulerian_matrix",
    "find_peo",
    "format_matrix",
    "format_rational",
    "gjw_check",
    "graph_from_rgs",
    "graph_stirling_bruteforce",
    "graph_stirling_matrix",
    "is_tnn_exhaustive",
    "iter_minors",
    "parse_board",
    "parse_graph",
    "parse_rational",
    "path_matrix",
    "pivot",
    "preset",
    "rgs_check",
    "rook_matrix",
    "rook_numbers_bruteforce",
    "sequence_pair",
    "signed_inverse_check",
    "stirling_explicit",
    "stirling_recurrence",
    "stirling_symmetric",
    "unit_lower_inverse",
    "verify_peo",
]
