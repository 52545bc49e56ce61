"""Exact solvers for monotonic sequence games.

Two players alternately move elements of a partially ordered deck onto a
board; the game ends once the board carries an ascending subsequence of
length ``a`` or a descending one of length ``d``.  This package classifies
positions as N / P / D (next wins, previous wins, drawn) exactly, for play
on finite chains, on finite posets, and on dense linear orders, plus
the insert-anywhere extension, together with the published regression
tables, certificates and counting results for all of them.
"""

from .bumping import (
    ColourWord,
    RecordingSequence,
    binary_encode,
    bluish,
    colour_of,
    double_bump,
    double_bump_step,
    enumerate_admissible,
    insert_purple,
    is_admissible,
    reddish,
    reverse_complement,
)
from .chain_solver import (
    ChainSolver,
    CappedChainSolver,
    GapState,
    SolveReport,
    canonical_state,
    closed_form_d2,
    closed_form_d3,
    large_gap_bound,
    solve_chain,
    stabilization_bound,
    verify_shift_implication,
)
from .errors import InvariantError, ResourceLimitError, StrategyInapplicableError
from .extended_solver import (
    Decomposition,
    Perm,
    extensions,
    greedy_decreasing_decomposition,
    greedy_increasing_decomposition,
    insert_at,
    lds,
    lis,
    parity_outcome,
    principal_variation,
    safe_slot,
    solve_extended,
)
from .order_core import (
    BoardStatus,
    DenseOrder,
    FiniteChain,
    FinitePoset,
    GameParams,
    InvolutionFlavour,
    Mode,
    Outcome,
    board_status,
    boolean_lattice,
    complement_involution,
    draw_reachable,
    longest_ascending,
    longest_descending,
    mirror_strategy,
    no_draw_possible,
    solve_poset,
    validate_board,
    validate_involution,
)
from .q_solver import (
    colour_children,
    duality_check,
    exact_pset_transcript,
    is_terminal_q,
    p4_set,
    p5_set,
    position_symmetry_holds,
    solve_q,
    sufficient_pset_transcript,
    typed_reachable_graph,
    verify_exact_pset,
    verify_strategy_stealing_case,
    verify_sufficient_pset,
)

__version__ = "0.1.0"
