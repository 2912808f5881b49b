"""Combinatorics of decorated trivalent graphs.

Half-edge graphs with alpha/beta decorations, trivial modifications and IH
moves with exact decoration transport, congruence invariants, a normal-form
reducer, a bounded brute-force orbit oracle, and a text-file CLI.
"""

from .decoration import (
    AlphaMismatch,
    BadTarget,
    Decoration,
    DecorationError,
    ExternalEdge,
    Residue,
    TrivialMod,
    apply_trivial_mod,
    cycle_b,
    gcd_all,
    make_decoration,
    reduce_lift,
    trivial_mod_equivalent,
    validate_decoration,
)
from .graph import (
    BadBoundaryMap,
    DanglingPair,
    DuplicateHalfEdge,
    GraphError,
    GraphStats,
    HalfEdgeInTwoVertices,
    InternalError,
    InvalidCycle,
    NotConnected,
    OrientedCycle,
    SelfPairing,
    TrivalentGraph,
    boundary_isomorphism,
    build_graph,
    cycle_basis,
    graph_stats,
    is_connected,
)
from .invariants import (
    ConditionsFail,
    InvariantError,
    InvariantReport,
    NormalForm,
    WrongGenus,
    a_tilde,
    arf,
    classify,
    equivalent,
    frak_C,
    normal_form,
)
from .moves import (
    GenusMismatch,
    IhMove,
    IhTrace,
    InvalidMove,
    MoveError,
    MoveScript,
    ScriptError,
    apply_script,
    ih_apply,
    ih_plan,
)
from .oracle import (
    FrontierExceeded,
    OrbitBounds,
    move_orbit,
)
from .textio import (
    FileSyntaxError,
    SemanticError,
    TextError,
    dot_export,
    parse_decorated_graph,
    parse_script,
    serialize_decorated_graph,
    serialize_script,
)
# Not cli: ``python -m decograph.cli`` must not find it imported already.

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
