"""Temporal graph functional dependency engine."""

from .graph import (
    AttrDelete,
    AttrSet,
    ChangeSet,
    EdgeDelete,
    EdgeInsert,
    Fragment,
    GraphView,
    Snapshot,
    TemporalGraph,
    Vertex,
    apply_changes,
    load_graph,
)
from .model import (
    ConstantLiteral,
    Delta,
    GraphPattern,
    MatchBinding,
    Tgfd,
    VariableLiteral,
    normalize,
    parse_tgfd_file,
)
from .matcher import IncrementalMatcher, match_snapshot
from .detection import (
    ConstantViolation,
    MatchIndex,
    PairViolation,
    Violation,
    detect_sequential,
    incted_step,
    permissible_range,
)
from .foundations import (
    Embedding,
    axiom_check,
    check_implication,
    check_satisfiability,
    closure_for_implication,
    find_embedding,
)
from .parallel import Assignment, Job, gen_assign, make_fragments, run_parallel
from .evaluation import Metrics, generate_synthetic, inject_errors, score

__version__ = "0.1.0"
