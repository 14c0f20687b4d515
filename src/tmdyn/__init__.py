"""tmdyn: Turing machines as dynamical systems.

Step semantics on sparse bi-infinite tapes, classification of eventual head
motion, regularity certificates with exact entropy lower bounds, exact
n-word counting, and compilation to generalized shifts with Cantor-set
coordinates.
"""

__version__ = "0.1.0"

from .corpus import builtin_machine, corpus_names, corpus_text, random_machine
from .gshift import (
    ASequence,
    CantorPoint,
    ConjugacyReport,
    GeneralizedShift,
    NotInImageError,
    block_encode,
    cantor_encode,
    cantor_point_of_config,
    compile_gshift,
    embed,
    gshift_step,
    gshift_to_json_dict,
    unembed,
    verify_conjugacy,
)
from .machine import (
    BudgetExceededError,
    Configuration,
    MachineError,
    MachineFormatError,
    MachineValidationError,
    RunResult,
    State,
    Symbol,
    Transition,
    TuringMachine,
    distance,
    format_config,
    iterate,
    make_config,
    parse_machine,
    run,
    step,
)
from .regularity import (
    EntropyCertificate,
    RegularWitness,
    StrongWitness,
    certificate_to_json_dict,
    check_regularity,
    check_strong_regularity,
    entropy_lower_bound,
    verify_witness,
)
from .shift_analysis import (
    HALT,
    PERIODIC,
    SHIFT,
    ShiftEdge,
    ShiftGraph,
    ShiftOutcome,
    classify_shift,
    graph_to_dot,
    shift_graph,
    shift_table,
    shift_table_rows,
)
from .words import (
    WordCountReport,
    WordCountRow,
    count_words,
    count_words_oracle,
    entropy_estimates,
    report_to_csv,
    report_to_json_dict,
)
