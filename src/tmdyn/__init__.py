"""tmdyn: Turing machines as dynamical systems.

Step semantics on sparse bi-infinite tapes, classification of eventual head
motion, regularity certificates with exact entropy lower bounds, exact
n-word counting, and compilation to generalized shifts with Cantor-set
coordinates.

The names below are exported lazily (PEP 562): a name's module is imported
on its first use, so ``import tmdyn`` loads none of them.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each exported name, by the module that defines it.
_EXPORTS = {
    "corpus": "builtin_machine corpus_names corpus_text",
    "gshift": "ASequence CantorPoint ConjugacyReport GeneralizedShift NotInImageError block_encode"
        " cantor_encode cantor_point_of_config compile_gshift embed gshift_step gshift_to_json_dict"
        " unembed verify_conjugacy",
    "machine": "BudgetExceededError Configuration MachineError MachineFormatError MachineValidationError"
        " RunResult State Symbol Transition TuringMachine distance format_config iterate make_config"
        " parse_machine run step",
    "regularity": "EntropyCertificate RegularWitness StrongWitness certificate_to_json_dict check_regularity"
        " check_strong_regularity entropy_lower_bound verify_witness",
    "shift_analysis": "HALT PERIODIC SHIFT ShiftEdge ShiftGraph ShiftOutcome classify_shift graph_to_dot"
        " shift_graph shift_table shift_table_rows",
    "words": "WordCountReport WordCountRow count_words count_words_oracle entropy_estimates report_to_csv"
        " report_to_json_dict",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
