"""Population protocols as threshold games.

Derive protocols from symmetric games with a win-stay/lose-shift threshold
rule, decide whether a protocol arises that way by synthesizing an integer
payoff-matrix witness, simulate protocols under uniform random scheduling,
and verify stable computation exactly on bounded populations.

`import popgames` loads no submodule.  Each public name below, and each
submodule (``popgames.sim``), is imported on first access and then bound
here, so a program pays only for the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# the public names, by the module that defines them; `cli` binds its
# commands' names from this table too
_EXPORTS = {
    "_kernels": "NUMBA_ENABLED backend",
    "core": "Config Protocol ProtocolError BudgetExceeded complete config_of config_to_dict "
    "initial_config is_deterministic is_symmetric make_protocol output_of_config "
    "successors symmetry_violation",
    "formats": "FormatError parse_game parse_protocol print_game print_protocol",
    "games": "ALL_TIES LOWEST_INDEX Game derive_protocol make_game prisoners_dilemma",
    "library": "LEADERS builtin builtin_keys symmetrize",
    "pavcheck": "EXACT SUBSET ConstraintSystem NotPavlovian UnsatCertificate Witness "
    "build_constraints check_pavlovian default_mode format_certificate format_var "
    "solve_order_constraints witness_reproduces",
    "sim": "DEFAULT_MAX_STEPS InteractionGraph RunResult StatsReport monte_carlo run",
    "verify": "DEFAULT_BUDGET ConfigGraph Counterexample PredicateError Verdict bottom_sccs "
    "candidate_count eval_predicate iter_search_pavlovian parse_predicate predicate_symbols "
    "reachable stable_leader stably_computes",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module("." + name, __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _MODULE_OF.keys() | _SUBMODULES)
