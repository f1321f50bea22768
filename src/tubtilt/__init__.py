"""Exact mutation engine for tilting bundles on tubular weighted projective lines.

The public names are loaded on first use (PEP 562): `import tubtilt`
imports no submodule, and `tubtilt.mutate` or `tubtilt.connect` imports
the module that defines it, once.
"""

from importlib import import_module

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in (
        (
            "connect",
            "FareyStep MutationPath SearchBudget completion_containing connect_pair "
            "connect_shared connect_to_canonical extend_abcd explore_graph "
            "find_companion integerize random_walk shorten_path verify_path",
        ),
        (
            "k0",
            "K0Class K0Context build_context chi chi_bar deg_of enumerate_roots_at "
            "line_bundle_class rank_of slope_of",
        ),
        ("slopes", "Slope"),
        (
            "tilting",
            "MutationEvent TiltingObject apr_mutate co_apr_mutate "
            "find_full_period_quasi_simple first_objects is_bundle is_tilting "
            "last_objects make_tilting mutate purge_torsion slope_range t_can",
        ),
        (
            "tubes",
            "ExcObject TubeChart Window build_chart chart_for exc_from_class ext_dim "
            "hom_dim line_bundle_obj tube_hom_oracle wing_contains",
        ),
        (
            "weights",
            "LElement WeightData delta l_add l_neg l_normalize make_weights omega",
        ),
    )
    for name in names.split()
}

_SUBMODULES = frozenset(
    "cli connect errors exprs intmat k0 records roots serialize slopes tilting "
    "tubes verify weights".split()
)

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        # importing a submodule binds it on the package, so this runs once
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
