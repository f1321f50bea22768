"""Exact mutation engine for tilting bundles on tubular weighted projective lines."""

from .connect import (
    FareyStep,
    MutationPath,
    SearchBudget,
    completion_containing,
    connect_pair,
    connect_shared,
    connect_to_canonical,
    extend_abcd,
    explore_graph,
    find_companion,
    integerize,
    random_walk,
    shorten_path,
    verify_path,
)
from .k0 import (
    K0Class,
    K0Context,
    build_context,
    chi,
    chi_bar,
    deg_of,
    enumerate_roots_at,
    line_bundle_class,
    rank_of,
    slope_of,
)
from .slopes import Slope
from .tilting import (
    MutationEvent,
    TiltingObject,
    apr_mutate,
    co_apr_mutate,
    find_full_period_quasi_simple,
    first_objects,
    is_bundle,
    is_tilting,
    last_objects,
    make_tilting,
    mutate,
    purge_torsion,
    slope_range,
    t_can,
)
from .tubes import (
    ExcObject,
    TubeChart,
    Window,
    build_chart,
    chart_for,
    exc_from_class,
    ext_dim,
    hom_dim,
    line_bundle_obj,
    tube_hom_oracle,
    wing_contains,
)
from .weights import (
    LElement,
    WeightData,
    delta,
    l_add,
    l_neg,
    l_normalize,
    make_weights,
    omega,
)

__version__ = "0.1.0"
