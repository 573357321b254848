"""Distributed nonconvex optimization with communication compression.

A desk-scale simulator for consensus optimization over undirected graphs
where agents exchange compressed scaled differences of their iterates.
Supports locally-bounded compressors (1-bit, saturating quantizer, top-k,
norm-sign) and globally-bounded ones (dithered k-bit, rand-k, scalarization,
uniform quantizer, their bounded-noise wrappers and compositions), plus the
constant machinery needed to pick theoretically valid hyperparameters and a
diagnostics layer that checks the contraction and Lyapunov inequalities on
recorded traces.
"""

from .algorithm import (
    AlgorithmState,
    ConstantSchedule,
    GeometricSchedule,
    HyperParams,
    RecursiveSchedule,
    init_state,
    run,
    step,
)
from .compressors import (
    AssumptionContract,
    Compose,
    Compressor,
    Identity,
    Noisy,
    NormSign,
    OneBit,
    RandK,
    SaturatingQuantizer,
    Scalarization,
    TopK,
    UnbiasedKBit,
    UniformQuantizer,
    compose_kbit_of_uniform,
    compose_uniform_of_kbit,
    lemma1_absolute_params,
    lemma1_relative_params,
    lemma2_compose_params,
    verify_global_assumption,
    verify_local_assumption,
)
from .constants import ParamSelection, compute_constants, theorem_params
from .diagnostics import (
    RunTrace,
    contraction_global_check,
    contraction_local_check,
    lyapunov_components,
    lyapunov_descent_check,
    lyapunov_sandwich_check,
    rate_fit,
    write_csv,
    write_summary,
)
from .graph import NetworkGraph, RingGraph, build_graph, from_adjacency
from .problems import ProblemInstance, make_nonconvex, make_quadratic

__version__ = "0.1.0"
