"""dimlab: a numerical laboratory for dyadic measures, projections, and
distance-set exponents."""

from .dyadic import DyadicMeasure, FrostmanFit, build_from_atoms, restrict_normalize
from .plf import PLFunction, from_slopes, linear
from .sigma import (
    CustomProfile,
    HighDimProfile,
    IntervalDecomposition,
    KaufmanProfile,
    PlanarProfile,
    Profile,
    SigmaTauResult,
    TrivialHalfProfile,
    best_slope,
    c_d_table,
    is_superlinear,
    phi,
    sigma_for_f,
    sigma_tau,
    verify_planar_bound,
)
from .uniformize import (
    UniformPiece,
    branching_profile,
    decompose_uniform,
    extract_uniform,
    lift_to_class,
)
from .geometry import (
    DirectionMeasure,
    LineMeasure,
    ThinTubeProfile,
    adapted_audit,
    entropy_projection_bound,
    hyperplane_concentration,
    pinned_distance,
    project_linear,
    project_radial,
    thin_tubes_profile,
    tube_mass_max,
)
from .chain import (
    ScaleSchedule,
    chain_sides,
    chain_sides_robust,
    fit_chain_constant,
    linearization_direction,
    schedule_from_decomposition,
)
from .generators import (
    gen_cantor_product,
    gen_circle_pair,
    gen_lattice_falconer,
    gen_product_set,
    gen_train_track,
)
from .experiment import (
    ExperimentResult,
    SceneConfig,
    emit_report,
    run_experiment,
    split_separated,
)

__version__ = "0.1.0"
