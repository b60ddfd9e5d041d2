"""gptforge: transitive convex state spaces from group data.

A library for building and analysing general-probabilistic-theory systems
whose pure states form a group orbit: Gelfand-pair decisions for finite and
compact groups, orbit state-space samples, linear-programming state
discrimination and encoding games, distances between probabilistic
structures, deformation paths, and spherical-representation enumeration for
unitary Grassmannians.
"""

from .classification import (
    irrep_dimension,
    partition_to_dynkin,
    quartic_reference,
    reality_type,
    spherical_partitions,
    spherical_reality_audit,
    two_point_catalog,
)
from .compact_rep import (
    CompactRepSpec,
    MonteCarlo,
    TorusGrid,
    block_subgroup,
    full_torus,
    haar_samples,
    invariant_projector,
    is_gelfand_witness,
    so_fundamental,
    so_traceless_symmetric,
    su_adjoint,
    su_fundamental,
)
from .deformation import (
    deform,
    deformation_sweep,
    make_deformation_path,
    pure_state_distance,
    rigidity_bound,
    schur_average_check,
    structure_distance_lower_bound,
    symmetrized_distance_estimate,
)
from .discrimination import (
    AlphaTriple,
    encoding_game_value,
    hexagon_vertices,
    max_distinguishable,
    max_distinguishable_sampled,
)
from .errors import (
    AccuracyError,
    DomainError,
    LpSolverFailure,
    NumericalConsistencyError,
    ResourceError,
)
from .finite_rep import (
    character_table,
    count_probabilistic_structures,
    cyclic_group,
    dihedral_group,
    frobenius_schur,
    generate_group,
    is_gelfand_pair,
    quaternion_group,
    subgroup_from_generators,
    symmetric_group,
    trivial_restriction_multiplicity,
)
from .numerics import LinearProgram, lp_solve, symmetric_eigen
from .state_space import (
    Effect,
    StructureSample,
    bloch_structure,
    build_structure,
    deformable_structure,
    effect_valid,
    paired_structures,
    quartic_structure,
    sphere_check,
    spin2_structure,
    unit_effect,
    witness_effect,
)

__version__ = "0.1.0"
