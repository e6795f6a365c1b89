"""Catalytic teleportation and distillation with embezzling catalysts."""

__version__ = "0.1.0"

from .errors import (
    CapacityExceeded,
    ConfigError,
    DomainError,
    FixtureCorrupt,
    NotPSD,
    QEmbezzleError,
    SamplerStalled,
    ShapeError,
    SupportError,
)
from .qmat import (
    DensityMatrix,
    SupportTolerance,
    max_relative_entropy,
    partial_trace,
    psd_sqrt,
    purified_distance,
    tensor_product,
    uhlmann_fidelity,
)
from .qstates import (
    PureStateVector,
    SchmidtVector,
    SeededRng,
    max_entangled,
    max_entangled_density,
    maximally_mixed,
    random_density,
    random_flat_spectrum,
    random_full_rank,
    random_pure,
    read_density,
    schmidt_decompose,
    schmidt_reconstruct,
    write_density,
)
from .teleport import (
    TeleportOutcomeTable,
    average_fidelity_from_fraction,
    average_fidelity_mc,
    bell_basis,
    entanglement_fraction,
    message_fidelity,
    teleport_channel,
)
from .convex_split import (
    CatalystSearchQuery,
    CatalystSearchResult,
    ConvexSplitCatalyst,
    CopiesBudget,
    SearchCounters,
    Task,
    catalyst_mixture,
    consumption_bound,
    convex_split_joint,
    convex_split_marginal,
    convex_split_plan,
    descent_ratio,
    min_copies,
    min_copies_search,
    optimal_copies,
)
from .embezzle import (
    CatalystResidual,
    EmbezzleProtocolResult,
    EmbezzlingState,
    ProductPreimageState,
    RearrangementPermutation,
    catalyst_residual,
    embezzle_protocol,
    embezzling_state,
    extraction_fidelity_bound,
    product_preimage_state,
    rearrangement_permutation,
    schmidt_rank_for_fidelity,
)
from .correlated import (
    RegionLabel,
    RegionMap,
    correlated_fidelity_bound,
    pure_average_fidelity,
    qutrit_region_map,
    shannon_entropy,
)
from .distill import (
    DistillPlan,
    distill_schmidt_rank,
    embezzle_plan,
)
from .fixtures import all_fixtures, fixture_label, load_fixture, reference_initial_state
