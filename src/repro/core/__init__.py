"""NetBooster core: Network Expansion, Progressive Linearization Tuning, contraction."""

from .alpha_schedules import (
    PLT_SCHEDULES,
    CosinePLTSchedule,
    StepPLTSchedule,
    make_plt_schedule,
)
from .analysis import EquivalenceReport, functional_equivalence
from .contraction import (
    add_identity_to_kernel,
    contract_block,
    contract_network,
    densify_grouped_kernel,
    fuse_conv_bn,
    merge_sequential_kernels,
)
from .expansion import (
    EXPANDED_BLOCK_TYPES,
    ExpandedBasicBlock,
    ExpandedBlock,
    ExpandedBottleneck,
    ExpandedInvertedResidual,
    ExpansionConfig,
    ExpansionRecord,
    expand_network,
    find_expandable_convs,
    select_expansion_sites,
)
from .netbooster import NetBooster, NetBoosterConfig, NetBoosterResult
from .plt import PLTSchedule, collect_decayable_activations

__all__ = [
    "ExpansionConfig",
    "ExpansionRecord",
    "ExpandedBlock",
    "ExpandedInvertedResidual",
    "ExpandedBasicBlock",
    "ExpandedBottleneck",
    "EXPANDED_BLOCK_TYPES",
    "expand_network",
    "find_expandable_convs",
    "select_expansion_sites",
    "PLTSchedule",
    "collect_decayable_activations",
    "fuse_conv_bn",
    "densify_grouped_kernel",
    "merge_sequential_kernels",
    "add_identity_to_kernel",
    "contract_block",
    "contract_network",
    "NetBooster",
    "NetBoosterConfig",
    "NetBoosterResult",
    "CosinePLTSchedule",
    "StepPLTSchedule",
    "PLT_SCHEDULES",
    "make_plt_schedule",
    "EquivalenceReport",
    "functional_equivalence",
]
