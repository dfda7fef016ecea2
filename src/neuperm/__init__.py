"""Model sanitization by function-preserving permutation.

The package rewrites neural-network weight files with random channel/head
permutations that leave the computed function intact while displacing every
parameter an embedded payload relies on, plus the attack lab and analysis
tooling needed to measure that claim.
"""

from .archive import (
    ModelArchive,
    archive_digest,
    load_archive,
    parse_archive,
    save_archive,
    write_archive,
)
from .descriptor import (
    ArchDescriptor,
    GqaMeta,
    PermutableSite,
    load_descriptor,
    parse_descriptor,
    validate_descriptor,
)
from .disrupt import DisruptorConfig, apply_disruptor, parse_disruptor
from .engine import (
    CoverageReport,
    PermutationSchedule,
    apply_schedule,
    count_changed_fraction,
    make_schedule,
)
from .errors import (
    BoundInapplicableError,
    CapacityError,
    DescriptorError,
    IneffectiveRegimeError,
    ParseError,
    VerificationError,
)
from .rng import SeededRng, derive_seed, mix64
from .tensor import Tensor, fisher_yates, invert, is_permutation, permute_axis_blocks, tensor

__version__ = "0.1.0"

__all__ = [
    "ModelArchive", "archive_digest", "load_archive", "parse_archive",
    "save_archive", "write_archive",
    "ArchDescriptor", "GqaMeta", "PermutableSite", "load_descriptor",
    "parse_descriptor", "validate_descriptor",
    "DisruptorConfig", "apply_disruptor", "parse_disruptor",
    "CoverageReport", "PermutationSchedule", "apply_schedule",
    "count_changed_fraction", "make_schedule",
    "BoundInapplicableError", "CapacityError", "DescriptorError",
    "IneffectiveRegimeError", "ParseError", "VerificationError",
    "SeededRng", "derive_seed", "mix64",
    "Tensor", "fisher_yates", "invert", "is_permutation", "permute_axis_blocks",
    "tensor",
    "__version__",
]
