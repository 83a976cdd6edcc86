"""Groupoid of GT-shadows over finite quotients of the braid group B3."""

from .errors import (
    BraidRelationError,
    BraidshadowError,
    CandidateCapExceeded,
    DegreeMismatchError,
    DomainTagMismatchError,
    GroupSizeCapExceeded,
    InternalInconsistencyError,
    KernelNotInPb3Error,
    NotCommutatorWordError,
    NotContainedError,
    SourceTargetMismatchError,
)
from .words import (
    B3NormalForm,
    FreeWord,
    artin_equal,
    b3_normal_form,
    bullet_monoid,
    e_endo,
    embed_f2_in_b3,
    f2_endo_apply,
    tau,
    theta,
    word_from_text,
    word_to_text,
)
from .perms import (
    GeneratedGroup,
    GenHom,
    Permutation,
    commutator_subgroup,
    generate_group,
    is_generating_set,
    kernel_contained,
)
from .subgroups import (
    NfiSubgroup,
    QuotientData,
    catalog_search,
    from_f2_quotient,
    new_nfi,
    nfi_contains,
    nfi_equal,
    nfi_intersect,
    pb3_subgroup,
    rho,
)
from .shadows import (
    GtShadow,
    check_hexagons,
    check_simplified_hexagons,
    compose_shadows,
    enumerate_shadows,
    identity_shadow,
    invert_shadow,
    is_shadow,
    shadow_source,
    t_hom,
)
from .groupoid import (
    ComponentReport,
    MainLineDiagram,
    Verdict,
    connected_component,
    diamond,
    genuine_to_depth,
    is_isolated,
    main_line_limit,
    reduce_shadow,
    survives,
)

__all__ = [name for name in dir() if not name.startswith("_")]
