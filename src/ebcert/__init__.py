"""ebcert: Choi-matrix analysis of finite-dimensional quantum channels.

Builds Choi matrices and complements from Kraus presentations, computes
multiplicative domains as concrete matrix *-algebras, and certifies
entanglement breaking with an explicit minimal rank-one Kraus decomposition
for channels whose Choi matrix is a projection.
"""

from .algebra import (
    AlgebraBlock,
    AlgebraStructure,
    MatrixAlgebra,
    center,
    multiplicative_domain,
    rank_one_resolution,
    structure,
)
from .certify import (
    EBCertificate,
    EBRankReport,
    NPTWitness,
    SchurNormalForm,
    certify,
    eb_rank,
    is_ppt,
    npt_witness,
    partial_transpose,
    schur_normal_form,
    verify_certificate,
    verify_eb_witness,
)
from .channel import (
    ChoiClass,
    ChoiReport,
    ChoiSpectrum,
    ComplementAdjointKind,
    ComplementAdjointReport,
    CPMap,
    KrausChannel,
    channel_from_json_dict,
    channel_to_json_dict,
    choi,
    choi_spectrum,
    classify_complement_adjoint,
    complement,
    complement_adjoint,
    complement_from_kraus,
    is_minimal,
    load_channel,
    minimal_kraus,
    redilate,
    save_channel,
)
from .errors import (
    CertificationRefusal,
    ConstructionFailure,
    ConvergenceFailure,
    DimensionMismatch,
    EBCertError,
    InconsistentClassification,
    InvalidCorrelation,
    NotEntanglementBreaking,
    NotHermitian,
    NotMinimalKraus,
    NotMultiplicityFree,
    NotOrthonormal,
    NotTracePreserving,
    NotUnitalOrNotTP,
    NotUnitVector,
    OutOfScope,
    RankFailure,
    ResampleExhausted,
    ResolutionFailure,
    StructureInconsistency,
    VerificationFailure,
)
from .numerics import (
    ToleranceConfig,
    hermitian_eig,
    nullspace,
    numerical_rank,
    random_hermitian_in_span,
    random_unitary,
    unvec,
    vec,
)
from .zoo import (
    CorrelationMatrix,
    depolarizing,
    external_twirl,
    gram_vectors,
    identity_channel,
    internal_twirl,
    permute_kraus,
    random_channel,
    random_correlation,
    random_projection_choi_channel,
    random_schur_complement_channel,
    redilate_fixture,
    schur_channel,
    schur_complement_channel,
    werner_holevo,
)

__version__ = "0.18.0"
