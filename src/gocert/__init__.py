"""Exact combinatorics and replayable finiteness certificates for quaternionic Shimura data.

The pieces: the archimedean place cycle of a totally real field inert at p
(places), Goren-Oort stratum chains and the induced smaller data (strata),
degree bounds forced by partial Hasse invariants (hasse), rank-two Hodge
rigidity on (g, n) curves (rigidity), the isomonodromy degree ledger (ledger),
the certificate builder, verifier and self checks (certificate, selfcheck,
cli), and the independent reference computations they are checked against
(oracle).
"""

from ._version import __version__
from .certificate import (
    TOOL_VERSION,
    FinitenessCertificate,
    VerifyResult,
    build_certificate,
    certificate_to_doc,
    serialize_certificate,
    verify_document,
)
from .hasse import degree_bound
from .ledger import (
    ContradictionVerdict,
    contradiction_check,
    hom_degree,
    tangent_degree,
)
from .places import (
    RamificationData,
    make_ramification,
    shimura_dimension,
    split_places,
)
from .rigidity import (
    CurveType,
    RigidityVerdict,
    euler_bound,
    finiteness_verdict,
    is_special,
    square_root_count,
)
from .selfcheck import SelfcheckReport, SuiteResult, selfcheck
from .strata import (
    Stratum,
    decompose_chains,
    induced_ramification,
    strata_children,
)

__all__ = [
    "__version__",
    "TOOL_VERSION",
    "RamificationData",
    "make_ramification",
    "split_places",
    "shimura_dimension",
    "Stratum",
    "decompose_chains",
    "induced_ramification",
    "strata_children",
    "degree_bound",
    "CurveType",
    "RigidityVerdict",
    "euler_bound",
    "square_root_count",
    "is_special",
    "finiteness_verdict",
    "ContradictionVerdict",
    "hom_degree",
    "tangent_degree",
    "contradiction_check",
    "FinitenessCertificate",
    "VerifyResult",
    "build_certificate",
    "certificate_to_doc",
    "serialize_certificate",
    "verify_document",
    "SelfcheckReport",
    "SuiteResult",
    "selfcheck",
]
