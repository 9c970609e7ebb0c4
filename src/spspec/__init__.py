"""spspec: sparse coefficient-space evaluation of products of functions
expanded in Fourier or Hermite bases, with dense oracles, exact set
counting, and convergence-rate predictions."""

from .bounds import KernelBoundReport, a_theta, check_kernel_bound, mu
from .coeffs import (
    FourierSymbol,
    HermiteCache,
    build_cache,
    hermite_product_integral,
    load_cache,
    save_cache,
)
from .evaluators import (
    EvalRequest,
    EvalResult,
    RatePrediction,
    dense_oracle_fourier,
    dense_oracle_hermite,
    direct_sparse_eval,
    error_report,
    iterative_eval,
    predicted_rate,
    predicted_rate_iterative,
)
from .indices import (
    Index,
    Lattice,
    LatticeKind,
    SizeFunction,
    SparseSetSpec,
    count_sparse,
    enumerate_sparse,
    indices_up_to,
    integers,
    max_norm,
    naturals,
    prod_norm,
)
from .quadrature import QuadratureRule, gauss_hermite_rule, hermite_batch
from .spectral import (
    Basis,
    BasisKind,
    SpectralVector,
    dump_vector,
    l1s_norm,
    l2s_norm,
    parse_vector,
    power_law_vector,
    read_vector,
    write_vector,
)

__version__ = "0.1.0"
