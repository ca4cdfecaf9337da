"""Learning two-outcome quantum measurements via Pauli-basis Fourier estimation.

Subpackage map:

* :mod:`qfl.operators` - dense Hermitian/density matrix substrate.
* :mod:`qfl.pauli` - Pauli strings, degree sets, and the operator expansion.
* :mod:`qfl.compatibility` - commuting-clique covers and batch allocation.
* :mod:`qfl.simulator` - sample sources and the seeded measurement engine.
* :mod:`qfl.learner` - estimation, predictors, losses, and error bounds.
* :mod:`qfl.harness` - experiment configs, sweeps, and result files.
* :mod:`qfl.cli` - the ``qfl`` command line.
"""

from .operators import (
    Spectrum,
    Violation,
    hermitian_eig,
    maximally_mixed,
    partial_trace_label,
    rho_inner_product,
    rho_norm,
    sign_operator,
    tensor,
    validate_density,
    validate_povm,
)
from .pauli import (
    DegreeSet,
    FourierTable,
    PauliString,
    classical_embedding,
    degree_set_classical_upto,
    degree_set_upto,
    degree_set_within,
    fourier_coefficient,
    fourier_transform,
    full_degree_set,
    pauli_matrix,
    synthesize,
)
from .compatibility import (
    BatchPlan,
    Cover,
    allocate_batches,
    best_cover,
    cover_score,
    pauli_commute,
    singleton_cover,
)
from .simulator import (
    RandomStreams,
    SampleSource,
    draw_samples,
    estimation_observable,
    labeling_operator,
    load_source,
    make_classical_source,
    make_custom_source,
    make_noisy_source,
    make_realizable_source,
    measure_batch_groups,
    prepare_batches,
)
from .learner import (
    LearnReport,
    Predictor,
    build_predictor,
    chernoff_band,
    empirical_loss,
    exact_loss,
    fourier_estimation,
    junta_error_bound,
    junta_learn,
    opt_k,
    qld_error_bound,
    qld_learn,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
