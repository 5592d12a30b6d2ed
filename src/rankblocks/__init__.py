"""rankblocks: exact enumeration of integer partitions by successive-rank
parity blocks, the lattice-path and poset structures behind the counts, and a
verification suite comparing the enumeration side against closed-form
q-series, coefficient by coefficient.
"""

from .bijections import (
    FrobeniusArray,
    array_to_gamma,
    array_to_symbol,
    bijection_trace,
    gamma_to_array,
    gamma_to_pi,
    lambda_to_pi,
    pi_to_gamma,
    pi_to_lambda,
    sign_of_last_block,
    symbol_to_array,
)
from .lattice_paths import (
    MarkedBallotPath,
    enumerate_ballot_words,
    enumerate_exact_marks,
    enumerate_fixed_returns,
    enumerate_marked_paths,
    gf_vmr,
    maj_path,
    marked_path_gf,
    vmr,
)
from .partitions import (
    FrobeniusSymbol,
    ParityBlocks,
    Partition,
    alternating_sign_word,
    build_census,
    count_all_columns,
    count_by_blocks,
    count_by_columns,
    count_exact,
    count_prefix_pattern,
    enumerate_partitions,
    from_frobenius,
    iter_frobenius_symbols,
    parity_blocks,
    split_parity_runs,
    successive_ranks,
    to_frobenius,
)
from .posets import (
    Composition,
    LinearExtensionWord,
    PosetPartition,
    SBetaStructure,
    build_s_beta,
    compositions,
    enumerate_poset_partitions,
    iter_poset_partitions,
    linear_extensions,
    maj_word,
    word_to_dyck,
)
from .qseries import (
    MINUS,
    PLUS,
    SIGNS,
    QSeries,
    block_count_formula,
    euler_inverse,
    partition_number,
    partition_number_or_zero,
    pentagonal_kernel,
    pochhammer,
    qbinomial,
    series_by_blocks,
    series_by_columns,
    series_exact,
)
from .verify import VerificationReport, run_reports

__version__ = "0.1.0"
