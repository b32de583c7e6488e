"""Binary network-coding toolkit: encoders, progressive decoding,
closed-form decoding probabilities, and an erasure-channel simulator."""

from .analysis import (
    InvariantViolation,
    TargetMetrics,
    ThresholdUnreachableWarning,
    binomial,
    cond_full_decode_prob,
    cond_full_decode_prob_exact,
    cond_full_decode_probs,
    decode_prob_ratio,
    full_decode_prob,
    full_decode_prob_exact,
    full_decode_probs,
    full_rank_prob,
    full_rank_prob_exact,
    log_binomial,
    min_packets_for_target,
    ou_partial_decode_prob,
    ou_partial_decode_probs,
    ou_partial_decode_sweep,
    partial_decode_prob_approx,
    poisson_binomial_tail,
    sf_full_decode_prob,
)
from .codec import (
    SCHEME_ENCODERS,
    SCHEMES,
    ProgressiveDecoder,
    SourceMessage,
    TransmittedPacket,
    encode_ordered_uncoded,
    encode_straightforward,
    encode_systematic,
    full_rank_decode,
)
from .gf2 import (
    MAX_LENGTH,
    BitMatrix,
    CodingVector,
    DimensionError,
    degree,
    leftmost_one,
    swap_rows,
    xor_rows,
)
from .simulator import (
    BenchResult,
    ChannelConfig,
    EmpiricalCurve,
    bench_decode,
    bench_decoders,
    derive_stream,
    make_test_message,
    run_trials,
    scheme_seed,
)

__version__ = "0.1.0"
