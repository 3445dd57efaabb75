"""Four-group-decodable differential scaled-unitary space-time block codes.

Construct rate-1 linear designs for 2**lam transmit antennas, build fully
diverse scaled-unitary signal sets on them, verify every claimed algebraic
property, and simulate the differential encode/channel/decode chain with
either an exhaustive or a reduced-complexity four-group decoder.
"""

from ._kernels import BACKEND
from .codebook import (
    Codebook,
    Codeword,
    NotGroupDecodableError,
    average_scale,
    coding_gain,
    verify_full_diversity,
)
from .design import (
    Grouping,
    LinearDesign,
    abba,
    c1_design,
    canonical_grouping,
    construct_design,
    doubling,
    evaluate,
    render,
    render_text,
    scalar_design,
    verify_group_decodable,
)
from .diffcodec import (
    ChannelConfig,
    DecodeResult,
    EncoderState,
    channel_step,
    decode_exhaustive,
    decode_group,
    encoder_init,
    encoder_step,
    estimate_scale,
)
from .signalset import (
    PRESETS,
    GroupSignalSet,
    SignalSet,
    circle_hyperbola_set,
    construct_signal_set,
    default_radii,
    hyperbola_signal_set,
    preset_signal_set,
    verify_difference_conditions,
)
from .sim import SimConfig, SimResult, bit_mapping, run_sim

__version__ = "0.1.0"
