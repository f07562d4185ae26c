"""bicmlab: a Monte-Carlo laboratory for bit-interleaved coded modulation
with syndrome-based neural decoding.

Submodules:
    gf2code  -- binary linear code algebra, alist I/O, built-in codes
    modem    -- constellations, AWGN, exact and max-log bit-LLRs
    bicm     -- interleaved transmit chain and binary-channel verification
    sbnd     -- sufficient statistics and the pluggable flip-estimator decoder
    neural   -- numpy GRU / transformer estimators with exact weight counts
    refdec   -- exhaustive MAP, ordered statistics decoding, ML bound
    harness  -- seeded parallel BER/FER runner, training loop, CLI back end
"""

__version__ = "0.1.0"

from . import bicm, gf2code, harness, modem, neural, refdec, sbnd  # noqa: F401
