"""Size caps of the enumerations and the Monte Carlo sampler.

The caps sit in a module that imports nothing, so that the command-line
parser can state them, and reject a size out of range, without loading
any module that computes.  Each cap is defined here only; the modules it
bounds import it from here.
"""

# Largest m + n the annular enumeration accepts: its sweep visits every
# set partition of the m + n points.
ANNULAR_CAP = 12
# Largest circle the disc and half-permutation enumerations accept.
DISC_CAP = 12

# the largest degree the Monte Carlo samples; the covariance limits of all
# pairs up to degree d cost O(d^3) polynomial operations: `mc diagonalize
# --max-degree 30 --N 4 --samples 4` takes about 0.6 s end to end on a
# 2-core Xeon VM
MAX_DEGREE = 30
# the matrices the Monte Carlo samples: `mc diagonalize` reports the
# covariance of every pair of its p*d traces, whatever N and the samples;
# `--p 8 --max-degree 30 --N 4 --samples 4` takes 2.6 s and 101 MB peak
# RSS for 7.8 MB of JSON (p = 10: 3.2 s, 135 MB; 16: 8.8 s, 283 MB) on a
# 2-core Xeon VM
MAX_MATRICES = 8
# the Monte Carlo's memory: a batch of draws, p M-by-N complex matrices
# per sample, bounds what the sampler holds, which is two batches of one
# matrix's real and imaginary parts (one being drawn, one multiplied)
# plus, for the cross traces, a batch of the draws or the Gram of at most
# two matrices: at most 4 floats, 32 bytes, per entry of the batch
# (`mc diagonalize --p 1 --N 600 --samples 64`, 11.5M entries a batch:
# 401 MB peak RSS on a 2-core Xeon VM, whatever the degree); the traces
# stored for the whole run take about 16 bytes each once the statistics
# are read (`--p 2 --max-degree 6 --N 2 --samples 1000000`, 13M traces:
# 250 MB); at the caps the two take about 0.55 and 0.5 GB
MAX_BATCH_ENTRIES = 2**24
MAX_STORED_TRACES = 2**25


def check_sampler_sizes(num_matrices: int, num_samples: int, max_degree: int) -> None:
    """Raise ValueError naming the first of the sampler's matrix count,
    sample count and degree that is out of its range."""
    if not 1 <= num_matrices <= MAX_MATRICES:
        raise ValueError(f"num_matrices {num_matrices} is out of range (cap {MAX_MATRICES})")
    if num_samples < 2:
        raise ValueError("need at least two samples")
    if not 1 <= max_degree <= MAX_DEGREE:
        raise ValueError(f"max_degree {max_degree} is out of range (cap {MAX_DEGREE})")
