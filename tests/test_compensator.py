"""Events against their compensator: a check of exact thinning that shares
no code with the thinning loop beyond the jump skeleton it records.

For the self-interacting telegraph process the event count minus its
compensator,

    N_T - Lambda_T,    Lambda_T = int_0^T (lambda_min + (y V'(x_s))_+) ds,

is a martingale with mean 0 and variance E[Lambda_T] (Davis, JRSS-B 1984),
whatever envelope the loop proposes under. The test takes each run's jump
times, positions and velocities from engine._drive, replays the position
and the occupation moments along every leg in closed form, integrates the
rate by 16-point Gauss-Legendre on pieces no longer than PIECE, and gates
z = sum(N - Lambda) / sqrt(sum Lambda) over RUNS runs at |z| <= Z_BOUND.
An envelope that misses the rate between proposals, a wrong acceptance
test or a wrong moment update biases N_T against Lambda_T and moves z.
"""

import math

import numpy as np
import pytest

from sivjp import SIVJPConfig, SeedSpec, TelegraphState
from sivjp.engine import _drive, envelope_slope
from sivjp.model import ModelSpec
from sivjp.potentials import cos2_potential

# fixed before the first run: U = -cos 2z at rho = 4, lambda_min = 0.5,
# T = 50 from (1.0, +1); streams 0..RUNS-1 of master seed MASTER for each
# envelope. Under the null, z is standard normal to within the central
# limit theorem, so |z| > 4 has probability 6.3e-5 for each envelope and
# 1.3e-4 for the test.
RHO, LAM_MIN, T_END = 4.0, 0.5, 50.0
X0, Y0, R = 1.0, 1, 1.0  # R: the occupation measure's initial weight
MASTER, RUNS = 20261022, 300
Z_BOUND = 4.0
PIECE = 0.05
GL_X, GL_W = np.polynomial.legendre.leggauss(16)


def skeleton(model: ModelSpec, stream: int, override: float | None):
    """The run's jumps as (t, x, y) rows, y the velocity after the jump,
    and its moments (a, b) at T_END."""
    cfg = SIVJPConfig(model=model, t_end=T_END, seed=SeedSpec(MASTER, stream),
                      r=R, z0=TelegraphState(X0, Y0), record_stride=T_END,
                      lambda_bar_override=override)
    jumps: list[float] = []
    rec = _drive(cfg, model.thinning_bound, jumps=jumps)[0]
    return np.array(jumps, dtype=float).reshape(-1, 3), (rec[1][-1], rec[2][-1])


def compensator(jumps: np.ndarray):
    """Lambda_T and the moments at T_END, replayed along the skeleton.

    On a leg that leaves x0 at time t0 with velocity y and moments
    (a0, b0), x(s) = x0 + y s and, with w0 = R + t0,
    a(s) = (w0 a0 + y (sin x(s) - sin x0)) / (w0 + s) and
    b(s) = (w0 b0 - y (cos x(s) - cos x0)) / (w0 + s).
    """
    starts = np.vstack([[0.0, X0, Y0], jumps])
    ends = np.append(jumps[:, 0], T_END)
    a0 = np.empty(len(starts))
    b0 = np.empty(len(starts))
    a, b = 0.0, 0.0
    for i, ((t0, x0, y), t1) in enumerate(zip(starts, ends)):
        a0[i], b0[i] = a, b
        w0, s = R + t0, t1 - t0
        a = (w0 * a + y * (math.sin(x0 + y * s) - math.sin(x0))) / (w0 + s)
        b = (w0 * b - y * (math.cos(x0 + y * s) - math.cos(x0))) / (w0 + s)
    # every leg cut into pieces no longer than PIECE, each with GL nodes
    lengths = ends - starts[:, 0]
    n_pieces = np.maximum(np.ceil(lengths / PIECE).astype(int), 1)
    leg = np.repeat(np.arange(len(starts)), n_pieces)
    h = (lengths / n_pieces)[leg]
    first = np.cumsum(n_pieces) - n_pieces
    lo = (np.arange(leg.size) - first[leg]) * h
    s = lo[:, None] + 0.5 * h[:, None] * (1.0 + GL_X)
    t0, x0, y = (starts[leg, j][:, None] for j in range(3))
    w0 = R + t0
    x = x0 + y * s
    a_s = (w0 * a0[leg][:, None] + y * (np.sin(x) - np.sin(x0))) / (w0 + s)
    b_s = (w0 * b0[leg][:, None] - y * (np.cos(x) - np.cos(x0))) / (w0 + s)
    v = 2.0 * np.sin(2.0 * x) + RHO * (a_s * np.sin(x) - b_s * np.cos(x))
    rate = LAM_MIN + np.maximum(y * v, 0.0)
    return float(np.sum(0.5 * h[:, None] * GL_W * rate)), (a, b)


@pytest.mark.parametrize("envelope", ["local", "constant"])
def test_events_match_their_compensator(envelope):
    model = ModelSpec(potential=cos2_potential(), rho=RHO, lambda_min=LAM_MIN)
    override = None
    if envelope == "constant":
        override = model.thinning_bound
    else:  # the run proposes under the local envelope
        slope = model.potential.ddv_sup + RHO
        assert envelope_slope(LAM_MIN, model.thinning_bound, slope) < math.inf
    excess = total = 0.0
    for stream in range(RUNS):
        jumps, final = skeleton(model, stream, override)
        lam, replayed = compensator(jumps)
        # the loop's own moments at T agree with the replay
        assert np.allclose(final, replayed, rtol=0.0, atol=1e-9)
        excess += len(jumps) - lam
        total += lam
    z = excess / math.sqrt(total)
    assert abs(z) <= Z_BOUND, f"{envelope} envelope: z = {z:+.2f} over {RUNS} runs"
