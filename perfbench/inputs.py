"""Seeded inputs of the benchmark: state fields, trajectories and network
parameters.

Every field is built here from the run's seed, so a change to the package's
own initial-condition code (``train.evaluate_ic``) cannot change a
workload.  A field is a function of points, so a trajectory is the same
field sampled at shifted points.
"""

import time

import numpy as np

from fvgrad import mesh as msh
from fvgrad import mlcorr
from fvgrad.bench import FORWARD_STEP_STATE
from fvgrad.euler import GasModel, prim_to_cons

GAS = GasModel()

# Discontinuous families span the amplitude of the package's default dataset:
# rho and p range over 6 above floors of 0.5 and 0.2, velocities over 6
# centred on 0.
AMP = 6.0


def _quadrant(pts):
    x, y = np.mod(pts[:, 0], 1.0), np.mod(pts[:, 1], 1.0)
    return (x >= 0.5).astype(np.int64) + 2 * (y >= 0.5).astype(np.int64)


def _piecewise_states(rng, k):
    """k primitive states from the discontinuous-family ranges, shape (k, 4)."""
    return np.column_stack([
        0.5 + AMP * rng.uniform(0.0, 1.0, k),
        AMP * rng.uniform(-0.5, 0.5, k),
        AMP * rng.uniform(-0.5, 0.5, k),
        0.2 + AMP * rng.uniform(0.0, 1.0, k),
    ])


def smooth(rng):
    """Periodic sinusoidal state on the unit square, one or two waves per axis."""
    k = rng.integers(1, 3, size=(4, 2))
    phase = rng.uniform(0.0, 2.0 * np.pi, 4)
    base = np.array([rng.uniform(0.5, 3.5), rng.uniform(-1.5, 1.5),
                     rng.uniform(-1.5, 1.5), rng.uniform(0.5, 3.5)])
    amp = np.array([0.3 * base[0], 0.5, 0.5, 0.3 * base[3]])

    def field(pts):
        arg = 2.0 * np.pi * (pts @ k.T) + phase
        return base + amp * np.sin(arg)

    return field


def quadrant(rng):
    """Four constant states split at x = 0.5 and y = 0.5."""
    states = _piecewise_states(rng, 4)
    return lambda pts: states[_quadrant(pts)]


def disk_quadrant(rng):
    """Quadrant state plus a fifth state on the disk of radius 0.125 at the centre."""
    states = _piecewise_states(rng, 5)

    def field(pts):
        x, y = np.mod(pts[:, 0], 1.0), np.mod(pts[:, 1], 1.0)
        disk = np.hypot(x - 0.5, y - 0.5) <= 0.125
        return np.where(disk[:, None], states[4], states[1 + _quadrant(pts)])

    return field


def channel_smooth(rng):
    """Mach-3 inflow state with a smooth density, pressure and velocity ripple."""
    kx, ky = rng.integers(1, 4), rng.integers(1, 3)
    phase = rng.uniform(0.0, 2.0 * np.pi, 2)
    eps = rng.uniform(0.02, 0.1)

    def field(pts):
        s = np.sin(2.0 * np.pi * (kx * pts[:, 0] / 3.0 + ky * pts[:, 1]) + phase[0])
        c = np.cos(2.0 * np.pi * (kx * pts[:, 0] / 3.0 - ky * pts[:, 1]) + phase[1])
        u = np.tile(FORWARD_STEP_STATE, (len(pts), 1))
        u[:, 0] *= 1.0 + eps * s
        u[:, 1] += 0.1 * c
        u[:, 2] += 0.1 * s
        u[:, 3] *= 1.0 + eps * c
        return u

    return field


def channel_jump(rng):
    """Mach-3 inflow state with a planar jump to a second state."""
    x0 = np.array([rng.uniform(0.3, 2.7), rng.uniform(0.2, 0.8)])
    ang = rng.uniform(0.0, 2.0 * np.pi)
    normal = np.array([np.cos(ang), np.sin(ang)])
    other = FORWARD_STEP_STATE * np.array([rng.uniform(0.7, 1.4), rng.uniform(0.8, 1.1),
                                           1.0, rng.uniform(0.7, 1.4)])
    other[2] = rng.uniform(-0.3, 0.3)

    def field(pts):
        side = (pts - x0) @ normal > 0.0
        return np.where(side[:, None], other, FORWARD_STEP_STATE)

    return field


FAMILIES = {
    "smooth": smooth, "quadrant": quadrant, "disk_quadrant": disk_quadrant,
    "channel_smooth": channel_smooth, "channel_jump": channel_jump,
}

# distance a trajectory's field moves per frame: downstream in the channel,
# in a seeded direction on the unit square
FRAME_SHIFT = 0.004


def state_bank(mesh, families, rng):
    """One conservative state per family name, sampled at the cell centroids."""
    return [prim_to_cons(FAMILIES[f](rng)(mesh.centroid), GAS) for f in families]


def trajectory_frames(coarse, fine, pm, family, n_frames, rng, timer):
    """(n_frames, n_coarse, 4) frames: a fine field moving at constant speed,
    projected onto the coarse mesh.  ``timer`` collects each projection's
    seconds."""
    field = FAMILIES[family](rng)
    if family.startswith("channel"):
        step = np.array([FRAME_SHIFT, 0.0])
    else:
        ang = rng.uniform(0.0, 2.0 * np.pi)
        step = FRAME_SHIFT * np.array([np.cos(ang), np.sin(ang)])
    frames = np.empty((n_frames, coarse.n_cells, 4))
    for k in range(n_frames):
        w_fine = prim_to_cons(field(fine.centroid - k * step), GAS)
        t0 = time.perf_counter()
        frames[k] = msh.project_fine_to_coarse(w_fine, pm)
        timer.append(time.perf_counter() - t0)
    return frames


def network_params(rng, config=mlcorr.NetConfig()):
    """Seeded parameters in which every entry, the output head included, is
    non-zero, so the corrected modes do work that differs from the plain ones."""
    params = mlcorr.zero_params(config)
    vec = np.empty(params.count)
    for name, shape, off in params.table:
        size = int(np.prod(shape))
        scale = 0.05 if name.startswith("head") else 1.0 / np.sqrt(shape[-1])
        vec[off:off + size] = rng.normal(0.0, scale, size)
        if name == "norm_scale":
            vec[off:off + size] += 1.0
    return params.with_values(vec)
