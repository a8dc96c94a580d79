"""Pointwise algebra for the 2D compressible Euler equations.

States are arrays with a trailing component axis: conservative
``w = (rho, rho*u, rho*v, E)`` and primitive ``u = (rho, u, v, p)``.
Every function accepts plain numpy arrays or traced variables, so the same
code serves the fast solver path and the differentiated training path.
The normal flux, the wave speed and the entropy pair take primitive states,
the form the reconstruction delivers at the faces and the training loss
converts each state to once.

Admissibility (rho > 0 and p, or the internal energy, > 0) is one rule:
every check in the package applies ``not_positive``, the values-only mask
``~(x > 0)``, to rho and to p or ``internal_energy``, or asks
``any_not_positive``, whether that mask holds anywhere.  A NaN is outside the
admissible set, because NaN > 0 is False.

The solver step stores its fields component-first, (4, n) with the cell
axis contiguous, and passes them here as (n, 4) transposed views; the flux
passes both sides of every face at once, as the (F, 2, 4) transposed view
of its (4, 2, F) face states.  A function that returns a state lays it out
in memory like its input, as numpy's elementwise operations do: such a view
gives back the transposed view of a fresh component-first array, and a
C-ordered input a C-ordered output.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

RHO, MX, MY, EN = 0, 1, 2, 3
U, V, P = 1, 2, 3


class AdmissibilityError(ValueError):
    """State outside the admissible set (rho > 0, internal energy > 0), as
    ``not_positive`` reads it, so a NaN is outside the set too."""

    def __init__(self, component, detail=""):
        super().__init__(f"non-admissible state: {component} {detail}".strip())
        self.component = component


@dataclass(frozen=True)
class GasModel:
    """Polytropic ideal gas; gamma is the ratio of specific heats."""

    gamma: float = 1.4

    def __post_init__(self):
        if not self.gamma > 1.0:
            raise ValueError("gamma must exceed 1")

    @property
    def cv(self):
        # entropy scale in s = cv * log(p / rho^gamma); any positive constant
        # rescales (eta, q) jointly without changing the residual sign
        return 1.0 / (self.gamma - 1.0)


def _components(parts, like):
    """Stack ``parts`` on a trailing component axis, laid out like ``like``:
    where its component axis is the slowest in memory, as in a transposed
    view of a component-first array, the state is such a view too."""
    v = ad.value_of(like)
    if v.ndim > 1 and v.strides[-1] > v.strides[0]:
        if v.ndim > 2:
            parts = [ad.transpose(p) for p in parts]
        return ad.transpose(ad.stack(parts, axis=0))
    return ad.stack(parts, axis=-1)


def not_positive(x):
    """Values-only mask of the entries of x that are not > 0, NaN included."""
    return ~np.greater(ad.value_of(x), 0.0)


def any_not_positive(x):
    """Whether some entry of x is ``not_positive``: not all are > 0."""
    return not np.logical_and.reduce(np.greater(ad.value_of(x), 0.0), axis=None)


def internal_energy(w):
    """Internal energy per volume, E - |m|^2 / (2 rho), of states (..., 4)."""
    return w[..., EN] - 0.5 * (w[..., MX] ** 2 + w[..., MY] ** 2) / w[..., RHO]


def _check_prim(u):
    uv = ad.value_of(u)
    if any_not_positive(uv[..., RHO]):
        raise AdmissibilityError("rho", "not > 0")
    if any_not_positive(uv[..., P]):
        raise AdmissibilityError("p", "not > 0")


def _check_cons(w):
    wv = ad.value_of(w)
    if any_not_positive(wv[..., RHO]):
        raise AdmissibilityError("rho", "not > 0")
    if any_not_positive(internal_energy(wv)):
        raise AdmissibilityError("internal_energy", "not > 0")


def prim_to_cons(u, gas):
    """(rho, u, v, p) -> (rho, rho u, rho v, E) with E = p/(gamma-1) + rho|v|^2/2;
    raises an AdmissibilityError where rho or p is not > 0."""
    _check_prim(u)
    rho = u[..., RHO]
    vx = u[..., U]
    vy = u[..., V]
    p = u[..., P]
    E = p / (gas.gamma - 1.0) + 0.5 * rho * (vx * vx + vy * vy)
    return _components([rho, rho * vx, rho * vy, E], u)


def cons_to_prim(w, gas, check=True):
    """Inverse of prim_to_cons."""
    if check:
        _check_cons(w)
    rho = w[..., RHO]
    vx = w[..., MX] / rho
    vy = w[..., MY] / rho
    p = (gas.gamma - 1.0) * (w[..., EN] - 0.5 * rho * (vx * vx + vy * vy))
    return _components([rho, vx, vy, p], w)


def normal_velocity(u, n):
    """v.n of primitive states u (..., 4) in plain-array directions n (..., 2)."""
    return u[..., U] * n[..., 0] + u[..., V] * n[..., 1]


def physical_flux(u, w, n, vn):
    """Normal physical flux f . n = (v.n) w + p (0, n_x, n_y, v.n) of primitive
    states u (..., 4), given their conservative form w = ``prim_to_cons(u)``
    and their ``normal_velocity`` vn, for unit directions n (..., 2)."""
    n = ad.value_of(n)
    p = u[..., P]
    return _components([
        u[..., RHO] * vn,
        w[..., MX] * vn + p * n[..., 0],
        w[..., MY] * vn + p * n[..., 1],
        (w[..., EN] + p) * vn,
    ], u)


def max_wave_speed(u, vn, gas):
    """|v.n| + c with c = sqrt(gamma p / rho), the largest characteristic
    speed of primitive states u (..., 4) whose ``normal_velocity`` is vn."""
    return ad.absolute(vn) + ad.sqrt(gas.gamma * u[..., P] / u[..., RHO])


def entropy_pair(u, gas):
    """Entropy pair eta = -rho s, q = -rho s v with s = cv log(p / rho^gamma)
    of primitive states u (..., 4), unchecked: the training loss passes
    states its conversion has already checked."""
    rho = u[..., RHO]
    s = gas.cv * ad.log(u[..., P] / ad.power(rho, gas.gamma))
    eta = -(rho * s)
    return eta, eta * u[..., U], eta * u[..., V]
