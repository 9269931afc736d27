"""Fourier-side fields on the circle of circumference 2*pi.

A field is stored by its Fourier coefficients f_n, |n| <= n_grid, for the
expansion f(x) = sum_n f_n e^{inx}.  Two norm conventions coexist and are
used deliberately:

* ``sobolev_norm`` uses the plain weighted-l2 form
  (sum <n>^{2s} |f_n|^2)^{1/2} with <n> = (1+n^2)^{1/2}, i.e. without the
  2*pi area factor.  This is the convention the Gaussian-measure machinery
  is built on.
* integral functionals (``mass``, ``hamiltonian``) carry the explicit 2*pi
  from integrating over the circle, e.g. mass = 2*pi * sum |f_n|^2.

The mean-value functional avg|f|^2 = (1/2pi) * integral |f|^2 equals
sum |f_n|^2 with no 2*pi; the gauge transformations in ``dynamics`` rely
on this.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpectralField",
    "ConservedReport",
    "bracket",
    "sobolev_norm",
    "project_low",
    "project_high",
    "mass",
    "hamiltonian",
    "quartic_integral",
    "conserved_report",
    "field_to_json",
    "field_from_json",
    "field_to_csv",
    "field_from_csv",
]

@dataclass(frozen=True)
class SpectralField:
    """Complex Fourier coefficients on frequencies |n| <= n_grid.

    ``coeffs[i]`` holds the coefficient of e^{inx} with n = i - n_grid.
    Instances are immutable; all operations return new fields.
    """

    coeffs: np.ndarray
    n_grid: int

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=np.complex128)
        if self.n_grid < 0:
            raise ValueError(f"n_grid must be >= 0, got {self.n_grid}")
        if arr.shape != (2 * self.n_grid + 1,):
            raise ValueError(
                f"expected {2 * self.n_grid + 1} coefficients for n_grid={self.n_grid}, "
                f"got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise ValueError("field coefficients must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(n_grid: int) -> "SpectralField":
        return SpectralField(np.zeros(2 * n_grid + 1, dtype=np.complex128), n_grid)

    @staticmethod
    def from_modes(modes: dict, n_grid: int | None = None) -> "SpectralField":
        """Build a field from a sparse {frequency: amplitude} map."""
        if n_grid is None:
            n_grid = max((abs(int(n)) for n in modes), default=0)
        out = np.zeros(2 * n_grid + 1, dtype=np.complex128)
        for n, a in modes.items():
            n = int(n)
            if abs(n) > n_grid:
                raise ValueError(f"mode {n} outside grid |n| <= {n_grid}")
            out[n + n_grid] = a
        return SpectralField(out, n_grid)

    # -- access ------------------------------------------------------------

    def frequencies(self) -> np.ndarray:
        return np.arange(-self.n_grid, self.n_grid + 1)

    def get(self, n: int) -> complex:
        if abs(n) > self.n_grid:
            return 0.0 + 0.0j
        return complex(self.coeffs[n + self.n_grid])

    def with_coeffs(self, coeffs: np.ndarray) -> "SpectralField":
        return SpectralField(coeffs, self.n_grid)

    def on_grid(self, n_grid: int) -> "SpectralField":
        """Re-embed on a different grid; shrinking requires zero tails."""
        if n_grid == self.n_grid:
            return self
        out = np.zeros(2 * n_grid + 1, dtype=np.complex128)
        m = min(n_grid, self.n_grid)
        out[n_grid - m : n_grid + m + 1] = self.coeffs[self.n_grid - m : self.n_grid + m + 1]
        if n_grid < self.n_grid:
            tail = np.abs(self.coeffs).copy()
            tail[self.n_grid - n_grid : self.n_grid + n_grid + 1] = 0.0
            if np.any(tail != 0.0):
                raise ValueError("cannot shrink grid: nonzero coefficients beyond new n_grid")
        return SpectralField(out, n_grid)

    # -- arithmetic (convenience for tests and diagnostics) -----------------

    def __add__(self, other: "SpectralField") -> "SpectralField":
        a, b = _common_grid(self, other)
        return SpectralField(a.coeffs + b.coeffs, a.n_grid)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        a, b = _common_grid(self, other)
        return SpectralField(a.coeffs - b.coeffs, a.n_grid)

    def __mul__(self, scalar) -> "SpectralField":
        return SpectralField(self.coeffs * scalar, self.n_grid)

    __rmul__ = __mul__


def _common_grid(a: SpectralField, b: SpectralField):
    m = max(a.n_grid, b.n_grid)
    return a.on_grid(m), b.on_grid(m)


@dataclass(frozen=True)
class ConservedReport:
    mass: float
    hamiltonian: float
    timestamp: float

    def __post_init__(self):
        if self.mass < 0:
            raise ValueError("mass must be nonnegative")


def bracket(n, s: float):
    """Japanese bracket weight <n>^s = (1+n^2)^{s/2}."""
    return (1.0 + np.asarray(n, dtype=np.float64) ** 2) ** (0.5 * s)


def sobolev_norm(f: SpectralField, s: float) -> float:
    """H^s norm (sum <n>^{2s} |f_n|^2)^{1/2}, no 2*pi factor."""
    w = bracket(f.frequencies(), s)
    return float(np.sqrt(np.sum((w * np.abs(f.coeffs)) ** 2)))


def project_low(f: SpectralField, n_max: int) -> SpectralField:
    """Zero out all coefficients with |n| > n_max (Dirichlet projection)."""
    if n_max < 0:
        raise ValueError("projection cutoff must be >= 0")
    out = f.coeffs.copy()
    mask = np.abs(f.frequencies()) > n_max
    out[mask] = 0.0
    return SpectralField(out, f.n_grid)


def project_high(f: SpectralField, n_max: int) -> SpectralField:
    """Complement of project_low: keep only |n| > n_max."""
    if n_max < 0:
        raise ValueError("projection cutoff must be >= 0")
    out = f.coeffs.copy()
    mask = np.abs(f.frequencies()) <= n_max
    out[mask] = 0.0
    return SpectralField(out, f.n_grid)


def mass(f: SpectralField) -> float:
    """Integral of |f|^2 over the circle: 2*pi * sum |f_n|^2."""
    return float(2.0 * np.pi * np.sum(np.abs(f.coeffs) ** 2))


def quartic_integral(f: SpectralField) -> float:
    """Integral of |f|^4 over the circle, evaluated spectrally.

    The pair convolution w_m = sum_{a-b=m} f_a conj(f_b) is summed exactly;
    then int |f|^4 = 2*pi sum |w_m|^2 (Parseval).
    """
    c = f.coeffs
    w = np.convolve(c, np.conj(c)[::-1])
    return float(2.0 * np.pi * np.sum(np.abs(w) ** 2))


def hamiltonian(f: SpectralField, sign: int = +1) -> float:
    """Hamiltonian (1/2) int |f''|^2 +/- (1/4) int |f|^4.

    sign=+1 is the defocusing form.  Conserved along the physical flow.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    ns = f.frequencies().astype(np.float64)
    kinetic = 0.5 * 2.0 * np.pi * float(np.sum(ns**4 * np.abs(f.coeffs) ** 2))
    return kinetic + sign * 0.25 * quartic_integral(f)


def conserved_report(f: SpectralField, sign: int = +1, timestamp: float = 0.0) -> ConservedReport:
    return ConservedReport(mass=mass(f), hamiltonian=hamiltonian(f, sign), timestamp=timestamp)


# -- serialization ----------------------------------------------------------


def field_to_json(f: SpectralField) -> str:
    payload = {
        "n_grid": f.n_grid,
        "re": [float(x) for x in f.coeffs.real],
        "im": [float(x) for x in f.coeffs.imag],
    }
    return json.dumps(payload, sort_keys=True)


def field_from_json(text: str) -> SpectralField:
    payload = json.loads(text)
    arr = np.asarray(payload["re"], dtype=np.float64) + 1j * np.asarray(payload["im"], dtype=np.float64)
    return SpectralField(arr, int(payload["n_grid"]))


def field_to_csv(f: SpectralField) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n", "re", "im"])
    for n, c in zip(f.frequencies(), f.coeffs):
        writer.writerow([int(n), repr(float(c.real)), repr(float(c.imag))])
    return buf.getvalue()


def field_from_csv(text: str) -> SpectralField:
    rows = list(csv.reader(io.StringIO(text)))
    body = rows[1:] if rows and rows[0] and rows[0][0] == "n" else rows
    ns = [int(r[0]) for r in body if r]
    n_grid = max(abs(n) for n in ns)
    arr = np.zeros(2 * n_grid + 1, dtype=np.complex128)
    for r in body:
        if not r:
            continue
        arr[int(r[0]) + n_grid] = float(r[1]) + 1j * float(r[2])
    return SpectralField(arr, n_grid)
