import json

import numpy as np
import pytest

from bnls.fields import (
    SpectralField,
    field_from_csv,
    field_from_json,
    field_to_csv,
    field_to_json,
    hamiltonian,
    mass,
    project_high,
    project_low,
    quartic_integral,
    sobolev_norm,
)

TWO_PI = 2.0 * np.pi


def random_field(n_grid, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    dim = 2 * n_grid + 1
    return SpectralField(scale * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)), n_grid)


def test_sobolev_norm_examples():
    assert sobolev_norm(SpectralField.from_modes({0: 1.0}), 2.0) == pytest.approx(1.0)
    # <3> = (1+9)^{1/2}
    assert sobolev_norm(SpectralField.from_modes({3: 1.0}), 1.0) == pytest.approx(np.sqrt(10.0))


def test_sobolev_zero_is_l2():
    f = random_field(6, seed=1)
    assert sobolev_norm(f, 0.0) == pytest.approx(float(np.linalg.norm(f.coeffs)))


def test_projection_examples():
    f = SpectralField.from_modes({-1: 1j, 0: 2.0, 1: 1.0})
    low = project_low(f, 0)
    assert low.get(0) == 2.0 and low.get(1) == 0.0 and low.get(-1) == 0.0
    # full projection leaves the field unchanged
    assert np.array_equal(project_low(f, 5).coeffs, f.on_grid(1).coeffs)


def test_projection_partition():
    f = random_field(8, seed=2)
    for cut in (0, 3, 8):
        total = project_low(f, cut) + project_high(f, cut)
        assert np.allclose(total.coeffs, f.coeffs, rtol=0, atol=0)


def test_projection_contracts_everything():
    f = random_field(8, seed=3)
    for s in (-0.5, 0.0, 1.3):
        assert sobolev_norm(project_low(f, 4), s) <= sobolev_norm(f, s)
    assert mass(project_low(f, 4)) <= mass(f)


def test_mass_examples():
    assert mass(SpectralField.from_modes({0: 1.0})) == pytest.approx(TWO_PI)
    a = 0.3 - 1.1j
    assert mass(SpectralField.from_modes({5: a})) == pytest.approx(TWO_PI * abs(a) ** 2)


def test_mass_vs_sobolev_convention():
    f = random_field(10, seed=4)
    assert mass(f) == pytest.approx(TWO_PI * sobolev_norm(f, 0.0) ** 2, rel=1e-12)


def test_hamiltonian_single_modes():
    # constant function: no kinetic part, quartic integral 2*pi
    assert hamiltonian(SpectralField.from_modes({0: 1.0}), +1) == pytest.approx(np.pi / 2.0)
    assert hamiltonian(SpectralField.from_modes({1: 1.0}), +1) == pytest.approx(np.pi + np.pi / 2.0)
    assert hamiltonian(SpectralField.from_modes({1: 1.0}), -1) == pytest.approx(np.pi - np.pi / 2.0)


def test_quartic_integral_paths_agree():
    # oracle: |f|^4 sampled on a zero-padded physical grid (padding factor 2,
    # alias-free for a quartic product), integrated by the exact trapezoid rule
    for n_grid in (4, 12, 40, 128):
        f = random_field(n_grid, seed=n_grid)
        pad = 2 * f.coeffs.shape[0]
        spec = np.zeros(pad, dtype=np.complex128)
        spec[f.frequencies() % pad] = f.coeffs
        padded = TWO_PI * np.mean(np.abs(np.fft.ifft(spec) * pad) ** 4)
        assert abs(quartic_integral(f) - padded) <= 1e-10 * abs(padded)


def test_quartic_integral_against_quadrature():
    # independent oracle: dense physical-space sampling of |f|^4
    f = random_field(5, seed=9)
    x = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
    vals = np.zeros_like(x, dtype=np.complex128)
    for n, c in zip(f.frequencies(), f.coeffs):
        vals += c * np.exp(1j * n * x)
    oracle = np.mean(np.abs(vals) ** 4) * TWO_PI
    assert quartic_integral(f) == pytest.approx(oracle, rel=1e-12)


def test_reflection_conjugation_invariance():
    f = random_field(7, seed=11)
    refl = SpectralField(np.conj(f.coeffs[::-1]), f.n_grid)
    assert mass(refl) == pytest.approx(mass(f), rel=1e-12)
    assert hamiltonian(refl, +1) == pytest.approx(hamiltonian(f, +1), rel=1e-12)


def test_field_validation():
    with pytest.raises(ValueError):
        SpectralField(np.array([1.0, np.inf, 0.0]), 1)
    with pytest.raises(ValueError):
        SpectralField(np.zeros(4), 1)
    with pytest.raises(ValueError):
        SpectralField.from_modes({3: 1.0}, n_grid=2)


def test_fields_are_immutable():
    f = random_field(3)
    with pytest.raises(ValueError):
        f.coeffs[0] = 1.0


def test_json_round_trip():
    f = random_field(6, seed=12)
    back = field_from_json(field_to_json(f))
    assert back.n_grid == f.n_grid
    assert np.array_equal(back.coeffs, f.coeffs)
    payload = json.loads(field_to_json(f))
    assert set(payload) == {"n_grid", "re", "im"}
    assert len(payload["re"]) == 2 * f.n_grid + 1


def test_csv_round_trip():
    f = random_field(4, seed=13)
    back = field_from_csv(field_to_csv(f))
    assert np.array_equal(back.coeffs, f.coeffs)
