import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bnls import fields
from bnls.fields import (
    SpectralField,
    bracket,
    field_from_json,
    field_to_json,
    hamiltonian,
    mass,
    project_low,
    quartic_integral,
    sobolev_norm,
    sobolev_norm_array,
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


_norm_cases = st.tuples(
    st.floats(-3.0, 3.0),
    st.integers(0, 32),
    st.lists(st.integers(1, 4), min_size=0, max_size=3),
    st.integers(0, 2**32 - 1),
)


@given(_norm_cases)
def test_sobolev_norm_array_is_the_field_norm_of_each_row(case):
    # bitwise, in any batch shape and in any memory layout of the batch
    s, n_grid, batch, seed = case
    rng = np.random.default_rng(seed)
    shape = tuple(batch) + (2 * n_grid + 1,)
    V = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rows = V.reshape(-1, shape[-1])
    expected = np.array([sobolev_norm(SpectralField(row, n_grid), s) for row in rows]).reshape(shape[:-1])
    for layout in (V, np.asfortranarray(V), np.repeat(V, 3, axis=-1)[..., ::3], rows[::-1][::-1]):
        got = sobolev_norm_array(layout, s)
        assert got.shape == layout.shape[:-1]
        assert np.array_equal(got.reshape(-1), expected.reshape(-1))
    # each row alone, and in a batch of other rows
    for k, row in enumerate(rows):
        assert sobolev_norm_array(row, s) == expected.reshape(-1)[k]
        assert sobolev_norm_array(np.stack([rows[::-1][0], row]), s)[1] == expected.reshape(-1)[k]


def test_sobolev_norm_array_reuses_read_only_weights_bitwise():
    # the bracket weights are built once per (N, s), in a bounded cache; a
    # cached call gives the norm of freshly built weights, bit for bit
    rng = np.random.default_rng(7)
    V = rng.standard_normal((5, 17)) + 1j * rng.standard_normal((5, 17))
    fresh = np.sqrt(np.sum((np.abs(V) * bracket(np.arange(-8, 9), 0.7)) ** 2, axis=-1))
    for s in (0.7, np.float64(0.7), 0.7, 0.7):
        assert np.array_equal(sobolev_norm_array(V, s), fresh)
    weights = fields._bracket_row(8, 0.7)
    assert weights is fields._bracket_row(8, 0.7) and not weights.flags.writeable
    assert fields._bracket_row.cache_info().maxsize is not None


def test_sobolev_norm_array_rejects_an_even_mode_axis():
    with pytest.raises(ValueError):
        sobolev_norm_array(np.zeros((3, 4)), 1.0)


def test_projection_examples():
    f = SpectralField.from_modes({-1: 1j, 0: 2.0, 1: 1.0})
    low = project_low(f, 0)
    assert low.get(0) == 2.0 and low.get(1) == 0.0 and low.get(-1) == 0.0
    # full projection leaves the field unchanged
    assert np.array_equal(project_low(f, 5).coeffs, f.on_grid(1).coeffs)


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

