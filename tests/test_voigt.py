import numpy as np
import pytest
from hypothesis import given, strategies as st

from xfft.voigt import (
    MaterialIso,
    iso_stiffness,
    mandel_to_tensor,
    stiffness_bounds,
    stiffness_to_mandel,
    tensor_to_mandel,
)


def rand_sym(rng):
    m = rng.standard_normal((3, 3))
    return 0.5 * (m + m.T)


def test_round_trip_exact_to_roundoff():
    rng = np.random.default_rng(1)
    for _ in range(100):
        t = rand_sym(rng)
        back = mandel_to_tensor(tensor_to_mandel(t))
        assert np.allclose(back, t, rtol=4e-16, atol=0)
        # diagonal entries are copied verbatim
        assert np.array_equal(np.diagonal(back, axis1=-2, axis2=-1),
                              np.diagonal(t, axis1=-2, axis2=-1))


@given(st.lists(st.floats(-1e3, 1e3), min_size=6, max_size=6))
def test_round_trip_from_vector(vals):
    v = np.asarray(vals)
    assert np.allclose(tensor_to_mandel(mandel_to_tensor(v)), v, rtol=1e-15, atol=1e-12)


def test_frobenius_norm_matches_vector_norm():
    rng = np.random.default_rng(2)
    for _ in range(50):
        t = rand_sym(rng)
        assert np.isclose(
            np.linalg.norm(t), np.linalg.norm(tensor_to_mandel(t)), rtol=1e-14
        )


def test_mandel_contraction_equals_full_tensor_contraction():
    # eps:C:eps via 6-vectors against the full 3x3x3x3 contraction
    rng = np.random.default_rng(3)
    m = MaterialIso(young=1.5, poisson=0.25)
    lam, mu = m.lame, m.shear
    eye = np.eye(3)
    c4 = lam * np.einsum("ij,kl->ijkl", eye, eye) + mu * (
        np.einsum("ik,jl->ijkl", eye, eye) + np.einsum("il,jk->ijkl", eye, eye)
    )
    c6 = iso_stiffness(m)
    assert np.allclose(stiffness_to_mandel(c4), c6, rtol=1e-14, atol=1e-14)
    for _ in range(200):
        eps = rand_sym(rng)
        full = np.einsum("ij,ijkl,kl->", eps, c4, eps)
        v = tensor_to_mandel(eps)
        assert np.isclose(v @ c6 @ v, full, rtol=1e-13)


def test_iso_stiffness_hashin_matrix():
    m = MaterialIso(young=1.5, poisson=0.25)
    assert np.isclose(m.bulk, 1.0, rtol=1e-12)
    assert np.isclose(m.shear, 0.6, rtol=1e-12)
    ev = np.linalg.eigvalsh(iso_stiffness(m))
    assert np.isclose(ev[-1], 3.0, rtol=1e-12)  # 3K
    assert np.allclose(ev[:5], 1.2, rtol=1e-12)  # 2mu, five-fold


def test_iso_stiffness_zero_poisson_is_identity():
    c = iso_stiffness(MaterialIso(young=1.0, poisson=0.0))
    assert np.allclose(c, np.eye(6), rtol=0, atol=1e-15)


def test_iso_stiffness_coating_bulk():
    m = MaterialIso(young=1.212036, poisson=0.25)
    assert np.isclose(m.bulk, 0.808024, rtol=1e-9)


@pytest.mark.parametrize("nu", [0.5, 0.6, -1.0, -1.5])
def test_invalid_poisson_rejected(nu):
    with pytest.raises(ValueError):
        MaterialIso(young=1.0, poisson=nu)


def test_invalid_young_rejected():
    with pytest.raises(ValueError):
        MaterialIso(young=-1.0, poisson=0.3)


@pytest.mark.parametrize("young", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_young_rejected(young):
    with pytest.raises(ValueError, match="Young"):
        MaterialIso(young=young, poisson=0.3)


def test_stiffness_bounds_single_phase():
    c = iso_stiffness(MaterialIso(young=1.5, poisson=0.25))
    lo, hi = stiffness_bounds([c])
    assert np.isclose(lo, 1.2, rtol=1e-12)
    assert np.isclose(hi, 3.0, rtol=1e-12)
    # duplicated phase changes nothing
    assert stiffness_bounds([c, c]) == (lo, hi)


def test_stiffness_bounds_contrast_dense_eig_oracle():
    # K ratio 10 at fixed nu: bounds span exactly factor 25 = 10 * (3K/2mu)
    a = iso_stiffness(MaterialIso(young=1.0, poisson=0.25))
    b = iso_stiffness(MaterialIso(young=10.0, poisson=0.25))
    lo, hi = stiffness_bounds([a, b])
    ev_a, ev_b = np.linalg.eigvalsh(a), np.linalg.eigvalsh(b)
    assert np.isclose(lo, min(ev_a[0], ev_b[0]), rtol=1e-13)
    assert np.isclose(hi, max(ev_a[-1], ev_b[-1]), rtol=1e-13)
    assert np.isclose(hi / lo, 25.0, rtol=1e-12)


def test_stiffness_bounds_reject_indefinite():
    bad = -np.eye(6)
    with pytest.raises(ValueError):
        stiffness_bounds([bad])


def test_bounds_bracket_quadratic_form():
    rng = np.random.default_rng(7)
    mats = [
        iso_stiffness(MaterialIso(young=1.5, poisson=0.25)),
        iso_stiffness(MaterialIso(young=12.1, poisson=0.1)),
    ]
    lo, hi = stiffness_bounds(mats)
    for c in mats:
        eps = rng.standard_normal((1000, 6))
        q = np.einsum("ni,ij,nj->n", eps, c, eps)
        nrm = (eps**2).sum(axis=1)
        assert np.all(q >= lo * nrm - 1e-12)
        assert np.all(q <= hi * nrm + 1e-12)
