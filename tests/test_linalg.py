import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pidlab.linalg import (
    ChoiMatrix,
    apply_choi,
    choi_from_kraus,
    choi_identity,
    choi_tensor,
    choi_trace_map,
    eig_hermitian,
    hermitize,
    kron,
    link_product,
    max_abs,
    partial_trace,
    phi_plus,
)

RNG = np.random.default_rng(np.random.Philox(7))


def rand_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def rand_hermitian(rng, n):
    a = rand_complex(rng, n, n)
    return (a + a.conj().T) / 2


def rand_kraus_channel(rng, din, dout, n_env):
    # random Stinespring isometry din -> dout*n_env via QR
    g = rand_complex(rng, dout * n_env, din)
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))[None, :]
    return [q.reshape(dout, n_env, din)[:, e, :] for e in range(n_env)]


class TestKron:
    def test_identity(self):
        assert np.allclose(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal(self):
        got = kron(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        assert np.allclose(got, np.diag([3.0, 4.0, 6.0, 8.0]))

    def test_vector_evaluation_oracle(self):
        rng = np.random.default_rng(np.random.Philox(11))
        for _ in range(20):
            a = rand_complex(rng, 2, 2)
            b = rand_complex(rng, 2, 2)
            va = rand_complex(rng, 2)
            vb = rand_complex(rng, 2)
            lhs = kron(a, b) @ kron(va.reshape(2, 1), vb.reshape(2, 1)).ravel()
            rhs = kron((a @ va).reshape(2, 1), (b @ vb).reshape(2, 1)).ravel()
            assert np.allclose(lhs, rhs, atol=1e-12)


class TestPartialTrace:
    def test_identity(self):
        got = partial_trace(np.eye(4), (2, 2), keep=(0,))
        assert np.allclose(got, 2 * np.eye(2))

    def test_product_oracle(self):
        rng = np.random.default_rng(np.random.Philox(12))
        for _ in range(20):
            rho = rand_hermitian(rng, 3)
            sig = rand_hermitian(rng, 2)
            got = partial_trace(kron(rho, sig), (3, 2), keep=(0,))
            assert np.allclose(got, np.trace(sig) * rho, atol=1e-12)
            got_b = partial_trace(kron(rho, sig), (3, 2), keep=(1,))
            assert np.allclose(got_b, np.trace(rho) * sig, atol=1e-12)

    def test_trace_preserved(self):
        rng = np.random.default_rng(np.random.Philox(13))
        m = rand_hermitian(rng, 12)
        for keep in [(0,), (1,), (2,), (0, 2), (0, 1, 2)]:
            got = partial_trace(m, (2, 3, 2), keep=keep)
            assert np.isclose(np.trace(got), np.trace(m), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(5), (2, 2), keep=(0,))


class TestEigHermitian:
    def test_identity(self):
        vals, vecs = eig_hermitian(np.eye(3))
        assert np.allclose(vals, [1, 1, 1])
        assert np.allclose(vecs @ vecs.conj().T, np.eye(3))

    def test_diag(self):
        vals, vecs = eig_hermitian(np.diag([2.0, -1.0]))
        assert np.allclose(vals, [2.0, -1.0])
        assert np.allclose(np.abs(vecs), np.eye(2))

    def test_reconstruction_oracle_bulk(self):
        rng = np.random.default_rng(np.random.Philox(14))
        for _ in range(1000):
            n = int(rng.integers(2, 17))
            m = rand_hermitian(rng, n)
            vals, vecs = eig_hermitian(m)
            recon = (vecs * vals) @ vecs.conj().T
            lam = max(1.0, float(np.max(np.abs(vals))))
            assert max_abs(recon - m) <= 1e-9 * lam
            assert np.all(np.diff(vals) <= 1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(np.random.Philox(15))
        m = rand_hermitian(rng, 6)
        v1 = eig_hermitian(m)
        v2 = eig_hermitian(m.copy())
        assert np.array_equal(v1[0], v2[0])
        assert np.array_equal(v1[1], v2[1])

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_small_drift(self):
        # the package's one rule: a drift above 1e-12 of the largest entry is not Hermitian
        m = np.diag([1.0, 2.0]).astype(complex)
        m[0, 1] = 1e-10
        with pytest.raises(ValueError, match="antisymmetric"):
            eig_hermitian(m)


class TestApplyChoi:
    def test_identity_channel(self):
        rng = np.random.default_rng(np.random.Philox(17))
        rho = rand_hermitian(rng, 2)
        assert np.allclose(apply_choi(choi_identity(2), rho), rho, atol=1e-12)

    def test_depolarizing(self):
        # completely depolarizing qubit channel via its Kraus set
        kraus = [np.outer(np.eye(2)[a], np.eye(2)[i]) / np.sqrt(2) for a in range(2) for i in range(2)]
        j = choi_from_kraus(kraus)
        rng = np.random.default_rng(np.random.Philox(18))
        rho = rand_hermitian(rng, 2)
        assert np.allclose(apply_choi(j, rho), np.trace(rho) * np.eye(2) / 2, atol=1e-12)

    def test_kraus_oracle(self):
        rng = np.random.default_rng(np.random.Philox(19))
        for _ in range(20):
            kraus = rand_kraus_channel(rng, 3, 2, 2)
            j = choi_from_kraus(kraus)
            rho = rand_hermitian(rng, 3)
            expect = sum(k @ rho @ k.conj().T for k in kraus)
            assert max_abs(apply_choi(j, rho) - expect) <= 1e-10


class TestLinkProduct:
    def test_identity(self):
        j = link_product(choi_identity(3), choi_identity(3))
        assert np.allclose(j.mat, phi_plus(3), atol=1e-12)

    def test_trace_map(self):
        rng = np.random.default_rng(np.random.Philox(20))
        j = choi_from_kraus(rand_kraus_channel(rng, 2, 3, 2))
        linked = link_product(j, choi_trace_map(3))
        assert np.allclose(linked.mat, np.eye(2), atol=1e-10)

    def test_sequential_application_oracle(self):
        rng = np.random.default_rng(np.random.Philox(21))
        for _ in range(10):
            j1 = choi_from_kraus(rand_kraus_channel(rng, 2, 3, 2))
            j2 = choi_from_kraus(rand_kraus_channel(rng, 3, 2, 3))
            rho = rand_hermitian(rng, 2)
            lhs = apply_choi(link_product(j1, j2), rho)
            rhs = apply_choi(j2, apply_choi(j1, rho))
            assert max_abs(lhs - rhs) <= 1e-10

    def test_associative(self):
        rng = np.random.default_rng(np.random.Philox(22))
        for _ in range(10):
            j1 = choi_from_kraus(rand_kraus_channel(rng, 2, 2, 2))
            j2 = choi_from_kraus(rand_kraus_channel(rng, 2, 3, 2))
            j3 = choi_from_kraus(rand_kraus_channel(rng, 3, 2, 2))
            a = link_product(link_product(j1, j2), j3)
            b = link_product(j1, link_product(j2, j3))
            assert max_abs(a.mat - b.mat) <= 1e-9


class TestChoiPrimitivesProperty:
    """The identities the compositions of ``pidlab.simulation`` rest on, for dimensions 1-3."""

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(dims=st.lists(st.integers(1, 3), min_size=4, max_size=4), seed=st.integers(0, 2**32 - 1))
    def test_tensor_applies_factorwise(self, dims, seed):
        rng = np.random.default_rng(seed)
        din1, dout1, din2, dout2 = dims
        j1 = ChoiMatrix(din1, dout1, rand_hermitian(rng, din1 * dout1))
        j2 = ChoiMatrix(din2, dout2, rand_hermitian(rng, din2 * dout2))
        r1, r2 = rand_hermitian(rng, din1), rand_hermitian(rng, din2)
        lhs = apply_choi(choi_tensor(j1, j2), kron(r1, r2))
        rhs = kron(apply_choi(j1, r1), apply_choi(j2, r2))
        assert max_abs(lhs - rhs) <= 1e-10

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(din=st.integers(1, 3), dout=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_identity_is_neutral_for_link(self, din, dout, seed):
        j = ChoiMatrix(din, dout, rand_hermitian(np.random.default_rng(seed), din * dout))
        assert max_abs(link_product(choi_identity(din), j).mat - j.mat) <= 1e-12
        assert max_abs(link_product(j, choi_identity(dout)).mat - j.mat) <= 1e-12

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(dims=st.lists(st.integers(1, 3), min_size=4, max_size=4), seed=st.integers(0, 2**32 - 1))
    def test_link_is_associative(self, dims, seed):
        # channels d0 -> d1 -> d2 -> d3, each with a din-dimensional environment
        rng = np.random.default_rng(seed)
        j1, j2, j3 = (
            choi_from_kraus(rand_kraus_channel(rng, din, dout, din))
            for din, dout in zip(dims, dims[1:])
        )
        a = link_product(link_product(j1, j2), j3)
        b = link_product(j1, link_product(j2, j3))
        assert max_abs(a.mat - b.mat) <= 1e-10


class TestChoiFromKraus:
    def test_identity_kraus(self):
        j = choi_from_kraus([np.eye(2)])
        assert np.allclose(j.mat, phi_plus(2))
        vals = np.linalg.eigvalsh(j.mat)
        assert np.isclose(np.trace(j.mat).real, 2.0)
        assert np.count_nonzero(vals > 1e-9) == 1

    def test_measure_and_prepare(self):
        e = np.eye(2)
        j = choi_from_kraus([np.outer(e[0], e[0]), np.outer(e[0], e[1])])
        assert j.is_valid(1e-9)
        for i in range(2):
            out = apply_choi(j, np.outer(e[i], e[i]))
            assert np.allclose(out, np.outer(e[0], e[0]), atol=1e-12)

    def test_unitary_z(self):
        z = np.diag([1.0, -1.0]).astype(complex)
        j = choi_from_kraus([z])
        assert j.is_valid(1e-9)
        rng = np.random.default_rng(np.random.Philox(23))
        rho = rand_hermitian(rng, 2)
        assert np.allclose(apply_choi(j, rho), z @ rho @ z, atol=1e-12)

    def test_tp_marginal_invariant(self):
        rng = np.random.default_rng(np.random.Philox(24))
        for _ in range(20):
            j = choi_from_kraus(rand_kraus_channel(rng, 3, 2, 2))
            marg = partial_trace(j.mat, (3, 2), keep=(0,))
            assert max_abs(marg - np.eye(3)) <= 1e-9


def test_hermitize_rejects_drift():
    with pytest.raises(ValueError):
        hermitize(np.array([[0.0, 1e-6], [0.0, 0.0]]))


def test_choi_matrix_shape_check():
    with pytest.raises(ValueError):
        ChoiMatrix(2, 2, np.eye(3))
