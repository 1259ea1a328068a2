import numpy as np
import pytest

import qcss
from qcss.correlation import correlation_tensor


@pytest.fixture(scope="session")
def family3():
    return qcss.build_family_a(3)


@pytest.fixture(scope="session")
def family4():
    return qcss.build_family_a(4)


@pytest.fixture(scope="session")
def family5():
    return qcss.build_family_a(5)


@pytest.fixture(scope="session")
def family6():
    return qcss.build_family_a(6)


def join_strips(qset):
    """G[tau, k, l] = R(C_k, C_l; tau) and the base correlations
    R(a_k, a_l; tau), [k, l, tau], joined from the strips that
    ``correlation_tensor`` streams and their mirrors, C_lk(u) = conj C_kl(-u).

    E(x) = sum_d exp(2 pi i d x / q) is summed here from its definition.
    Every entry is written once by a strip or a mirror, and overlaps agree.
    """
    K, N = qset.num_sets, qset.period
    taus = np.arange(N)

    def E(x):
        return np.exp(2j * np.pi * np.outer(x, qset.shifts) / qset.q).sum(axis=1)

    e_in, e_wrap = E(-taus), E(N - taus)
    G = np.full((N, K, K), np.nan, dtype=complex)
    R = np.full((K, K, N), np.nan, dtype=complex)
    for start, exact, _ in correlation_tensor(qset):
        rows, cols, _ = exact.shape
        assert cols == K - start
        k = start + np.arange(rows)[:, None]
        l = start + np.arange(cols)[None, :]
        halves = (
            (k, l, exact[..., taus], exact[..., taus - N]),  # C_kl(tau), C_kl(tau - N)
            (l, k, np.conj(exact[..., -taus]), np.conj(exact[..., N - taus])),  # the mirror
        )
        for x, y, c_in, c_wrap in halves:
            values = np.moveaxis(e_in * c_in + e_wrap * c_wrap, 2, 0)
            seen = ~np.isnan(G[:, x, y])
            assert np.allclose(G[:, x, y][seen], values[seen], atol=1e-9)
            G[:, x, y] = values
            R[x, y] = c_in + c_wrap
    assert not np.isnan(G).any()
    return G, R
