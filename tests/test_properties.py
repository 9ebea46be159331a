"""Hypothesis properties of the linear-algebra and tensor kernels.

Every property runs under a fixed profile: derandomized example search and
a bounded example count, so the suite stays deterministic and its run time
stays flat. Matrices are drawn from numpy generators seeded by hypothesis.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from abssep import bipartite, matcore, posmaps

PROPERTY = settings(derandomize=True, max_examples=20, deadline=None, database=None)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
factor_dims = st.integers(min_value=1, max_value=4)


def random_matrix(seed, rows, cols=None):
    rng = np.random.default_rng(seed)
    shape = (rows, rows if cols is None else cols)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(seed, n):
    g = random_matrix(seed, n)
    return (g + g.conj().T) / 2


@PROPERTY
@given(n=st.sampled_from([1, 2, 3, 9, 16, 36, 81]), seed=seeds)
def test_eigvalsh_descending_and_matches_numpy(n, seed):
    a = random_hermitian(seed, n)
    ours = matcore.eigvalsh(a)
    assert ours.shape == (n,)
    assert np.all(np.diff(ours) <= 0.0)
    ref = np.linalg.eigvalsh(a)[::-1]
    assert np.allclose(ours, ref, rtol=0.0, atol=1e-12 * (1.0 + np.abs(ref).max()))


@PROPERTY
@given(n=st.sampled_from([2, 3, 4, 6, 9]), seed=seeds)
def test_eigenvalues_invariant_under_unitary_conjugation(n, seed):
    a = random_hermitian(seed, n)
    u = bipartite.haar_unitary(n, seed)
    rotated = u @ a @ u.conj().T
    scale = 1.0 + np.abs(a).max()
    assert np.allclose(matcore.eigvalsh(rotated), matcore.eigvalsh(a), rtol=0.0, atol=1e-12 * n * scale)


@PROPERTY
@given(
    seed=st.integers(min_value=0, max_value=2**160 - 1),
    stream=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_stream_keys_match_seed_sequence(seed, stream):
    expected = np.random.SeedSequence(seed, spawn_key=(stream,)).generate_state(2, np.uint64)
    assert np.array_equal(bipartite.stream_keys(seed, [stream])[0], expected)


@PROPERTY
@given(m=factor_dims, n=factor_dims, seed=seeds)
def test_partial_transpose_is_an_involution(m, n, seed):
    x = random_matrix(seed, m * n)
    once = bipartite.partial_transpose(x, m, n)
    assert np.array_equal(bipartite.partial_transpose(once, m, n), x)


@PROPERTY
@given(m=factor_dims, n=factor_dims, seed=seeds)
def test_realignment_is_an_entry_permutation(m, n, seed):
    labels = np.arange((m * n) ** 2, dtype=np.float64).reshape(m * n, m * n)
    perm = bipartite.realign(labels, m, n).real.astype(np.int64).ravel()
    assert np.array_equal(np.sort(perm), np.arange((m * n) ** 2))
    x = random_matrix(seed, m * n)
    r = bipartite.realign(x, m, n)
    assert r.shape == (m * m, n * n)
    assert np.array_equal(r.ravel(), x.ravel()[perm])


bc_params = st.floats(min_value=0.0, max_value=4.0 / 3.0)


@PROPERTY
@given(points=st.lists(st.tuples(bc_params, bc_params), min_size=1, max_size=12))
def test_stacked_choi_matrices_equal_one_map_builds(points):
    maps = [posmaps.dual_map(posmaps.choi_map())]
    maps += [posmaps.dual_map(posmaps.generalized_choi_map(b, c)) for b, c in points]
    stacked = posmaps.choi_matrices(maps)
    assert stacked.shape == (len(maps), 9, 9)
    for phi, jmat in zip(maps, stacked):
        assert np.array_equal(jmat, posmaps.choi_matrix(phi))


@PROPERTY
@given(n=st.sampled_from([4, 6, 8]), seed=seeds)
def test_stacked_breuer_hall_choi_matrices_equal_one_map_builds(n, seed):
    # the default V beside a rotated one, U V U^T, in one group: each map's V
    # must reach its own slice
    u = bipartite.haar_unitary(n, seed)
    v = posmaps.breuer_hall_default_v(n)
    maps = [posmaps.breuer_hall_map(n), posmaps.breuer_hall_map(n, u @ v @ u.T)]
    stacked = posmaps.choi_matrices(maps)
    assert stacked.shape == (2, n * n, n * n)
    for phi, jmat in zip(maps, stacked):
        assert np.array_equal(jmat, posmaps.choi_matrix(phi))
    assert not np.allclose(stacked[0], stacked[1])
