"""Independent reference implementations used as test oracles.

Deliberately naive: cofactor determinants, straight-line metric scans,
a frame-by-frame differential chain, codeword-pair scans, one SVD per
within-group difference, dense n x n excesses, int64 weight algebra.
Nothing here shares code with the paths under test beyond the full-rank
threshold RANK_RTOL and the partial codewords ``Codebook.partials`` forms
(checked against the weights directly in test_codebook).  Also here: the
package's test-only helpers, which nothing in the package calls:
``evaluate`` (a design at a real vector), ``bit_mapping`` (the bits the
simulator's BER counts) and ``blas_threads`` (reads OpenBLAS's thread
count through the loader walk ``_kernels`` uses to set it).
"""

from itertools import combinations

import numpy as np

from gdstbc._kernels import _entry, _openblas_libs
from gdstbc.codebook import RANK_RTOL
from gdstbc.design import LinearDesign


def gaussian_int(a):
    """int64 (re, im) parts of a Gaussian-integer matrix; refuses any other entry."""
    a = np.asarray(a, dtype=np.complex128)
    re = np.rint(a.real).astype(np.int64)
    im = np.rint(a.imag).astype(np.int64)
    if not (np.array_equal(re, a.real) and np.array_equal(im, a.imag)):
        raise ValueError("matrix entries are not Gaussian integers")
    return re, im


def _parts(a):
    """``gaussian_int(a)``, or ``a`` itself when it already is such a pair."""
    return a if isinstance(a, tuple) else gaussian_int(a)


def int_herm_product(a, b):
    """a^H b in int64 arithmetic, as (re, im); a and b may also be given as
    their ``gaussian_int`` parts."""
    (ar, ai), (br, bi) = _parts(a), _parts(b)
    # (ar^T - j ai^T)(br + j bi)
    return ar.T @ br + ai.T @ bi, ar.T @ bi - ai.T @ br


def int_product(a, b):
    """a b in int64 arithmetic, as (re, im); a and b as in ``int_herm_product``."""
    (ar, ai), (br, bi) = _parts(a), _parts(b)
    return ar @ br - ai @ bi, ar @ bi + ai @ br


def int_within_group_involutions(weights, groups):
    """Whether every weight is unitary and, for a != b of one group,
    A_a^H A_b is Hermitian with trace 0, decided in int64 arithmetic."""
    n = weights.shape[1]
    for g in groups:
        for t, a in enumerate(g):
            re, im = int_herm_product(weights[a], weights[a])
            if not np.array_equal(re, np.eye(n)) or im.any():
                return False
            for b in g[t + 1:]:
                re, im = int_herm_product(weights[a], weights[b])
                if not (np.array_equal(re, re.T) and np.array_equal(im, -im.T)) \
                        or np.trace(re) or np.trace(im):
                    return False
    return True


def int_doubling_blocks(weights):
    """Whether every weight has the layout [[A, -B^H], [B, A^H]] and all
    top-left and bottom-left blocks are normal and commute pairwise,
    decided in int64 arithmetic."""
    n = weights.shape[1]
    if n % 2:
        return False
    h = n // 2
    blocks = []
    for w in weights:
        a, b = gaussian_int(w[:h, :h]), gaussian_int(w[h:, :h])
        tr, br = gaussian_int(w[:h, h:]), gaussian_int(w[h:, h:])
        if not (np.array_equal(tr[0], -b[0].T) and np.array_equal(tr[1], b[1].T)
                and np.array_equal(br[0], a[0].T) and np.array_equal(br[1], -a[1].T)):
            return False
        blocks += [a, b]
    for t, x in enumerate(blocks):
        xh = x[0].T, -x[1].T
        if not all(np.array_equal(p, q) for p, q in zip(int_product(x, xh), int_product(xh, x))):
            return False
        for y in blocks[t + 1:]:
            if not all(np.array_equal(p, q) for p, q in zip(int_product(x, y), int_product(y, x))):
                return False
    return True


def int_anticommutes(a, b):
    """Whether a^H b + b^H a = 0, decided in int64 arithmetic: b^H a is the
    conjugate transpose of p = a^H b."""
    pr, pi = int_herm_product(a, b)
    return not ((pr + pr.T).any() or (pi - pi.T).any())


def int_group_witness(weights, groups):
    """First cross-group pair (i, j) whose weights do not anticommute, in the
    order group pair, then i, then j; None when every such pair does."""
    weights = [gaussian_int(w) for w in weights]
    for ga, gb in combinations(groups, 2):
        for i in ga:
            for j in gb:
                if not int_anticommutes(weights[i], weights[j]):
                    return i, j
    return None


def cofactor_det(a):
    """Determinant by first-row cofactor expansion (exponential, tiny inputs only)."""
    a = np.asarray(a, dtype=np.complex128)
    n = a.shape[0]
    if n == 1:
        return complex(a[0, 0])
    total = 0j
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += ((-1) ** j) * a[0, j] * cofactor_det(minor)
    return total


def brute_force_decode(matrices, r_t, r_prev, a_prev_sq):
    """Reference decoder: explicit loop, explicit norm, first minimum wins."""
    inv_a = 1.0 / np.sqrt(a_prev_sq)
    best_idx = 0
    best_metric = None
    for m in range(matrices.shape[0]):
        diff = r_t - inv_a * (matrices[m] @ r_prev)
        metric = float(np.sum(np.abs(diff) ** 2))
        if best_metric is None or metric < best_metric:
            best_metric = metric
            best_idx = m
    return best_idx, best_metric


def compose_sums(points, norms, h):
    """Reference coordinate metrics x_m . h + a_m of a product codebook
    given as its four groups' points and norms, h in four equal slices:
    the M compose sums ((p0 + p1) + p2) + p3 of the group scores
    p_k = points_k . h_k + norms_k, each group scored by its own ``np.dot``,
    row-major over the four index ranges."""
    p0, p1, p2, p3 = (np.dot(pts, h_k) + nk for pts, h_k, nk
                      in zip(points, np.reshape(h, (4, -1)), norms))
    return np.add.outer(np.add.outer(np.add.outer(p0, p1), p2), p3).ravel()


def factored_scan(points, norms, h):
    """Reference exhaustive scan of a product codebook: the first minimum,
    row-major, of its ``compose_sums``."""
    return int(compose_sums(points, norms, h).argmin())


def evaluate(d: LinearDesign, x) -> np.ndarray:
    """S(x) = sum_i x_i A_i as a floating complex matrix."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (d.K,):
        raise ValueError(f"expected a real vector of length {d.K}, got shape {x.shape}")
    return np.tensordot(x, d.weight_stack, axes=(0, 0))


def bit_mapping(idx, group_sizes):
    """Concatenated fixed-width binary encodings of the group indices.

    Widths are log2 of each group size; sizes that are not powers of two
    have no bit interpretation (the simulator then reports BLER only).
    """
    bits = []
    for i, size in zip(idx, group_sizes):
        w = int(size).bit_length() - 1
        if (1 << w) != size:
            raise ValueError(f"group size {size} is not a power of two; BER undefined")
        bits.extend(((int(i) >> (w - 1 - b)) & 1) for b in range(w))
    return bits


def blas_threads():
    """Thread count of the first loaded OpenBLAS, or None if there is none."""
    for lib in _openblas_libs():
        fn = _entry(lib, "get")
        if fn is not None:
            return int(fn())
    return None


def assemble_real_vector(grouping, points_by_group, idx):
    """Place the four chosen group points into the full real variable vector."""
    k_total = sum(len(g) for g in grouping.groups)
    x = np.zeros(k_total)
    for k, grp in enumerate(grouping.groups):
        x[list(grp)] = points_by_group[k][idx[k]]
    return x


def random_window(cb, rng, snr_db_range=(0.0, 20.0)):
    """One noisy two-frame differential window with a random previous codeword.

    Returns (r_t, r_prev, a_prev_sq, true_index_tuple).
    """
    n = cb.n
    sizes = cb.sizes
    lin_prev = int(rng.integers(0, cb.M))
    lin = int(rng.integers(0, cb.M))
    x_prev = cb.matrices[lin_prev]
    a_prev_sq = float(cb.compose(cb.group_norms, cb.unravel_index(lin_prev)))
    x_t = (cb.matrices[lin] @ x_prev) / np.sqrt(a_prev_sq)
    h = (rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))) / np.sqrt(2)
    snr_db = rng.uniform(*snr_db_range)
    sigma = np.sqrt(n / (10 ** (snr_db / 10)) / 2)
    w = sigma * (rng.standard_normal((n, 2, 1)) + 1j * rng.standard_normal((n, 2, 1)))
    r_prev = x_prev @ h + w[:, 0]
    r_t = x_t @ h + w[:, 1]
    return r_t, r_prev, a_prev_sq, cb.unravel_index(lin)


def noisy_window(cb, rng, sigma, n_r=1):
    """One two-frame differential window over n_r receive antennas.

    Random previous and current codewords, unit-variance Rayleigh channel,
    complex noise of standard deviation sigma per real dimension (sigma = 0:
    noiseless).  Returns (r_t, r_prev, a_prev_sq).
    """
    n = cb.n
    lin_prev, lin = (int(v) for v in rng.integers(0, cb.M, 2))
    x_prev = cb.matrices[lin_prev]
    a_prev_sq = float(cb.compose(cb.group_norms, cb.unravel_index(lin_prev)))
    h = (rng.standard_normal((n, n_r)) + 1j * rng.standard_normal((n, n_r))) / np.sqrt(2)
    w = sigma * (rng.standard_normal((2, n, n_r)) + 1j * rng.standard_normal((2, n, n_r)))
    r_prev = x_prev @ h + w[0]
    r_t = (cb.matrices[lin] @ x_prev) @ h / np.sqrt(a_prev_sq) + w[1]
    return r_t, r_prev, a_prev_sq


def replay_y_chain(cb, seed, nf, n_r, sigma):
    """One fading block's sent group indices, received frames and decisions,
    frame by frame, each index a tuple of four.

    The simulator's draw order on ``default_rng(seed)``: the channel, the
    four groups' indices for all ``nf`` frames, then the noise (``sigma``
    per real dimension, none when 0), reference frame first.  The chain is
    the receiver-side one, Y_0 = H and Y_t = (U_t @ Y_{t-1}) / sqrt(a_{t-1})
    = X_t H with U_t the dense matrix from ``codeword_at``, and frame t is
    Y_t plus its noise.  Each frame is decided by ``brute_force_decode``
    over ``cb.matrices``, with the scale of the previous decision.
    """
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((cb.n, n_r, 2))
    y = (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)
    idx = np.stack([rng.integers(0, size, nf) for size in cb.sizes])
    noise = np.zeros((nf + 1, cb.n, n_r), dtype=complex)
    if sigma > 0:
        zw = rng.standard_normal((nf + 1, cb.n, n_r, 2))
        noise = (zw[..., 0] + 1j * zw[..., 1]) * sigma
    a_prev, a_hat = 1.0, 1.0
    frames, decided = [y + noise[0]], []
    for t in range(nf):
        cw = cb.codeword_at(idx[:, t])
        y, a_prev = (cw.matrix @ y) / np.sqrt(a_prev), cw.scale_sq
        frames.append(y + noise[t + 1])
        best, _ = brute_force_decode(cb.matrices, frames[-1], frames[-2], a_hat)
        decided.append(cb.unravel_index(best))
        a_hat = cb.codeword_at(decided[-1]).scale_sq
    sent = [tuple(idx[:, t].tolist()) for t in range(nf)]
    return sent, frames, decided


def pair_scan(cb):
    """Reference verifier verdicts from the full codeword stack.

    Brute force over all M(M-1)/2 codeword pairs and all M codewords: the
    count of rank-deficient differences (same full-rank rule as the
    package), min |det dS|, the coding gain min det(dS^H dS)^(1/n), the
    smallest relative margin of the block bound
    det(dS^H dS) >= max(|det dA|^2, |det dB|^2)^2, and the largest
    ||S^H S - scale_sq I||_inf.
    """
    mats = cb.matrices
    n = cb.n
    half = n // 2
    out = {"pairs": 0, "num_rank_deficient": 0, "min_abs_det": np.inf,
           "coding_gain": np.inf, "min_rel_bound_margin": np.inf}
    for i in range(cb.M - 1):
        d = mats[i + 1:] - mats[i]
        out["pairs"] += d.shape[0]
        svals = np.linalg.svd(d, compute_uv=False)
        out["num_rank_deficient"] += int(np.sum(
            svals[:, -1] <= RANK_RTOL * np.maximum(1.0, svals[:, 0])))
        out["min_abs_det"] = min(out["min_abs_det"], float(np.abs(np.linalg.det(d)).min()))
        gram_det = np.linalg.det(np.einsum("mji,mjk->mik", d.conj(), d)).real
        out["coding_gain"] = min(out["coding_gain"],
                                 float((np.maximum(gram_det, 0.0) ** (1.0 / n)).min()))
        det_a = np.abs(np.linalg.det(d[:, :half, :half])) ** 2
        det_b = np.abs(np.linalg.det(d[:, half:, :half])) ** 2
        bound = np.maximum(det_a, det_b) ** 2
        rel = (gram_det - bound) / np.maximum(1.0, gram_det)
        out["min_rel_bound_margin"] = min(out["min_rel_bound_margin"], float(rel.min()))
    gram = np.einsum("mji,mjk->mik", mats.conj(), mats)
    scales = cb.coordinate_table()[1]
    out["max_unitarity_residual"] = float(np.max(np.abs(gram - scales[:, None, None]
                                                        * np.eye(n))))
    return out


def group_svd_verdict(cb):
    """Reference full-diversity verdicts from one SVD per within-group difference.

    Every difference of two points of one group, D = S_k(q) - S_k(p) from
    ``Codebook.partials``, in ``triu_indices`` order group by group: its rank by
    the package's full-rank rule and |det D| as the product of its singular
    values, 0.0 for a difference the rule calls singular.  Returns
    ``all_full_rank``, ``num_rank_deficient`` (the pairs that differ in one
    group by a singular difference), ``first_deficient_pair`` (as two index
    tuples), ``min_abs_det`` and ``coding_gain`` = ``min_abs_det`` ** (2/n).
    """
    num_def, first_def, min_det = 0, None, np.inf
    for k in range(4):
        stack = cb.partials(k)
        i, j = np.triu_indices(stack.shape[0], 1)
        if not len(i):
            continue
        svals = np.linalg.svd(stack[j] - stack[i], compute_uv=False)
        deficient = svals[:, -1] <= RANK_RTOL * np.maximum(1.0, svals[:, 0])
        num_def += int(deficient.sum()) * (cb.M // cb.sizes[k])
        if first_def is None and deficient.any():
            t = int(np.argmax(deficient))
            a, b = [0] * 4, [0] * 4
            a[k], b[k] = int(i[t]), int(j[t])
            first_def = (tuple(a), tuple(b))
        dets = np.where(deficient, 0.0, np.prod(svals, axis=1))
        min_det = min(min_det, float(dets.min()))
    return {"all_full_rank": num_def == 0, "num_rank_deficient": num_def,
            "first_deficient_pair": first_def, "min_abs_det": min_det,
            "coding_gain": min_det ** (2.0 / cb.n)}


def dense_unitarity_residual(cb):
    """Reference ``Codebook.max_unitarity_residual``: the same bound,
    sum_k max_p ||E_k(p) - E_k(0)|| + ||sum_k E_k(0)|| (largest |entry|),
    from every group point's dense excess
    E_k(p) = S_k(p)^H S_k(p) - |x_k(p)|^2 I, one einsum per group over its
    partial codewords."""
    eye = np.eye(cb.n)
    bound = 0.0
    base = np.zeros((cb.n, cb.n), dtype=np.complex128)
    for k, norms in enumerate(cb.group_norms):
        stack = cb.partials(k)
        excess = np.einsum("pji,pjk->pik", stack.conj(), stack) - norms[:, None, None] * eye
        bound += float(np.max(np.abs(excess - excess[0])))
        base += excess[0]
    return bound + float(np.max(np.abs(base)))
