import math
import os
import random
import resource
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from torustwist import (DomainError, HermitianForm, TorusKnotParams,
                        build_form, inertia, prop35_bound_check,
                        seifert_matrix, sigma_closed, sigma_d,
                        sigma_d_counting, sigma_d_sweep, sigma_oracle,
                        torus_braid, tristram_sigma)
from torustwist import certify, cyclotomic, lattice, tristram
from torustwist.errors import InternalCheckError, UndecidedSignError
from torustwist.obstruction import MAX_Q, genus_cutoff
from torustwist.seifert import SeifertForm
from torustwist.lattice import (_lattice_hit, is_prime, prime_divisors,
                                primes_upto)
from torustwist.tristram import _sigma_counting_brute

SRC = Path(__file__).resolve().parent.parent / "src"


def K(p, q):
    return TorusKnotParams(p, q)


def coprime_range(pmax, qmax):
    return [(p, q) for p in range(2, pmax + 1) for q in range(p + 1, qmax + 1)
            if math.gcd(p, q) == 1]


def trial_division_primes(n):
    """Distinct prime divisors of n >= 1, ascending, by trial division."""
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    return out + [n] if n > 1 else out


def _dense(h):
    """h's three integer slices as one (n, n, 3) array."""
    return h.coeffs.dense(h.dimension)


def _nullity(h):
    """h's exact nullity, as `tristram._nullity` reads it."""
    return tristram._nullity(h.coeffs, h.dimension, h.d, h.source)


def test_build_form_d2_is_twice_symmetrization():
    f = seifert_matrix(torus_braid(2, 3))
    h = build_form(f, 2)
    # evaluate the slices C0 + z C1 + conj(z) C2 at z = -1
    c0, c1, c2 = np.moveaxis(_dense(h), -1, 0)
    value = c0 - c1 - c2
    assert value.tolist() == (2 * f.symmetrized()).tolist()


def test_form_is_three_slices_and_rejects_other_shapes():
    f = seifert_matrix(torus_braid(3, 4))
    for d in filter(is_prime, range(2, 44)):
        assert build_form(f, d).coeffs.vals.shape[0] == 3, d
        assert _dense(build_form(f, d)).shape == (6, 6, 3), d
    # one slice, or two, are forms too: they are padded with zero slices
    for coeffs in _SLICES:
        n = coeffs.shape[0]
        for k in (1, 2):
            c = _dense(HermitianForm(5, n, coeffs[:, :, :k]))
            assert c.shape == (n, n, 3), k
            assert np.array_equal(c[:, :, :k], coeffs[:, :, :k])
            assert not c[:, :, k:].any(), k
    # and certify as the explicit three-slice form: C0 symmetric, C1 = 0 for
    # H to be Hermitian, at d = 2 and at d = 3 under the identity involution
    for coeffs in _SLICES:
        n = coeffs.shape[0]
        full = np.zeros_like(coeffs)
        full[:, :, 0] = coeffs[:, :, 0]
        for d, inv in ((2, None), (3, np.arange(n))):
            want = inertia(HermitianForm(d, n, full, involution=inv))
            for k in (1, 2):
                h = HermitianForm(d, n, full[:, :, :k], involution=inv)
                assert inertia(h) == want, (n, d, k)
    # a d-slice cube of powers of zeta is not a form of this layout
    for shape in [(2, 2, 5), (2, 2, 0), (2, 3, 3), (3, 3, 3), (2, 2), (2, 2, 3, 1)]:
        with pytest.raises(DomainError):
            HermitianForm(5, 2, np.zeros(shape, dtype=np.int64))


def test_build_form_rejects_composite():
    f = seifert_matrix(torus_braid(2, 3))
    with pytest.raises(DomainError):
        build_form(f, 4)


@pytest.mark.parametrize("d", [1, 4, 9, 15])
def test_sourceless_form_rejects_non_prime_d(d):
    # z = exp(2*pi*i*[d/2]/d) has order d only for prime d, and the exact
    # nullity works over 1 + x + ... + x^(d-1), which is cyclotomic only then
    coeffs = np.zeros((2, 2, 3), dtype=np.int64)
    coeffs[0, 0, 0] = coeffs[1, 1, 0] = 1
    with pytest.raises(DomainError, match="need a prime"):
        HermitianForm(d, 2, coeffs)
    with pytest.raises(DomainError):
        tristram_sigma(K(2, 5), 6)


def test_hermitian_route_rejects_composite_d_before_the_seifert_matrix(
        monkeypatch):
    calls = []
    monkeypatch.setattr(tristram, "seifert_matrix", calls.append)
    with pytest.raises(DomainError):
        tristram_sigma(K(31, 37), 4)
    assert calls == []


def _exact_weights(d):
    """The weights (1, cos(t), sin(t)) that `tristram._weight_bounds(d,
    bits)` encloses, at the current mpmath precision; (1, -1, 0) exactly at
    d = 2, where mpmath's sin(pi) is not 0."""
    from mpmath import mp

    if d == 2:
        return (1, -1, 0)
    t = 2 * mp.pi * (d // 2) / d
    return (1, mp.cos(t), mp.sin(t))


# integer slices to enclose: torus forms' (C0, C1, C2), whatever they weigh
_SLICES = [_dense(build_form(seifert_matrix(torus_braid(p, q)), 2))
           for p, q in [(2, 5), (3, 7), (4, 5)]]


def test_float_enclosure_contains_every_exact_entry():
    # also on object slices past int64, as `tristram._integer` holds them
    from mpmath import mp

    wide = np.array([[[2 ** 64 + 1, -(2 ** 63) - 7, 5],
                      [3, 2 ** 62, -(2 ** 65) + 3]]] * 2, dtype=object)
    for slices in _SLICES + [wide]:
        n = slices.shape[0]
        for d in (2, 3, 5, 7, 43):
            enc = tristram._float_enclosure(
                HermitianForm(2, n, slices).coeffs, n, d)
            assert enc.mid.dtype == np.float64
            with mp.workprec(200):
                w = _exact_weights(d)
                for i in range(n):
                    for j in range(n):
                        exact = sum(int(c) * r
                                    for c, r in zip(slices[i, j], w))
                        gap = abs(exact - mp.mpf(float(enc.mid[i, j])))
                        assert gap <= enc.rad[i, j], (n, d, i, j)


@pytest.mark.parametrize("d", primes_upto(400))
def test_root_bounds_enclose_cos_and_sin(d):
    # the integer evaluation against mpmath, at the double rung's 80 bits
    # and every precision rung up to the cap; exact at d = 2
    from mpmath import mp

    for bits in (53, 80, *(2 ** e for e in range(7, 13))):
        bounds = tristram._root_bounds(d, bits)
        with mp.workprec(bits + 200):
            t = 2 * mp.pi * (d // 2) / d
            # these values are within 2^(bits - 190) of the true ones
            slack = mp.ldexp(1, bits - 190)
            for (lo, hi), f in zip(bounds, (mp.cos, mp.sin)):
                assert type(lo) is int and type(hi) is int
                x = mp.ldexp(f(t), bits)
                assert lo <= x + slack and x - slack <= hi, (d, bits, f)
                assert hi - lo <= 2, (d, bits, f)
        if d == 2:
            assert bounds == ((-2 ** bits, -2 ** bits), (0, 0)), bits


def test_pi_is_computed_once_per_precision():
    # pi does not depend on d, so the root bounds of several d at one
    # precision share one evaluation of Machin's formula
    tristram._root_bounds.cache_clear()
    tristram._machin_pi.cache_clear()
    for d in (2, 3, 5, 7, 11):
        tristram._root_bounds(d, 1024)
    info = tristram._machin_pi.cache_info()
    assert (info.misses, info.hits) == (1, 4)


@pytest.mark.parametrize("d", [2, 3, 5, 7, 43, 97])
def test_weight_bounds_enclose_every_weight(d):
    from mpmath import mp

    with mp.workprec(200):
        for bits in (53, 80, 128):
            # 200-bit values are within 2^(bits - 190) of the true ones
            slack = mp.ldexp(1, bits - 190)
            mid, rad = tristram._weight_bounds(d, bits)
            assert len(mid) == len(rad) == 3
            for w, m, r in zip(_exact_weights(d), mid, rad):
                assert type(m) is int and type(r) is int and r >= 0
                assert abs(mp.ldexp(w, bits) - m) <= r + slack, (d, bits)
            if d == 2:
                assert rad == (0, 0, 0)


@pytest.mark.parametrize("k", [2, 3])
def test_mp_enclosure_contains_every_exact_entry(k):
    # the precision rungs' enclosure of sum_s S_s w_s, the slice loop in
    # Python ints, holds for any k integer slices, a missing one counting
    # as zero as the form pads it; at d = 2 it is exact
    from mpmath import mp

    for coeffs in _SLICES:
        given, n = coeffs[:, :, :k], coeffs.shape[0]
        slices = HermitianForm(2, n, given).coeffs
        for d in (2, 3, 5, 7, 43):
            for prec in (53, 128, 256):
                c, rad = tristram._slice_sum(
                    slices, n, *tristram._weight_bounds(d, prec), object)
                if d == 2:
                    assert not rad.any()
                with mp.workprec(prec + 200):
                    w = _exact_weights(d)
                    for i in range(n):
                        for j in range(n):
                            exact = sum(int(x) * r
                                        for x, r in zip(given[i, j], w))
                            gap = abs(exact * 2 ** prec - c[i, j])
                            assert gap <= rad[i, j], (n, d, prec, i, j)


def _exact_reduced(h):
    """The real K = W* H W / 2 of `tristram._real_slices`, exactly at the
    current mpmath precision, from its definition: W has the columns
    e_a + e_p[a] over the fixed points a = p[a], then over a < p[a], then
    i (e_a - e_p[a]) over a < p[a]."""
    from mpmath import mp

    p, n, coeffs = h.involution, h.dimension, _dense(h)
    z = mp.expj(2 * mp.pi * h.a / h.d)
    roots = (1, z, mp.conj(z))
    hm = mp.matrix([[sum(int(c) * r for c, r in zip(coeffs[i, j], roots))
                     for j in range(n)] for i in range(n)])
    fixed = [a for a in range(n) if p[a] == a]
    pairs = [a for a in range(n) if a < p[a]]
    w = mp.matrix(n, n)
    for col, a in enumerate(fixed + pairs):
        w[a, col] += 1
        w[p[a], col] += 1
    for col, a in enumerate(pairs, start=len(fixed) + len(pairs)):
        w[a, col] += 1j
        w[p[a], col] -= 1j
    return w.H * hm * w / 2


def _reduced_cases():
    """(h, the form whose K `inertia` certifies for h): torus forms at d > 2
    with their involution, and without it, when the doubled form's K."""
    for p, q in [(2, 5), (3, 7), (4, 5)]:
        f = seifert_matrix(torus_braid(p, q))
        for d in (3, 5, 7, 43):
            h = build_form(f, d, source=(p, q))
            yield h, h
            bare = replace(h, involution=None)
            yield bare, tristram._doubled(bare)


def _one_block(h):
    """(float_fn, mp_fn, n, nullity, copies) of the one block that
    `inertia` certifies for h, a form at d > 2 or without an involution."""
    (block,), copies = tristram._enclosures(h)
    return (*block, copies)


def test_reduced_float_enclosure_contains_every_exact_entry():
    from mpmath import mp

    for h, reduced in _reduced_cases():
        enc = _one_block(h)[0]()
        assert enc.mid.dtype == np.float64
        with mp.workprec(200):
            k = _exact_reduced(reduced)
            for i in range(reduced.dimension):
                for j in range(reduced.dimension):
                    gap = abs(k[i, j] - mp.mpf(float(enc.mid[i, j])))
                    assert gap <= enc.rad[i, j], (h.source, h.d, i, j)


def test_reduced_mp_enclosure_contains_every_exact_entry():
    from mpmath import mp

    for h, reduced in _reduced_cases():
        mp_fn = _one_block(h)[1]
        for prec in (53, 128, 256):
            c, rad = mp_fn(prec)
            with mp.workprec(prec + 200):
                k = _exact_reduced(reduced)
                for i in range(reduced.dimension):
                    for j in range(reduced.dimension):
                        gap = abs(k[i, j] * 2 ** prec - c[i, j])
                        assert gap <= rad[i, j], (h.source, h.d, prec, i, j)


def test_a_form_without_an_involution_is_certified_twice_over():
    # the doubled form's slices are the block sums, its involution the swap
    bare = replace(build_form(seifert_matrix(torus_braid(3, 7)), 5,
                              source=(3, 7)), involution=None)
    n, c = bare.dimension, _dense(bare)
    double = tristram._doubled(bare)
    assert double.dimension == 2 * n and double.source == (3, 7)
    assert np.array_equal(double.involution,
                          [*range(n, 2 * n), *range(n)])
    zero = np.zeros((n, n, 3), dtype=c.dtype)
    assert np.array_equal(_dense(double), np.concatenate(
        [np.concatenate([c, zero], axis=1),
         np.concatenate([zero, c[:, :, [0, 2, 1]]], axis=1)]))
    assert tristram._checked_involution(double) is double.involution
    assert tristram._enclosures(bare)[1] == 2
    assert tristram._enclosures(replace(bare, d=2))[1] == 1
    ine = inertia(bare)
    assert ine.n_zero == 0 and ine.signature == sigma_d_counting(3, 7, 5)


def _run(script, *flags, **kwargs):
    """Run script in a child interpreter, with the given interpreter flags,
    that imports the package from this tree; one BLAS thread, so that a
    child capped in address space does not spend it on thread buffers."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *flags, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60,
                          **kwargs)


def _run_O(script):
    return _run(script, "-O")


def test_inertia_rejects_a_non_hermitian_form_also_under_O():
    # C0 = [[1, 5], [0, 1]] used to climb the mp ladder to its cap and raise
    # UndecidedSignError; C2 != C1^T is the other way to fail, and a missing
    # C2 counts as zero
    bad = []
    c = np.zeros((2, 2, 1), dtype=np.int64)
    c[:, :, 0] = [[1, 5], [0, 1]]
    bad.append(HermitianForm(2, 2, c))
    c = np.zeros((2, 2, 3), dtype=np.int64)
    c[:, :, 0] = np.eye(2, dtype=np.int64)
    c[:, :, 1] = [[0, 1], [0, 0]]
    c[:, :, 2] = [[0, 1], [0, 0]]
    bad.append(HermitianForm(3, 2, c))
    bad.append(HermitianForm(3, 2, c[:, :, :2]))
    for h in bad:
        with pytest.raises(DomainError):
            inertia(h)
    res = _run_O(
        "import numpy as np\n"
        "from torustwist import DomainError, HermitianForm, inertia\n"
        "c = np.array([[1, 5], [0, 1]]).reshape(2, 2, 1)\n"
        "try:\n"
        "    inertia(HermitianForm(2, 2, c))\n"
        "except DomainError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n")
    assert res.returncode == 0, res.stderr


def test_inertia_rejects_an_involution_that_is_not_a_symmetry_also_under_O():
    form = build_form(seifert_matrix(torus_braid(3, 5)), 3, source=(3, 5))
    p, n, c = form.involution, form.dimension, _dense(form)
    assert inertia(form).signature == sigma_d_counting(3, 5, 3)
    # one corrupted entry of C1, with C2 = C1^T kept, so H stays Hermitian
    # but P C1 P^T != C2
    i, j = next((i, j) for i in range(n) for j in range(n)
                if c[i, j, 1] == 0 and c[p[i], p[j], 1] == 0 and i != p[j])
    corrupt = c.copy()
    corrupt[i, j, 1] = corrupt[j, i, 2] = 1
    bad = [replace(form, coeffs=corrupt),
           replace(form, involution=np.roll(np.arange(n), 1)),  # P P != id
           replace(form, involution=np.arange(n)),  # not a symmetry of C1
           replace(form, involution=p[:-1]),
           replace(form, involution=np.where(p == 0, n, p)),
           replace(form, involution=p.astype(float))]
    for h in bad:
        with pytest.raises(DomainError):
            inertia(h)
    # the corrupted form is a valid Hermitian form without the involution
    inertia(replace(form, coeffs=corrupt, source=None, involution=None))
    res = _run_O(
        "import numpy as np\n"
        "from dataclasses import replace\n"
        "from torustwist import (DomainError, build_form, inertia,\n"
        "                        seifert_matrix, torus_braid)\n"
        "f = build_form(seifert_matrix(torus_braid(3, 5)), 3, source=(3, 5))\n"
        "try:\n"
        "    inertia(replace(f, involution=np.arange(f.dimension)))\n"
        "except DomainError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n")
    assert res.returncode == 0, res.stderr


# torus form slices do not depend on d, and every torus form is
# nonsingular at every prime d
_TORUS_SLICES = [_dense(build_form(seifert_matrix(torus_braid(p, q)), 2))
                 for p, q in [(2, 3), (2, 5), (3, 4)]]


# the companion matrix of the minimal polynomial of z + conj(z),
# a = [d/2]: x + 2, x + 1, x^2 + x - 1 and x^3 + x^2 - 2x - 1
_TRACE_COMPANION = {2: [[-2]], 3: [[-1]], 5: [[0, 1], [1, -1]],
                    7: [[0, 0, 1], [1, 0, 2], [0, 1, -1]]}


def _block(kind, arg, d):
    """(slices, nullity) of one block whose nullity is known at d."""
    if kind == "zero":
        return np.zeros((arg, arg, 3), dtype=np.int64), arg
    if kind == "trace":
        # (z + conj(z)) I - W: z + conj(z) is a simple eigenvalue of W, and
        # swapping conj(z) for z would make the block nonsingular
        w = np.array(_TRACE_COMPANION[d], dtype=np.int64)
        one = np.eye(len(w), dtype=np.int64)
        return np.stack([-w, one, one], axis=-1), 1
    a = _TORUS_SLICES[arg]
    if kind == "torus":
        return a, 0
    # [[A, A], [A, A]] is congruent to A + 0
    return np.tile(a, (2, 2, 1)), len(a)


_BLOCKS = st.one_of(
    st.tuples(st.just("zero"), st.integers(1, 3)),
    st.tuples(st.just("torus"), st.integers(0, 2)),
    st.tuples(st.just("double"), st.integers(0, 1)),
    st.tuples(st.just("trace"), st.just(0)))


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([2, 3, 5, 7]),
       blocks=st.lists(_BLOCKS, min_size=1, max_size=3),
       data=st.data())
def test_exact_nullity_of_block_sums(d, blocks, data):
    parts = [_block(*b, d) for b in blocks]
    n = sum(len(c) for c, _ in parts)
    coeffs = np.zeros((n, n, 3), dtype=np.int64)
    at = 0
    for c, _ in parts:
        coeffs[at:at + len(c), at:at + len(c)] = c
        at += len(c)
    # permuting rows and columns alike hides the blocks but keeps the nullity
    perm = data.draw(st.permutations(range(n)))
    coeffs = coeffs[perm][:, perm]
    slices = HermitianForm(d, n, coeffs).coeffs
    assert cyclotomic.hermitian_nullity_exact(slices, n, d) == \
        sum(z for _, z in parts)


def test_exact_nullity_is_bounded_before_it_allocates():
    # a sourceless form of dimension 4 at d = 10007 would need a rational
    # matrix 40,024 square, 1.6e9 objects; in a child capped at 2 GB of
    # address space it is rejected at once, with DomainError, not MemoryError
    script = (
        "import numpy as np\n"
        "from torustwist import DomainError, HermitianForm, inertia\n"
        "v = np.array([[1, 2, 0, 0], [0, 1, 3, 0], [0, 0, 1, 1],\n"
        "              [1, 0, 0, 1]])\n"
        "h = HermitianForm(10007, 4, np.stack([v + v.T, -v, -v.T], axis=-1))\n"
        "try:\n"
        "    inertia(h)\n"
        "except DomainError as e:\n"
        "    print(e)\n")

    def cap():
        limit = 2 << 30
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    res = _run(script, preexec_fn=cap)
    assert res.returncode == 0, res.stderr
    assert "n(d-1) = 40024 exceeds MAX_EXACT_DIM = 256" in res.stdout
    # the bound is on n(d-1): 16 * 16 is accepted, 17 * 16 is not
    assert cyclotomic.MAX_EXACT_DIM == 256
    for n, accepted in ((16, True), (17, False)):
        zero = HermitianForm(17, n, np.zeros((n, n, 1), dtype=np.int64))
        if accepted:
            assert _nullity(zero) == n
        else:
            with pytest.raises(DomainError, match="MAX_EXACT_DIM"):
                _nullity(zero)


def test_t25_all_primes():
    for d in (2, 3, 5, 7, 11):
        assert tristram_sigma(K(2, 5), d) == -4


def test_t23_d3():
    assert tristram_sigma(K(2, 3), 3) == -2
    # T(2,3) is the one knot the dispatcher lets above -4, on both routes
    for d in filter(is_prime, range(2, 44)):
        for method in ("hermitian", "counting"):
            assert tristram_sigma(K(2, 3), d, method=method) == -2, (d, method)


def test_sigma_d_has_one_name_per_route():
    # lattice.sigma_d only counts; tristram_sigma alone picks a route
    assert sigma_d(K(5, 7), 3) == tristram_sigma(K(5, 7), 3,
                                                 method="counting")
    with pytest.raises(TypeError):
        sigma_d(K(5, 7), 3, method="counting")
    for method in ("auto", "seifert"):
        with pytest.raises(ValueError):
            tristram_sigma(K(5, 7), 3, method=method)


def test_inertia_examples():
    f = seifert_matrix(torus_braid(2, 3))
    tref = inertia(build_form(f, 2, source=(2, 3)))
    assert (tref.n_plus, tref.n_zero, tref.n_minus) == (0, 0, 2)
    ine = inertia(build_form(seifert_matrix(torus_braid(2, 5)), 5, source=(2, 5)))
    assert (ine.n_plus, ine.n_zero, ine.n_minus) == (0, 0, 4)
    zero = HermitianForm(3, 3, np.zeros((3, 3, 3), dtype=np.int64))
    z = inertia(zero)
    assert (z.n_plus, z.n_zero, z.n_minus) == (0, 3, 0)


def test_inertia_escalates_past_double_precision():
    # det = -1 but the small eigenvalue is ~ -1/N^2, far below the double
    # precision noise floor at scale N^2
    n = 2 ** 27
    coeffs = np.zeros((2, 2, 2), dtype=np.int64)
    coeffs[:, :, 0] = [[1, n], [n, n * n - 1]]
    res = inertia(HermitianForm(2, 2, coeffs))
    assert (res.n_plus, res.n_zero, res.n_minus) == (1, 0, 1)


def test_precision_cap_raises_undecided(monkeypatch):
    n = 2 ** 27
    coeffs = np.zeros((2, 2, 2), dtype=np.int64)
    coeffs[:, :, 0] = [[1, n], [n, n * n - 1]]
    monkeypatch.setattr(certify, "PRECISION_CAP", 53)
    with pytest.raises(UndecidedSignError):
        inertia(HermitianForm(2, 2, coeffs))


def test_inertia_widens_entries_of_2_60_and_more():
    # [[1, n], [n, n^2 - 1]] at d = 3, n = 2^31, has det -1, so inertia
    # (1, 0, 1).  n^2 - 1 passes 2^60, so the form holds Python ints; under
    # the identity involution every point is fixed and K's first slice is
    # 2 C0, past int64; without an involution the doubled form is certified
    n = 2 ** 31
    coeffs = np.zeros((2, 2, 3), dtype=np.int64)
    coeffs[:, :, 0] = [[1, n], [n, n * n - 1]]
    for inv in (np.arange(2), None):
        res = inertia(HermitianForm(3, 2, coeffs, involution=inv))
        assert (res.n_plus, res.n_zero, res.n_minus) == (1, 0, 1), inv
    h = HermitianForm(3, 2, coeffs)
    assert h.coeffs.vals.dtype == object
    (size, k), = tristram._real_slices(h.coeffs, 2, np.arange(2), 3)
    assert size == 2 and k.vals.dtype == object
    assert k.dense(2)[1, 1, 0] == 2 * (n * n - 1)


def test_repeated_positions_are_summed_exactly_past_int64():
    # two entries of 2^62 at (0, 0) make C0 = diag(2^63, 1), and so do 17 of
    # 2^59 and one of -2^59: both sums pass int64, where they used to wrap
    # to C0[0, 0] = -2^63, read as inertia (1, 0, 1)
    for top, vals in ((2 ** 62, [2 ** 62] * 2), (2 ** 59, [2 ** 59] * 17
                                                  + [-2 ** 59])):
        rows = np.zeros(len(vals) + 1, dtype=np.int64)
        rows[-1] = 1
        slices = tristram.Slices(rows, rows, np.array(
            [vals + [1], [0] * (len(vals) + 1), [0] * (len(vals) + 1)],
            dtype=np.int64))
        h = HermitianForm(3, 2, slices)
        assert h.coeffs.dense(2)[:, :, 0].tolist() == [[2 ** 63, 0], [0, 1]]
        assert inertia(h) == certify.Inertia(2, 0, 0), top
    # eight entries of 2^59 on C1 and on C2 at one position merge inside
    # int64 to 2^62, held as Python ints, so that the real reduction's
    # C1 + C2 = 2^63 is exact: H(-1) = -2^63 at d = 2, and
    # (2 cos t) 2^62 < 0 at d = 3
    zero = np.zeros(8, dtype=np.int64)
    eight = np.full(8, 2 ** 59, dtype=np.int64)
    slices = tristram.Slices(zero, zero, np.stack([zero, eight, eight]))
    for d in (2, 3):
        h = HermitianForm(d, 1, slices)
        assert h.coeffs.vals.dtype == object
        assert inertia(h) == certify.Inertia(0, 0, 1), d


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("x, want", [(2 ** 62, (1, 0, 0)),
                                     (-2 ** 63, (0, 0, 1))],
                         ids=["2^62", "-2^63"])
def test_build_form_is_exact_on_seifert_values_past_int64(x, want, d):
    # a 1 x 1 V = [x] has H = (2 - 2 cos t) x, of x's sign at every d; the
    # slices (2x, -x, -x) pass int64: 2x at x = 2^62, and -x at x = -2^63
    f = SeifertForm(1, np.array([0]), np.array([0]),
                    np.array([x], dtype=np.int64))
    h = build_form(f, d)
    assert h.coeffs.dense(1)[0, 0].tolist() == [2 * x, -x, -x]
    assert inertia(h) == certify.Inertia(*want)


@st.composite
def _repeated_slices(draw):
    """(d, n, slices, involution, dense): a small Hermitian form at d given
    as `Slices` whose positions repeat and come unsorted, with entries up
    to 2^59 or 2^62 in modulus, its involution (or None), and its dense slices
    merged in Python ints.  Each drawn term (i, j, c0, c1) adds c0 to C0
    and c1 to C1 at (i, j), and c0 to C0 and c1 to C2 at (j, i); under an
    involution P it is also added at the images of those two positions
    with C1 and C2 exchanged, so that P C0 P^T = C0 and P C1 P^T = C2."""
    d = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 4))
    p = None
    if draw(st.booleans()):
        perm = draw(st.permutations(range(n)))
        p = np.arange(n)
        for k in range(draw(st.integers(0, n // 2))):
            a, b = perm[2 * k], perm[2 * k + 1]
            p[a], p[b] = b, a
    # entries below 2^60 are held as int64, whose merged sums may pass it
    top = draw(st.sampled_from([2 ** 62, 2 ** 59]))
    entry = st.one_of(st.integers(-top, top), st.sampled_from([-top, top]))
    terms = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1), entry, entry),
                          min_size=1, max_size=6))
    given = []
    for i, j, c0, c1 in terms:
        given += [(i, j, c0, c1, 0), (j, i, c0, 0, c1)]
        if p is not None:
            given += [(p[i], p[j], c0, 0, c1), (p[j], p[i], c0, c1, 0)]
    given = [given[k] for k in draw(st.permutations(range(len(given))))]
    dense = np.zeros((n, n, 3), dtype=object)
    for i, j, *x in given:
        for s in range(3):
            dense[i, j, s] += x[s]
    rows, cols, *vals = zip(*given)
    slices = tristram.Slices(np.array(rows, dtype=np.int64),
                             np.array(cols, dtype=np.int64),
                             np.array(vals, dtype=np.int64))
    return d, n, slices, p, dense


@settings(max_examples=60, deadline=None)
@given(case=_repeated_slices())
def test_inertia_of_repeated_slices_matches_their_merged_matrix(case):
    # the oracle merges the slices in Python ints: at d = 2 an exact LDL^T
    # of H = C0 - C1 - C2, at d > 2 mpmath eigenvalues at 1500 bits, where
    # a zero eigenvalue reads below 2^-1000, and a nonzero one of these
    # n <= 4 matrices of cyclotomic integers below 2^70 stays far above it
    from mpmath import mp

    d, n, slices, p, dense = case
    if d == 2:
        want = _exact_inertia((dense[:, :, 0] - dense[:, :, 1]
                               - dense[:, :, 2]).tolist())
    else:
        with mp.workprec(1500):
            z = mp.expj(2 * mp.pi * (d // 2) / d)
            hm = mp.matrix([[dense[i, j, 0] + z * dense[i, j, 1]
                             + mp.conj(z) * dense[i, j, 2]
                             for j in range(n)] for i in range(n)])
            eig = mp.eighe(hm, eigvals_only=True)
            tiny = mp.mpf(2) ** -1000
            want = (sum(e > tiny for e in eig),
                    sum(abs(e) <= tiny for e in eig),
                    sum(e < -tiny for e in eig))
    h = HermitianForm(d, n, slices, involution=p)
    assert np.array_equal(h.coeffs.dense(n), dense)
    res = inertia(h)
    assert (res.n_plus, res.n_zero, res.n_minus) == want


def test_an_odd_doubled_count_is_an_internal_check_error_also_under_O(
        monkeypatch):
    # the doubled form holds two copies of H, so its counts must be even
    bare = replace(build_form(seifert_matrix(torus_braid(2, 5)), 3,
                              source=(2, 5)), involution=None)
    monkeypatch.setattr(tristram, "certified_inertia",
                        lambda *args: certify.Inertia(2, 0, 6))
    assert inertia(bare) == certify.Inertia(1, 0, 3)
    monkeypatch.setattr(tristram, "certified_inertia",
                        lambda *args: certify.Inertia(3, 0, 5))
    with pytest.raises(InternalCheckError):
        inertia(bare)
    res = _run_O(
        "from dataclasses import replace\n"
        "from torustwist import (build_form, inertia, seifert_matrix,\n"
        "                        torus_braid, tristram)\n"
        "from torustwist.certify import Inertia\n"
        "from torustwist.errors import InternalCheckError\n"
        "tristram.certified_inertia = lambda *args: Inertia(3, 0, 5)\n"
        "f = build_form(seifert_matrix(torus_braid(2, 5)), 3, source=(2, 5))\n"
        "try:\n"
        "    inertia(replace(f, involution=None))\n"
        "except InternalCheckError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n")
    assert res.returncode == 0, res.stderr


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([3, 5, 7]), n=st.integers(1, 5), data=st.data())
def test_inertia_without_an_involution_matches_complex_eigenvalues(d, n, data):
    # an independent oracle: mp.eighe on H itself at 300 bits, for forms
    # whose eigenvalues all lie at least 2^-200 away from zero
    from mpmath import mp

    entries = data.draw(st.lists(st.integers(-3, 3), min_size=n * n,
                                 max_size=n * n))
    v = np.array(entries, dtype=np.int64).reshape(n, n)
    h = HermitianForm(d, n, np.stack([v + v.T, -v, -v.T], axis=-1))
    coeffs = _dense(h)
    with mp.workprec(300):
        z = mp.expj(2 * mp.pi * h.a / d)
        roots = (1, z, mp.conj(z))
        hm = mp.matrix([[sum(int(c) * r for c, r in zip(coeffs[i, j], roots))
                         for j in range(n)] for i in range(n)])
        eig = mp.eighe(hm, eigvals_only=True)
        assume(all(abs(e) >= mp.mpf(2) ** -200 for e in eig))
        want = (sum(e > 0 for e in eig), 0, sum(e < 0 for e in eig))
    res = inertia(h)
    assert (res.n_plus, res.n_zero, res.n_minus) == want


def _fixture_slices(k, seed=5):
    """The two dense slices of `_fixture(k, seed)`, as perfbench builds
    them."""
    rng = random.Random(seed)
    coeffs = np.zeros((2 * k, 2 * k, 2), dtype=np.int64)
    for blk in range(k):
        n = rng.randint(2 ** 25, 2 ** 27)
        i = 2 * blk
        coeffs[i:i + 2, i:i + 2, 0] = [[1, n], [n, n * n - 1]]
    return coeffs


def _fixture(k, seed=5):
    """k blocks [[1, n], [n, n^2 - 1]] at d = 2, n in [2^25, 2^27]: each
    has a small eigenvalue of about -1/n^2, out of reach of doubles."""
    return HermitianForm(2, 2 * k, _fixture_slices(k, seed))


def _mp_rung(h, prec, nullity=0):
    """The mp rung on the one matrix that `inertia` certifies for h, which
    holds `copies` copies of H: its counts are those of H times copies."""
    _, mp_fn, n, _, copies = _one_block(h)
    return certify.inertia_mp(mp_fn, n, prec, copies * nullity)


def _float_rung(h):
    """The double rung on each matrix that `inertia` certifies for h, each
    enclosed in doubles: their summed counts, copies times H's, or None if
    one is unresolved."""
    blocks, _ = tristram._enclosures(h)
    counts = [0, 0, 0]
    for float_fn, _, n, nullity in blocks:
        enc = float_fn()
        assert enc.mid.dtype == enc.rad.dtype == np.float64
        assert enc.mid.shape == (n, n)
        res = certify.inertia_via_congruence(enc, nullity)
        if res is None:
            return None
        counts = [c + x for c, x in zip(counts, (res.n_plus, res.n_zero,
                                                 res.n_minus))]
    return certify.Inertia(*counts)


def _integer_enclosure(c, rad=None):
    """enclosure_fn(prec) for inertia_mp: the given integer matrices
    (c, rad) of 2^prec H, with rad zero when not given."""
    c = np.array(c, dtype=object)
    rad = (np.zeros(c.shape, dtype=object) if rad is None
           else np.array(rad, dtype=object))
    return lambda prec: (c, rad)


def test_mp_rung_resolves_fixtures_at_128_bits():
    for k in range(1, 13):
        h = _fixture(k, seed=k)
        assert _float_rung(h) is None
        res = _mp_rung(h, 128)
        assert (res.n_plus, res.n_zero, res.n_minus) == (k, 0, k), k


def test_fixtures_stay_int64_and_resolve_at_128_bits(monkeypatch):
    # forms shaped like perfbench's fixtures, k = 1..12 blocks and one of 12
    # blocks at n = 2^27, whose entries reach (2^27)^2: certified under the
    # identity as K = 2H, their values stay int64, and each resolves at the
    # 128-bit rung, reached through its module attribute as perfbench
    # times it
    seen = []
    rung = certify.inertia_mp

    def recording(enclosure_fn, n, prec, nullity):
        seen.append(prec)
        return rung(enclosure_fn, n, prec, nullity)

    monkeypatch.setattr(certify, "inertia_mp", recording)
    top = 2 ** 27
    forms = [_fixture(k, seed=k) for k in range(1, 13)]
    forms.append(_block_diagonal([[[1, top], [top, top * top - 1]]] * 12))
    for h in forms:
        n = h.dimension
        assert h.coeffs.vals.dtype == np.int64, n
        (size, k), = tristram._real_slices(h.coeffs, n, np.arange(n), 2)
        assert size == n and k.vals.dtype == np.int64, n
        seen.clear()
        assert inertia(h) == certify.Inertia(n // 2, 0, n // 2), n
        assert seen == [128], n


def test_mp_rung_matches_counting_on_torus_forms():
    # on the reduced real form, and without the involution on the reduced
    # doubled form, which holds two copies of H
    for p, q, d in [(3, 7, 5), (4, 9, 7), (5, 8, 3)]:
        form = build_form(seifert_matrix(torus_braid(p, q)), d, source=(p, q))
        for h, copies in ((form, 1), (replace(form, involution=None), 2)):
            res = _mp_rung(h, 128)
            assert res.n_zero == 0
            assert res.signature == copies * sigma_d_counting(p, q, d), \
                (p, q, d, copies)


def test_mp_rung_counts_an_exact_nullity():
    # a zero block, a rank-one block and a fixture, with no torus source:
    # the nullity comes from exact cyclotomic elimination
    fix = _fixture(3)
    n = fix.dimension + 4
    coeffs = np.zeros((n, n, 3), dtype=np.int64)
    coeffs[2:4, 2:4, 0] = [[1, 1], [1, 1]]
    coeffs[4:, 4:] = _dense(fix)
    h = HermitianForm(2, n, coeffs)
    nullity = _nullity(h)
    assert nullity == 3
    res = _mp_rung(h, 128, nullity)
    assert (res.n_plus, res.n_zero, res.n_minus) == (4, 3, 3)
    assert _mp_rung(h, 128, nullity - 1) is None


def test_mp_rung_leaves_the_2_27_fixture_unresolved_below_128_bits():
    n = 2 ** 27
    coeffs = np.zeros((2, 2, 2), dtype=np.int64)
    coeffs[:, :, 0] = [[1, n], [n, n * n - 1]]
    h = HermitianForm(2, 2, coeffs)
    for prec in (32, 53, 64, 80):
        assert _mp_rung(h, prec) is None, prec
    res = _mp_rung(h, 128)
    assert (res.n_plus, res.n_zero, res.n_minus) == (1, 0, 1)


def test_mp_rung_honours_the_entry_radius():
    prec = 128
    one = 1 << prec

    def off_diagonal_in(lo, hi):
        # [[1, x], [x, 1]] for every x in [lo, hi] / 10, scaled by 2^prec
        mid, rad = (lo + hi) * one // 20, (hi - lo) * one // 20
        return _integer_enclosure([[one, mid], [mid, one]],
                                  [[0, rad], [rad, 0]])

    res = certify.inertia_mp(off_diagonal_in(2, 6), 2, prec, 0)
    assert (res.n_plus, res.n_zero, res.n_minus) == (2, 0, 0)
    # the midpoint 0.8 is positive definite, x = 1.4 is not
    assert certify.inertia_mp(off_diagonal_in(2, 14), 2, prec, 0) is None


def test_mp_rung_bounds_each_off_diagonal_modulus_from_above(monkeypatch):
    # With the basis helper replaced by one returning the integer identity,
    # the rung's integer matrix G is I, so its Gershgorin rows are those of
    # C = 2^prec H: C = [[c0, 7, -3], [7, 100, 0], [-3, 0, 100]].  Row 0's
    # off-diagonal moduli sum to 10 exactly, so at c0 = 10 the row's edge
    # touches zero and the row is not counted positive; a bound that read
    # the signed sum 4 would count it.  Any G is a valid congruence.
    prec = 128

    def form(c0):
        return _integer_enclosure([[c0, 7, -3], [7, 100, 0], [-3, 0, 100]])

    real = certify.inertia_mp(form(10), 3, prec, 0)
    assert (real.n_plus, real.n_zero, real.n_minus) == (3, 0, 0)
    monkeypatch.setattr(certify, "_pivoted_basis",
                        lambda c, bits: np.eye(3, dtype=int).astype(object))
    assert certify.inertia_mp(form(10), 3, prec, 0) is None
    res = certify.inertia_mp(form(11), 3, prec, 0)
    assert (res.n_plus, res.n_zero, res.n_minus) == (3, 0, 0)


def _block_diagonal(blocks):
    """The d = 2 form whose first slice is the direct sum of the given
    integer blocks (lists of rows), with no torus source."""
    n = sum(len(b) for b in blocks)
    coeffs = np.zeros((n, n, 2), dtype=np.int64)
    i = 0
    for b in blocks:
        coeffs[i:i + len(b), i:i + len(b), 0] = b
        i += len(b)
    return HermitianForm(2, n, coeffs)


def test_mp_rung_pivots_past_zero_and_small_diagonals():
    # hyperbolic blocks [[0, x], [x, 0]] and a small-diagonal one, (1, 0, 1)
    # each, an all-zero-diagonal 4 x 4 block of inertia (2, 0, 2), and a
    # fixture block: in all but the last, no diagonal entry is a usable
    # pivot until the rung's basis combines two rows and columns
    blocks = [[[0, x], [x, 0]] for x in (1, 3, 2 ** 20 + 7, 2 ** 40)]
    blocks += [[[1, 2 ** 40], [2 ** 40, 2]],
               [[0, 1, 1, 1], [1, 0, -1, 1], [1, -1, 0, 1], [1, 1, 1, 0]],
               _fixture_slices(1)[:, :, 0].tolist()]
    h = _block_diagonal(blocks)
    k = h.dimension // 2
    res = _mp_rung(h, 128)
    assert (res.n_plus, res.n_zero, res.n_minus) == (k, 0, k)
    # a zero block among them: its exact nullity, and no other count
    h = _block_diagonal(blocks[:2] + [[[0] * 3] * 3] + blocks[2:])
    nullity = _nullity(h)
    assert nullity == 3
    res = _mp_rung(h, 128, nullity)
    assert (res.n_plus, res.n_zero, res.n_minus) == (k, 3, k)
    assert _mp_rung(h, 128, nullity - 1) is None


def _exact_inertia(a):
    """(n_plus, n_zero, n_minus) of an integer symmetric matrix by an exact
    LDL^T over Fractions: Sylvester's law of inertia on its pivots.  With
    every remaining diagonal entry zero, "row and column j += row and
    column i" for a nonzero a_ij makes a_jj = 2 a_ij the pivot; a remaining
    zero block is the kernel."""
    a = [[Fraction(x) for x in row] for row in a]
    rest = list(range(len(a)))
    plus = minus = 0
    while rest:
        k = next((i for i in rest if a[i][i]), None)
        if k is None:
            pair = next(((i, j) for i in rest for j in rest if a[i][j]), None)
            if pair is None:
                break
            i, k = pair
            for r in rest:
                a[r][k] += a[r][i]
            for r in rest:
                a[k][r] += a[i][r]
        rest.remove(k)
        for r in rest:
            f = a[r][k] / a[k][k]
            for s in rest:
                a[r][s] -= f * a[k][s]
        plus += a[k][k] > 0
        minus += a[k][k] < 0
    return plus, len(rest), minus


@st.composite
def _symmetric_matrices(draw):
    """Integer symmetric matrices up to 8 x 8 with entries up to 2^30: dense
    ones, ones with a zero diagonal, and rank-deficient ones E^T B E with
    B symmetric r x r, r < n, and E of entries -1, 0, 1."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["dense", "zero-diagonal", "low-rank"]))
    top = draw(st.sampled_from([2, 2 ** 30]))
    if kind == "low-rank":
        r = draw(st.integers(0, n - 1))
        top = min(top, 2 ** 23)
        b = np.array(draw(st.lists(st.integers(-top, top), min_size=r * r,
                                   max_size=r * r)),
                     dtype=object).reshape(r, r)
        e = np.array(draw(st.lists(st.integers(-1, 1), min_size=r * n,
                                   max_size=r * n)),
                     dtype=object).reshape(r, n)
        return (e.T @ (b + b.T) @ e).tolist()
    v = np.array(draw(st.lists(st.integers(-top, top), min_size=n * n,
                               max_size=n * n)), dtype=object).reshape(n, n)
    m = np.triu(v) + np.triu(v, 1).T
    if kind == "zero-diagonal":
        np.fill_diagonal(m, 0)
    return m.tolist()


def _condition_number(a, nullity):
    """max |lambda| / min |lambda| over the nonzero eigenvalues of a, which
    has exactly `nullity` zero ones, from mpmath eigenvalues at 1024 bits."""
    from mpmath import mp

    with mp.workprec(1024):
        eig = sorted(abs(x) for x in mp.eigsy(mp.matrix(a),
                                              eigvals_only=True))
        return eig[-1] / eig[nullity]


@settings(max_examples=150, deadline=None)
@given(a=_symmetric_matrices())
def test_mp_rung_matches_an_exact_ldlt(a):
    # rad = 0 at 128 bits: the rung gives the exact counts, or None only
    # for a matrix whose condition number passes 2^100
    n, prec = len(a), 128
    plus, nullity, minus = _exact_inertia(a)
    c = np.array(a, dtype=object) << prec
    res = certify.inertia_mp(_integer_enclosure(c), n, prec, nullity)
    if res is None:
        assert nullity < n and _condition_number(a, nullity) > 2 ** 100, a
    else:
        assert (res.n_plus, res.n_zero, res.n_minus) == (plus, nullity, minus)


def test_the_certified_route_runs_without_mpmath():
    # mpmath is only the tests' oracle: with its import blocked, the
    # Hermitian route runs at d = 2, 3, 5, 7, a sourceless d = 3 fixture
    # goes past the double rung to the precision rung at 128 bits, and the
    # prime-signature demo runs to its end
    demo = SRC.parent / "demos" / "02_prime_signatures.py"
    script = (
        "import runpy, sys\n"
        "sys.modules['mpmath'] = None\n"
        "try:\n"
        "    import mpmath\n"
        "except ImportError:\n"
        "    print('blocked')\n"
        "import numpy as np\n"
        "from torustwist import (HermitianForm, TorusKnotParams, certify,\n"
        "                        inertia, tristram_sigma)\n"
        "print([tristram_sigma(TorusKnotParams(5, 8), d, method='hermitian')\n"
        "       for d in (2, 3, 5, 7)])\n"
        "bits = []\n"
        "rung = certify.inertia_mp\n"
        "certify.inertia_mp = lambda *args: (bits.append(args[2])\n"
        "                                    or rung(*args))\n"
        f"coeffs = np.array({_fixture_slices(3).tolist()}, dtype=np.int64)\n"
        "res = inertia(HermitianForm(3, 6, coeffs))\n"
        "print(res.n_plus, res.n_zero, res.n_minus, bits)\n"
        f"runpy.run_path({str(demo)!r}, run_name='__main__')\n")
    res = _run(script)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert lines[:3] == [
        "blocked", str([sigma_d_counting(5, 8, d) for d in (2, 3, 5, 7)]),
        "3 0 3 [128]"]
    assert lines[3] == "sigma_d(T(2,5)) is -4 at every prime d:"
    assert len(lines) > 10


def test_double_rung_stays_real_at_d2():
    form = build_form(seifert_matrix(torus_braid(5, 8)), 2, source=(5, 8))
    res = _float_rung(form)
    assert res.signature == sigma_d_counting(5, 8, 2)
    # every kind of form reaches the rung real: d = 2 with and without the
    # involution, the reduced form at d = 3, and the reduced doubled form
    # without the involution (`_float_rung` checks the dtypes)
    form3 = build_form(seifert_matrix(torus_braid(5, 8)), 3, source=(5, 8))
    for h in (form, form3):
        for inv in (h.involution, None):
            res = _float_rung(replace(h, involution=inv))
            copies = 2 if h.d > 2 and inv is None else 1
            assert res.signature == copies * sigma_d_counting(5, 8, h.d)


def test_double_rung_resolves_every_small_torus_form():
    # p < q <= 15 at every prime d <= 13, and T(31,37) at d = 5: the double
    # rung alone certifies each form's inertia, on the real reduced form at
    # d > 2 (the fixtures above are where it stops)
    cases = [(p, q, d) for p, q in coprime_range(14, 15)
             for d in (2, 3, 5, 7, 11, 13)] + [(31, 37, 5)]
    for p, q, d in cases:
        h = build_form(seifert_matrix(torus_braid(p, q)), d, source=(p, q))
        res = _float_rung(h)
        n, sig = h.dimension, sigma_d_counting(p, q, d)
        assert res == certify.Inertia((n + sig) // 2, 0, (n - sig) // 2), \
            (p, q, d)


def test_double_rung_honours_the_entry_radius():
    def off_diagonal_in(lo, hi):
        # [[1, x], [x, 1]] for every x in [lo, hi]
        x, r = (lo + hi) / 2, (hi - lo) / 2
        return certify.MRMatrix(np.array([[1.0, x], [x, 1.0]]),
                                np.array([[0.0, r], [r, 0.0]]))

    res = certify.inertia_via_congruence(off_diagonal_in(0.2, 0.6), 0)
    assert (res.n_plus, res.n_zero, res.n_minus) == (2, 0, 0)
    # the midpoint 0.8 is positive definite, x = 1.4 is not
    assert certify.inertia_via_congruence(off_diagonal_in(0.2, 1.4), 0) is None


def test_double_rung_on_an_empty_enclosure_reads_the_nullity():
    # a 0 x 0 form has nullity 0; any other nullity is unresolved, as at
    # every other size, not a certified Inertia(0, 0, 0)
    empty = certify.MRMatrix(np.zeros((0, 0)), np.zeros((0, 0)))
    assert certify.inertia_via_congruence(empty, 0) == certify.Inertia(0, 0, 0)
    assert certify.inertia_via_congruence(empty, 1) is None


def test_gershgorin_spread_covers_the_exact_off_diagonal_sum():
    # with diagonal 1 and off-diagonals 1e-17 a row sums to 1 in doubles,
    # so the row sum minus the diagonal would read 0, not 7e-17
    tiny = np.full((8, 8), 1e-17)
    np.fill_diagonal(tiny, 1.0)
    rng = np.random.default_rng(7)
    wide = rng.standard_normal((30, 30)) * 10.0 ** rng.integers(-20, 20,
                                                                (30, 30))
    for m in (tiny, wide + wide.T):
        spread = certify._gershgorin_spread(m, np.zeros(len(m)))
        for i, row in enumerate(m):
            exact = sum(Fraction(abs(x)) for j, x in enumerate(row) if j != i)
            assert Fraction(spread[i]) >= exact, i


def _merged_reference(lows, highs, nullity):
    """Inertia of the intervals by sorting them and merging them one by
    one, in plain Python: a run takes every interval whose low end is at
    most its high end so far.  None unless the runs meeting zero hold
    `nullity` intervals."""
    runs = []   # [low, high, size]
    for lo, hi in sorted(zip(lows, highs)):
        if runs and lo <= runs[-1][1]:
            runs[-1][1] = max(runs[-1][1], hi)
            runs[-1][2] += 1
        else:
            runs.append([lo, hi, 1])
    plus = sum(k for lo, _, k in runs if lo > 0)
    minus = sum(k for _, hi, k in runs if hi < 0)
    if len(lows) - plus - minus != nullity:
        return None
    return certify.Inertia(plus, nullity, minus)


def _count_against_reference(centers, radii, nullity):
    """The shared count on the diagonal m = diag(centers), whose intervals
    are centers +- `_gershgorin_spread(m, radii)`, checked against
    `_merged_reference` on those intervals; returns the count."""
    m, r = np.diag(centers), np.asarray(radii)
    spread = certify._gershgorin_spread(m, r)
    got = certify._gershgorin_count(m, r, nullity)
    assert got == _merged_reference(list(m.diagonal() - spread),
                                    list(m.diagonal() + spread), nullity)
    return got


def test_gershgorin_count_matches_a_sort_and_merge():
    # both rungs' count: the double rung's floats (intervals grown by 1 + g)
    # and the precision rungs' object arrays of Python ints (exact)
    big = 2 ** 70
    for dtype in (float, object):
        for nullity in (0, 1):
            got = _count_against_reference(np.zeros(0, dtype),
                                           np.zeros(0, dtype), nullity)
            assert got == (certify.Inertia(0, 0, 0) if nullity == 0
                           else None)
    # [-5, 1], [-4, -2], [1, 3]: the last low end equals the running high,
    # not the high of the interval before it, so all three form one run
    # meeting zero
    for scale in (1, big):
        c = np.array([-2, -3, 2], dtype=object) * scale
        r = np.array([3, 1, 1], dtype=object) * scale
        assert _count_against_reference(c, r, 3) == certify.Inertia(0, 3, 0)
        assert _count_against_reference(c, r, 2) is None
        # moved right by one, [2, 4] is a run of its own, right of zero
        c[2] += scale
        assert _count_against_reference(c, r, 2) == certify.Inertia(1, 2, 0)
    # point intervals: equal floats merge exactly
    c = np.array([-1.0, 2.0, -1.0, 2.0, 0.0])
    assert _count_against_reference(c, np.zeros(5), 1) == \
        certify.Inertia(2, 1, 2)
    # seeded random intervals, many of them touching; every nullity
    rng = random.Random(32)
    for _ in range(300):
        n = rng.randrange(13)
        c = [rng.randint(-12, 12) for _ in range(n)]
        r = [rng.choice((0, 0, 1, 2, 3, 5)) for _ in range(n)]
        cases = [(np.array(c, dtype=float), np.array(r, dtype=float)),
                 (np.array([x * big + rng.choice((0, rng.randrange(big)))
                            for x in c], dtype=object),
                  np.array([x * big for x in r], dtype=object))]
        for nullity in range(n + 1):
            for centers, radii in cases:
                _count_against_reference(centers, radii, nullity)


def test_row_radius_is_the_documented_chain():
    # With small nonnegative integers every product and sum below is exact
    # in doubles, so m is exact and r is the chain
    # (1+4g)^2 g |Q|^T |hq| 1 + (1+4g)^4 |Q|^T (g |H_mid| + rad_H) |Q| 1
    # up to the roundings of its few multiplications by g and 1 + 4g.
    rng = np.random.default_rng(5)
    n = 6
    q, mid, rad = (rng.integers(0, 10, (n, n)) for _ in range(3))
    g = Fraction(certify._gamma(n))
    up = 1 + 4 * g
    for rad_h in (rad, 0 * rad):
        m, r = certify._congruence(
            certify.MRMatrix(mid.astype(float), rad_h.astype(float)),
            q.astype(float))
        qo, ho, ro = (a.astype(object) for a in (q, mid, rad_h))
        assert np.array_equal(m, qo.T @ ho @ qo)
        c = qo.sum(axis=1)
        chain = qo.T @ (up ** 2 * g * (ho @ c) + up ** 4 * (g * (ho @ c)
                                                            + ro @ c))
        for got, want in zip(r, chain):
            assert abs(Fraction(got) - want) <= 8 * Fraction(2) ** -53 * want


def _dyadic(a):
    """(ai, s): an integer object array with a = ai / s exactly, s the least
    power of two that makes every entry an integer."""
    parts = [x.as_integer_ratio() for x in a.ravel().tolist()]
    s = max(den for _, den in parts)
    return np.array([num * (s // den) for num, den in parts],
                    dtype=object).reshape(a.shape), s


def _row_errors(q, m, c, rad, prec):
    """sum_j |Q^T H Q - m|_ij, bounded above one row at a time, over every
    H with |2^prec H - c| <= rad entrywise, with Q and m taken as exact."""
    z, dq = _dyadic(q)
    mi, dm = _dyadic(m)
    # P = Z^T c Z with Z = dq Q, as in inertia_mp
    p = z.T @ (c @ z)
    z_abs = np.abs(z)
    b = z_abs.T @ (rad @ z_abs.sum(axis=1))
    # unit (Q^T H Q - m) lies within x +- dm b
    unit = dq * dq << prec
    x = p * dm - mi * unit
    return [Fraction(sum(abs(v) for v in row) + dm * bi, unit * dm)
            for row, bi in zip(x, b)]


def test_row_radius_contains_the_exact_congruence():
    # a soundness check, not a tightness one: the true row errors here are
    # at most 0.2% of r, since the model bounds every rounding at its worst
    # torus forms at d = 2 (H), at d > 2 with their involution (K) and
    # without it (the doubled form's K), and fixtures
    forms = [build_form(seifert_matrix(torus_braid(p, q)), d, source=(p, q))
             for p, q in coprime_range(40, 41) if (p - 1) * (q - 1) <= 40
             for d in (2, 3, 5)]
    forms += [replace(h, involution=None) for h in forms if h.d > 2]
    forms += [_fixture(k, seed=k) for k in (1, 2, 3)]
    for h in forms:
        for float_fn, mp_fn, _, _ in tristram._enclosures(h)[0]:
            enc = float_fn()
            _, q = np.linalg.eigh(enc.mid)
            m, r = certify._congruence(enc, q)
            errors = _row_errors(q, m, *mp_fn(320), 320)
            assert all(e <= Fraction(x) for e, x in zip(errors, r)), \
                (h.source, h.d)


def test_double_rung_peak_memory():
    # one attempt on T(21, 26), n = 500, holds a few N x N arrays at once,
    # below 6 N^2 doubles, where N is the size of the certified matrix: each
    # half of the reduced form at d = 2, n for the reduced form at d = 3, 2n
    # for the reduced doubled form at d = 3 without the involution
    f = seifert_matrix(torus_braid(21, 26))
    for d, involution in ((2, f.involution), (3, f.involution), (3, None)):
        h = replace(build_form(f, d, source=(21, 26)), involution=involution)
        for float_fn, _, size, _ in tristram._enclosures(h)[0]:
            enc = float_fn()
            tracemalloc.start()
            try:
                certify.inertia_via_congruence(enc, 0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 6 * 8 * size ** 2, (d, size, peak)


def test_float_enclosure_peak_memory():
    # the enclosure of T(21, 26)'s certified matrix, of size N: each half of
    # the reduced form at d = 2, n for the reduced form at d = 3, 2n for the
    # reduced doubled form at d = 3 without the involution, holds its
    # midpoint, its radius and one scratch matrix: no N x N x 3 copy of the
    # slices
    f = seifert_matrix(torus_braid(21, 26))
    for d, involution in ((2, f.involution), (3, f.involution), (3, None)):
        h = replace(build_form(f, d, source=(21, 26)), involution=involution)
        for float_fn, _, size, _ in tristram._enclosures(h)[0]:
            float_fn()   # the weights are cached after the first call
            tracemalloc.start()
            try:
                float_fn()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 3.5 * 8 * size ** 2, (d, size, peak)


# The dense enclosure layer that the slices' nonzeros replaced, kept as the
# reference the sparse one must match bit for bit: the slice loop, the
# double enclosure and the real reduction, each on (n, n, 3) arrays.

def _dense_slice_sum(slices, mid, rad, dtype):
    c, r, t = (np.zeros(slices.shape[:2], dtype) for _ in range(3))
    for s in range(3):
        x = slices[:, :, s]
        np.multiply(x, mid[s], out=t, dtype=dtype, casting="unsafe")
        c += t
        np.abs(x, out=t, dtype=dtype, casting="unsafe")
        t *= rad[s]
        r += t
    return c, r


def _dense_float_enclosure(slices, d):
    mid, rad = [], []
    for m, r in zip(*tristram._weight_bounds(d, 80)):
        f = float(m)
        e = r + abs(m - int(f))
        mid.append(f * 2.0 ** -80)
        rad.append(((math.nextafter(e, math.inf) if e else 0.0)
                    + 8 * 2.0 ** -53 * abs(f)) * 2.0 ** -80)
    c, r = _dense_slice_sum(slices, mid, rad, np.float64)
    r += 1e-300
    return certify.MRMatrix(c, r)


def _dense_real_slices(coeffs, p):
    n = coeffs.shape[0]
    idx = np.arange(n)
    pairs = idx[idx < p]
    f, m = n - 2 * len(pairs), n - len(pairs)
    order = np.concatenate([idx[idx == p], pairs, p[pairs]])
    top = max(int(coeffs.max()), -int(coeffs.min())) if coeffs.size else 0
    dtype = object if top >= 2 ** 60 else np.int64
    y = [coeffs[:, :, s][order[:m]][:, order].astype(dtype, copy=False)
         for s in range(3)]
    out = np.zeros((n, n, 3), dtype=dtype)
    for s, x in enumerate((y[0], y[1] + y[2], y[1] - y[2])):
        plus = x[:, :m] + np.concatenate([x[:, :f], x[:, m:]], axis=1)
        minus = x[:, f:m] - x[:, m:]
        if s < 2:
            out[:m, :m, s] = plus
            out[m:, m:, s] = minus[f:]
        else:
            out[:m, m:, s] = -minus
            out[m:, :m, s] = plus[f:]
    return out


def _dense_certified(h, coeffs):
    """The dense slices of the one matrix that is certified for h, a form
    at d > 2 or without an involution, from h's dense slices coeffs: at
    d = 2 K = 2H under the identity, (2 C0, 2 (C1 + C2), 0) under the
    weights (1, -1, 0); at d > 2 K, of the doubled form when h has no
    involution."""
    if h.d == 2:
        c = coeffs.astype(object)
        return 2 * np.stack([c[:, :, 0], c[:, :, 1] + c[:, :, 2],
                             np.zeros_like(c[:, :, 0])], axis=-1)
    p = h.involution
    if p is None:
        n = h.dimension
        doubled = np.zeros((2 * n, 2 * n, 3), dtype=coeffs.dtype)
        doubled[:n, :n] = coeffs
        doubled[n:, n:] = coeffs[:, :, [0, 2, 1]]
        coeffs, p = doubled, np.concatenate([np.arange(n, 2 * n),
                                             np.arange(n)])
    return _dense_real_slices(coeffs, p)


def _assert_bit_identical(enc, want, case):
    for got, ref in ((enc.mid, want.mid), (enc.rad, want.rad)):
        assert got.dtype == ref.dtype == np.float64, case
        assert got.tobytes() == ref.tobytes(), case


def test_float_enclosure_is_bit_identical_to_the_dense_layer():
    # torus forms at d = 3, 5, 7 with their involution and without it (the
    # doubled form), and at d = 2 without it, from the dense V; the
    # widened reduced form past int64; object slices past int64; and
    # two-slice fixtures as perfbench builds them
    cases = []
    for p, q in coprime_range(14, 15):
        f = seifert_matrix(torus_braid(p, q))
        v = f.matrix
        dense = np.stack([v + v.T, -v, -v.T], axis=-1)
        for d in (3, 5, 7):
            h = build_form(f, d, source=(p, q))
            cases += [(h, dense), (replace(h, involution=None), dense)]
        cases.append((replace(build_form(f, 2, source=(p, q)),
                              involution=None), dense))
    n = 2 ** 31
    widened = np.zeros((2, 2, 3), dtype=np.int64)
    widened[:, :, 0] = [[1, n], [n, n * n - 1]]
    cases.append((HermitianForm(3, 2, widened, involution=np.arange(2)),
                  widened))
    for k in (1, 4, 12):
        given = _fixture_slices(k, seed=k)
        padded = np.concatenate([given, np.zeros_like(given[:, :, :1])],
                                axis=2)
        cases.append((HermitianForm(2, 2 * k, given), padded))
    for h, dense in cases:
        case = (h.source, h.d, h.involution is None, h.dimension)
        want_slices = _dense_certified(h, dense)
        float_fn, _, size, _, _ = _one_block(h)
        assert size == len(want_slices), case
        _assert_bit_identical(float_fn(), _dense_float_enclosure(
            want_slices, h.d), case)
        if h.d > 2 and h.involution is None:
            h = tristram._doubled(h)
        p = h.involution if h.involution is not None else np.arange(size)
        (_, k), = tristram._real_slices(h.coeffs, h.dimension, p, h.d)
        assert np.array_equal(k.dense(size), want_slices), case
    wide = np.array([[[2 ** 64 + 1, -(2 ** 63) - 7, 5],
                      [3, 2 ** 62, -(2 ** 65) + 3]]] * 2, dtype=object)
    slices = HermitianForm(2, 2, wide).coeffs
    assert slices.vals.dtype == object
    for d in (2, 3, 5, 7, 43):
        _assert_bit_identical(tristram._float_enclosure(slices, 2, d),
                              _dense_float_enclosure(wide, d), d)


def test_d2_reduced_form_splits_into_two_halves():
    # at d = 2 the weight of R2 is sin(pi) = 0 exactly, and R0 and R1 vanish
    # off K's diagonal blocks, so K = diag(K+, K-) and each half, K's slices
    # cut down to it, is certified apart; at d > 2 R2 couples them and K is
    # certified whole
    for p, q in coprime_range(9, 13):
        form = build_form(seifert_matrix(torus_braid(p, q)), 2, source=(p, q))
        n, inv = form.dimension, form.involution
        m = n - np.count_nonzero(np.arange(n) < inv)
        (size, whole), = tristram._real_slices(form.coeffs, n, inv, 3)
        assert size == n, (p, q)
        k = whole.dense(n)
        for block in (k[:m, m:], k[m:, :m]):
            assert not block[:, :, :2].any(), (p, q)
        assert not k[:m, :m, 2].any() and not k[m:, m:, 2].any(), (p, q)
        halves = tristram._real_slices(form.coeffs, n, inv, 2)
        assert len(halves) == 2, (p, q)
        for (size, half), (lo, hi) in zip(halves, ((0, m), (m, n))):
            assert size == hi - lo, (p, q)
            assert np.array_equal(half.dense(size), k[lo:hi, lo:hi]), (p, q)
        blocks, copies = tristram._enclosures(form)
        assert copies == 1
        assert [size for _, _, size, _ in blocks] == [m, n - m], (p, q)
        assert _float_rung(form).signature == sigma_d_counting(p, q, 2)
        for d in (3, 5):
            h = replace(form, d=d)
            assert [size for _, _, size, _ in tristram._enclosures(h)[0]] \
                == [n], (p, q, d)


def _swap_form(blocks, fixed, perm):
    """A sourceless d = 2 form with C0 = diag(blocks..., fixed) and C1 = C2
    = 0 under the involution swapping each 2 x 2 block's two indices, with
    rows and columns then renamed by perm."""
    n = 2 * len(blocks) + len(fixed)
    c = np.zeros((n, n, 3), dtype=np.int64)
    p = np.arange(n)
    for b, (x, y) in enumerate(blocks):
        i = 2 * b
        c[i:i + 2, i:i + 2, 0] = [[x, y], [y, x]]
        p[i], p[i + 1] = i + 1, i
    for t, x in enumerate(fixed):
        c[2 * len(blocks) + t, 2 * len(blocks) + t, 0] = x
    perm = np.asarray(perm)
    back = np.argsort(perm)
    # entry (a, b) moves to (perm[a], perm[b]), and P to perm P perm^-1
    return HermitianForm(2, n, c[back][:, back], involution=perm[p][back])


def test_a_sourceless_d2_form_gets_each_halfs_exact_nullity():
    # [[x, y], [y, x]] under the swap is x + y on u = e_a + e_b and x - y on
    # v = e_a - e_b, so [[1, 1], [1, 1]] puts a kernel vector in the v half
    # and [[1, -1], [-1, 1]] one in the u half; the whole form's nullity
    # given to each half would leave the other half unresolvable
    perm = [3, 0, 4, 1, 2]
    for blocks, halves, want in (
            ([(1, 1), (1, 3)], [0, 1], (2, 1, 2)),
            ([(1, -1), (1, 3)], [1, 0], (2, 1, 2))):
        h = _swap_form(blocks, [-3], perm)
        assert _nullity(h) == 1
        got = [nullity for _, _, _, nullity in tristram._enclosures(h)[0]]
        assert got == halves, blocks
        assert inertia(h) == certify.Inertia(*want), blocks
        assert inertia(replace(h, involution=None)) == \
            certify.Inertia(*want), blocks


def test_integer_layer_peak_memory():
    # the Seifert matrix, the form, its involution check and its real
    # reduction at T(2, 2049), n = 2048, work on the nonzeros: together they
    # stay below one dense int64 slice, 8 n^2 bytes
    b = torus_braid(2, 2049)
    tracemalloc.start()
    try:
        f = seifert_matrix(b)
        h = build_form(f, 2, source=(2, 2049))
        p = tristram._checked_involution(h)
        halves = tristram._real_slices(h.coeffs, h.dimension, p, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = f.dimension
    assert n == 2048 and sum(size for size, _ in halves) == n
    assert peak < 8 * n * n, peak


def test_form_rejects_non_integer_slices_also_under_O():
    # float, bool, complex and object-of-float slices used to be certified
    # as if they were integers; each is rejected at construction
    c = np.array([[0.5, 0.25], [0.25, -0.5]]).reshape(2, 2, 1)
    bad = [c, np.eye(2, dtype=bool).reshape(2, 2, 1), c.astype(complex),
           c.astype(object), np.array([[[1], [True]], [[True], [1]]],
                                      dtype=object),
           np.array([[[1.0], [0]], [[0], [1]]], dtype=object)]
    for coeffs in bad:
        with pytest.raises(DomainError, match="integer"):
            HermitianForm(2, 2, coeffs)
    with pytest.raises(DomainError, match="integer"):
        HermitianForm(2, 2, tristram.Slices(np.arange(2), np.arange(2),
                                            np.ones((3, 2))))
    # object arrays of Python ints past int64, and unsigned arrays, are
    # integer forms: [[1, x], [x, x^2 - 1]] has det -1
    x = 2 ** 40
    big = np.zeros((2, 2, 3), dtype=object)
    big[:, :, 0] = [[1, x], [x, x * x - 1]]
    assert inertia(HermitianForm(2, 2, big)) == certify.Inertia(1, 0, 1)
    top = np.array([[[2 ** 63 + 1]]], dtype=np.uint64)
    h = HermitianForm(2, 1, top)
    assert h.coeffs.vals.dtype == object and h.coeffs.vals[0, 0] == 2 ** 63 + 1
    assert inertia(h) == certify.Inertia(1, 0, 0)
    res = _run_O(
        "import numpy as np\n"
        "from torustwist import DomainError, HermitianForm\n"
        "c = np.array([[0.5, 0.25], [0.25, -0.5]]).reshape(2, 2, 1)\n"
        "try:\n"
        "    HermitianForm(2, 2, c)\n"
        "except DomainError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n")
    assert res.returncode == 0, res.stderr


def test_counting_matches_hermitian_on_range():
    for p, q in coprime_range(9, 11):
        for d in (2, 3, 5, 7):
            assert sigma_d_counting(p, q, d) == \
                tristram_sigma(K(p, q), d, method="hermitian"), (p, q, d)


def test_counting_matches_hermitian_large_spots():
    for p, q, d in [(7, 11, 3), (13, 17, 3), (13, 17, 5), (15, 19, 17),
                    (9, 11, 5), (9, 13, 7)]:
        assert sigma_d_counting(p, q, d) == \
            tristram_sigma(K(p, q), d, method="hermitian"), (p, q, d)


def test_counting_matches_brute():
    # every prime d <= 43 includes the d | p and d | q cases, where a window
    # edge passes through a column or row of the lattice
    primes = [d for d in range(2, 44) if is_prime(d)]
    for p, q in coprime_range(39, 40):
        for d in primes:
            assert sigma_d_counting(p, q, d) == \
                _sigma_counting_brute(p, q, d), (p, q, d)


def test_counting_d2_is_ordinary_signature():
    rng = random.Random(2024)
    sample = []
    while len(sample) < 40:
        p = rng.randrange(2, 10 ** 5)
        q = rng.randrange(p + 1, 3 * p + 2)
        if math.gcd(p, q) == 1:
            sample.append((p, q))
    for p, q in coprime_range(12, 25) + sample:
        assert sigma_d_counting(p, q, 2) == sigma_closed(K(p, q)), (p, q)


def _two_floor_sums(p, q, d):
    # the window count as both floor sums, on either side of i = ap/d
    a = d // 2
    m = (a * p - 1) // d
    lo = lattice.floor_sum(m, d * p, d * q, q * (a * p - d * m))
    hi = lattice.floor_sum(p - 1 - m, d * p, d * q,
                           q * (d * (m + 1) - a * p))
    return 2 * (lo + hi) - (p - 1) * (q - 1)


_SMALL_PRIMES = primes_upto(5000)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), p=st.integers(2, MAX_Q - 1),
       source=st.sampled_from(["two", "small", "factor of p", "factor of q"]))
def test_hermite_closed_sum_matches_two_floor_sums(data, p, source):
    # the kernel closes the second floor sum by Hermite's identity, with a
    # [d | p] correction: d | p on the "factor of p" draws, d does not
    # divide p on the "factor of q" ones
    q = data.draw(st.integers(p + 1, MAX_Q).filter(
        lambda q: math.gcd(p, q) == 1))
    d = data.draw(st.sampled_from({
        "two": [2], "small": _SMALL_PRIMES,
        "factor of p": trial_division_primes(p),
        "factor of q": trial_division_primes(q)}[source]))
    assert lattice._window_counts(p, q, [d]) == [_two_floor_sums(p, q, d)], \
        (p, q, d)


def _naive_floor_sum(n, m, a, b):
    return sum((a * i + b) // m for i in range(n))


@settings(max_examples=400, deadline=None)
@given(n=st.integers(0, 300), m=st.integers(1, 10 ** 6),
       a=st.integers(0, 10 ** 6), b=st.integers(0, 10 ** 7),
       d=st.integers(1, 10 ** 4))
def test_floor_sum_reduces_a_common_factor_of_its_moduli(n, m, a, b, d):
    # [(d*a*i + b)/(d*m)] = [(a*i + [b/d])/m]: the identity that lets every
    # prime's window count walk the Euclid chain of (p, q)
    assert lattice.floor_sum(n, m, a, b) == _naive_floor_sum(n, m, a, b)
    assert lattice.floor_sum(n, d * m, d * a, b) == \
        lattice.floor_sum(n, m, a, b // d) == \
        _naive_floor_sum(n, d * m, d * a, b)


def test_sweep_builds_one_chain_and_walks_it_once_per_prime(monkeypatch):
    builds, walks = [], []
    euclid_chain, walk = lattice._euclid_chain, lattice._walk

    def counted_chain(*args):
        builds.append(args)
        return euclid_chain(*args)

    def counted_walk(chain, *args):
        walks.append(chain)
        return walk(chain, *args)

    monkeypatch.setattr(lattice, "_euclid_chain", counted_chain)
    monkeypatch.setattr(lattice, "_walk", counted_walk)
    top = genus_cutoff(101, 203)
    result = sigma_d_sweep(K(101, 203), top)
    assert builds == [(101, 203)]
    assert len(walks) == len(result) == len(primes_upto(top))
    assert all(chain is walks[0] for chain in walks)
    for d in (2, 3, 7, 29, 101, 211):
        builds.clear()
        walks.clear()
        sigma_d_counting(101, 203, d)
        assert builds == [(101, 203)] and len(walks) == 1, d


def test_sweep_matches_enumeration_at_every_prime():
    # every prime d <= 43 includes each d | p and d | q, where a window edge
    # passes through a column or row of the lattice
    for p, q in coprime_range(39, 40):
        sweep = sigma_d_sweep(K(p, q), 43)
        assert list(sweep) == primes_upto(43)
        for d, s in sweep.items():
            assert s == lattice.sigma_d_enumerated(p, q, d), (p, q, d)


def test_window_boundary_detector_matches_enumeration():
    # The kernel raises when d(iq + jp) meets a*pq or (d+a)*pq inside the
    # box.  For prime d and coprime (p, q) that never happens, so compare
    # the O(log) detector with enumeration where it does: composite d, and
    # (p, q) with a common factor.
    hits = {"composite d": 0, "common factor": 0}
    for p in range(1, 19):
        for q in range(p + 1, 24):
            points = {i * q + j * p for i in range(1, p) for j in range(1, q)}
            for d in range(2, 17):
                a = d // 2
                for num in (a * p * q, (d + a) * p * q):
                    fast = num % d == 0 and _lattice_hit(p, q, num // d)
                    slow = any(d * x == num for x in points)
                    assert fast == slow, (p, q, d, num)
                    if fast:
                        kind = ("composite d" if not is_prime(d)
                                else "common factor")
                        hits[kind] += 1
                        assert kind == "composite d" or math.gcd(p, q) > 1
    assert hits["composite d"] > 0 and hits["common factor"] > 0
    # (6, 9) at d = 2: 2(1*9 + 3*6) = 54 = (2+1)*6*9, which the kernel
    # itself detects; sigma_d_counting rejects (p, q) with a common factor
    # before counting
    with pytest.raises(InternalCheckError):
        lattice._window_counts(6, 9, [2])
    for p, q, d in [(4, 6, 5), (6, 9, 5), (10, 15, 7), (6, 9, 2)]:
        with pytest.raises(DomainError):
            sigma_d_counting(p, q, d)


def test_prime_divisors_match_trial_division():
    for n in range(2, 20001):
        assert prime_divisors(n) == trial_division_primes(n), n
    for n in list(range(1, 200)) + [4096, 19997, 30030]:
        assert prime_divisors(n) == trial_division_primes(n), n


def test_primes_upto_match_trial_division():
    for n in [*range(-1, 200), 961, 1021, 1024, 20000]:
        assert primes_upto(n) == [d for d in range(n + 1) if is_prime(d)], n


def test_sweep_slices_the_prime_table_within_its_bound():
    # the table sieved at import is primes_upto(PRIME_TABLE_BOUND); at a top
    # on either side of the bound, and up to the first prime above it, the
    # sweep takes the same primes and values as a sieve of its own
    bound = lattice.PRIME_TABLE_BOUND
    assert list(lattice.PRIME_TABLE) == primes_upto(bound)
    assert len(lattice.PRIME_TABLE) == 564
    after = primes_upto(2 * bound)[len(lattice.PRIME_TABLE)]
    k = K(101, 203)
    values = {d: sigma_d(k, d) for d in primes_upto(after)}
    for top in (bound - 1, bound, bound + 1, after):
        for least in (2, 3, 4000, bound, top + 1, top + 2):
            want = [(d, values[d]) for d in primes_upto(top) if d >= least]
            assert list(sigma_d_sweep(k, top, least).items()) == want, (
                top, least)


def test_sweep_matches_sigma_d_at_every_prime_up_to_the_cutoff():
    for p, q in coprime_range(59, 60):
        top = genus_cutoff(p, q)
        primes = [d for d in range(2, top + 1) if is_prime(d)]
        for k in (K(p, q), K(-p, q), K(q, p)):
            want = {d: sigma_d(k, d) for d in primes}
            got = sigma_d_sweep(k, top)
            assert list(got.items()) == list(want.items()), k
            assert sigma_d_sweep(k, top, 3) == {d: want[d] for d in primes
                                                if d >= 3}, k
    assert sigma_d_sweep(K(5, 7), 1) == {}
    assert sigma_d_sweep(K(5, 7), 40, 41) == {}


@pytest.mark.parametrize("k", [K(1, 7), K(-1, 7), K(7, 1), K(0, 1), K(1, 1)])
def test_sweep_rejects_a_trivial_knot(k):
    with pytest.raises(DomainError):
        sigma_d_sweep(k, 10)


def test_odd_sigma_is_an_internal_check_error_also_under_O(monkeypatch):
    # -5 is odd; -2 is even but above the -4 bound, and T(5,7) is not T(2,3).
    # sigma_d_counting and sigma_d_sweep (classify's route) both read the
    # window count as the module global _window_counts
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for bad in (-5, -2):
        monkeypatch.setattr(lattice, "_window_counts",
                            lambda p, q, primes: [bad] * len(primes))
        with pytest.raises(InternalCheckError):
            tristram_sigma(K(5, 7), 3, method="counting")
        # the check must survive python -O, and the CLI maps it to exit 3
        script = (
            "import sys\n"
            "from torustwist import TorusKnotParams, cli, lattice, tristram\n"
            "from torustwist.errors import InternalCheckError\n"
            f"lattice._window_counts = lambda p, q, ds: [{bad}] * len(ds)\n"
            "try:\n"
            "    tristram.tristram_sigma(TorusKnotParams(5, 7), 3,\n"
            "                            method='counting')\n"
            "except InternalCheckError:\n"
            "    sys.exit(cli.main(['classify', '-p', '5', '-q', '7']))\n"
            "sys.exit(1)\n")
        res = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, timeout=60)
        assert res.returncode == 3, (bad, res.stderr)
        assert "internal consistency failure" in res.stderr


def test_sweep_check_names_the_first_bad_prime_also_under_O(monkeypatch):
    # the sweep tests all its values at once and, only when that fails,
    # checks them prime by prime; a bad value at the last prime (odd, or
    # even above the -4 bound), and at two primes, is reported at the
    # first bad one, in-process and under python -O
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    primes = primes_upto(13)
    for bad, at in [(-5, [-1]), (-2, [-1]), (-5, [2, 4]), (-2, [4, 2])]:
        values = [-10] * len(primes)
        for i in at:
            values[i] = bad
        first = primes[min(i % len(primes) for i in at)]
        monkeypatch.setattr(lattice, "_window_counts",
                            lambda p, q, ds, values=values: list(values))
        with pytest.raises(InternalCheckError, match=rf"sigma_{first}\("):
            sigma_d_sweep(K(5, 7), 13)
        script = (
            "from torustwist import TorusKnotParams, lattice\n"
            "from torustwist.errors import InternalCheckError\n"
            f"lattice._window_counts = lambda p, q, ds: {values}\n"
            "try:\n"
            "    lattice.sigma_d_sweep(TorusKnotParams(5, 7), 13)\n"
            "except InternalCheckError as e:\n"
            "    print(e)\n")
        res = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, timeout=60)
        assert res.returncode == 0, res.stderr
        assert res.stdout.startswith(f"sigma_{first}(T(5,7)) = {bad} "), (
            values, res.stdout)
    # every value valid: no error, and the mirror negates them all
    monkeypatch.setattr(lattice, "_window_counts",
                        lambda p, q, ds: [-10] * len(ds))
    assert sigma_d_sweep(K(-5, 7), 13) == dict.fromkeys(primes, 10)


def test_invariant_checks_survive_python_O():
    # one violated invariant per module; a bare assert would vanish under -O
    script = (
        "from types import SimpleNamespace\n"
        "from torustwist import certify, lattice, seifert, tristram\n"
        "from torustwist.errors import InternalCheckError\n"
        "seifert.closure_components = lambda b: 1\n"
        "checks = [\n"
        "    lambda: certify._gamma(2 ** 50),\n"
        "    lambda: lattice.sigma_oracle(SimpleNamespace(p=6, q=9)),\n"
        "    lambda: tristram._sigma_counting_brute(6, 9, 2),\n"
        "    lambda: seifert.seifert_matrix(seifert.BraidWord(3, (1, 1, 1))),\n"
        "]\n"
        "for i, check in enumerate(checks):\n"
        "    try:\n"
        "        check()\n"
        "    except InternalCheckError:\n"
        "        continue\n"
        "    raise SystemExit(f'check {i} did not raise')\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for flags in ([], ["-O"]):
        res = subprocess.run([sys.executable, *flags, "-c", script], env=env,
                             capture_output=True, text=True, timeout=60)
        assert res.returncode == 0, (flags, res.stderr)


def test_tristram_even():
    for p, q in coprime_range(7, 9):
        for d in (2, 3, 5, 7):
            assert tristram_sigma(K(p, q), d) % 2 == 0


def test_mirror_negates():
    assert tristram_sigma(K(5, -2), 3) == -tristram_sigma(K(2, 5), 3) == 4
    for k in (K(5, -2), K(-7, 5), K(-9, -13)):
        for d in (2, 3, 5):
            assert tristram_sigma(k, d, method="hermitian") == \
                tristram_sigma(k, d, method="counting"), (k, d)


def test_prop35_bound():
    for p, q in coprime_range(9, 11):
        if (p, q) == (2, 3):
            continue
        for d in (2, 3, 5, 7):
            assert prop35_bound_check(K(p, q), d)
    with pytest.raises(DomainError):
        prop35_bound_check(K(2, 3), 2)
    with pytest.raises(DomainError):
        prop35_bound_check(K(1, 5), 3)


def test_crossing_change_step_bound():
    # one positive-to-negative crossing change relates T(2,5) and T(2,3);
    # every d-signature moves by at most 2 and never increases
    for d in (2, 3, 5, 7, 11):
        lo = tristram_sigma(K(2, 5), d)
        hi = tristram_sigma(K(2, 3), d)
        assert lo <= hi <= lo + 2


def test_dispatcher_trivial():
    assert sigma_d(K(1, 7), 5) == 0
