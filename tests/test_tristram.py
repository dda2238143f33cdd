import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torustwist import (DomainError, HermitianForm, TorusKnotParams,
                        build_form, inertia, prop35_bound_check,
                        seifert_matrix, sigma_closed, sigma_d,
                        sigma_d_counting, sigma_oracle, torus_braid,
                        tristram_sigma)
from torustwist import certify, cyclotomic, tristram
from torustwist.errors import InternalCheckError, UndecidedSignError
from torustwist.tristram import (_lattice_hit, _sigma_counting_brute, is_prime,
                                 prime_divisors, primes_upto,
                                 smallest_prime_factors)

SRC = Path(__file__).resolve().parent.parent / "src"


def K(p, q):
    return TorusKnotParams(p, q)


def coprime_range(pmax, qmax):
    return [(p, q) for p in range(2, pmax + 1) for q in range(p + 1, qmax + 1)
            if math.gcd(p, q) == 1]


def test_build_form_d2_is_twice_symmetrization():
    f = seifert_matrix(torus_braid(2, 3))
    h = build_form(f, 2)
    # evaluate the slices C0 + z C1 + conj(z) C2 at z = -1
    c0, c1, c2 = np.moveaxis(h.coeffs, -1, 0)
    value = c0 - c1 - c2
    assert value.tolist() == (2 * f.symmetrized()).tolist()


def test_form_is_three_slices_and_rejects_other_shapes():
    f = seifert_matrix(torus_braid(3, 4))
    for d in filter(is_prime, range(2, 44)):
        assert build_form(f, d).coeffs.shape == (6, 6, 3), d
    # one slice, or two with C2 = 0, are forms too
    for k in (1, 2, 3):
        HermitianForm(5, 2, np.zeros((2, 2, k), dtype=np.int64))
    # a d-slice cube of powers of zeta is not a form of this layout
    for shape in [(2, 2, 5), (2, 2, 0), (2, 3, 3), (3, 3, 3), (2, 2), (2, 2, 3, 1)]:
        with pytest.raises(DomainError):
            HermitianForm(5, 2, np.zeros(shape, dtype=np.int64))


def test_build_form_rejects_composite():
    f = seifert_matrix(torus_braid(2, 3))
    with pytest.raises(DomainError):
        build_form(f, 4)
    with pytest.raises(DomainError):
        tristram_sigma(K(2, 5), 6)


def test_hermitian_route_rejects_composite_d_before_the_seifert_matrix(
        monkeypatch):
    calls = []
    monkeypatch.setattr(tristram, "seifert_matrix", calls.append)
    with pytest.raises(DomainError):
        tristram_sigma(K(31, 37), 4)
    assert calls == []


def test_float_enclosure_contains_every_exact_entry():
    from mpmath import mp

    for p, q in [(2, 5), (3, 7), (4, 5)]:
        f = seifert_matrix(torus_braid(p, q))
        for d in (2, 3, 5, 7, 43):
            h = build_form(f, d, source=(p, q))
            enc = tristram._float_enclosure(h)
            with mp.workprec(200):
                z = mp.expj(2 * mp.pi * h.a / d)
                roots = (1, z, mp.conj(z))
                for i in range(h.dimension):
                    for j in range(h.dimension):
                        exact = sum(int(c) * r
                                    for c, r in zip(h.coeffs[i, j], roots))
                        gap = abs(exact - mp.mpc(complex(enc.mid[i, j])))
                        assert gap <= enc.rad[i, j], (p, q, d, i, j)


# torus form slices do not depend on d, and every torus form is
# nonsingular at every prime d
_TORUS_SLICES = [build_form(seifert_matrix(torus_braid(p, q)), 2).coeffs
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
    assert cyclotomic.hermitian_nullity_exact(coeffs, d) == \
        sum(z for _, z in parts)


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
    assert sigma_d(K(5, 7), 3) == sigma_d(K(5, 7), 3, method="counting")
    for method in ("auto", "seifert"):
        with pytest.raises(ValueError):
            sigma_d(K(5, 7), 3, method=method)


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


def _fixture(k, seed=5):
    """k blocks [[1, n], [n, n^2 - 1]] at d = 2, n in [2^25, 2^27]: each
    has a small eigenvalue of about -1/n^2, out of reach of doubles."""
    rng = random.Random(seed)
    coeffs = np.zeros((2 * k, 2 * k, 2), dtype=np.int64)
    for blk in range(k):
        n = rng.randint(2 ** 25, 2 ** 27)
        i = 2 * blk
        coeffs[i:i + 2, i:i + 2, 0] = [[1, n], [n, n * n - 1]]
    return HermitianForm(2, 2 * k, coeffs)


def _mp_rung(h, prec, nullity=0):
    return certify.inertia_mp(tristram._mp_entry_fn(h), h.dimension, prec,
                              nullity)


def test_mp_rung_resolves_fixtures_at_128_bits():
    for k in range(1, 13):
        h = _fixture(k, seed=k)
        assert certify.inertia_via_congruence(
            tristram._float_enclosure(h), 0) is None
        res = _mp_rung(h, 128)
        assert (res.n_plus, res.n_zero, res.n_minus) == (k, 0, k), k


def test_mp_rung_matches_counting_on_torus_forms():
    for p, q, d in [(3, 7, 5), (4, 9, 7), (5, 8, 3)]:
        form = build_form(seifert_matrix(torus_braid(p, q)), d, source=(p, q))
        res = _mp_rung(form, 128)
        assert res.n_zero == 0
        assert res.signature == sigma_d_counting(p, q, d), (p, q, d)


def test_mp_rung_counts_an_exact_nullity():
    # a zero block, a rank-one block and a fixture, with no torus source:
    # the nullity comes from exact cyclotomic elimination
    fix = _fixture(3)
    n = fix.dimension + 4
    coeffs = np.zeros((n, n, 2), dtype=np.int64)
    coeffs[2:4, 2:4, 0] = [[1, 1], [1, 1]]
    coeffs[4:, 4:] = fix.coeffs
    h = HermitianForm(2, n, coeffs)
    nullity = tristram._nullity(h)
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
    from mpmath import iv

    def off_diagonal_in(lo, hi):
        # [[1, x], [x, 1]] for every x in [lo, hi]
        def entry(i, j):
            return (iv.mpf(1) if i == j else iv.mpf([lo, hi])), iv.mpf(0)
        return entry

    res = certify.inertia_mp(off_diagonal_in(0.2, 0.6), 2, 128, 0)
    assert (res.n_plus, res.n_zero, res.n_minus) == (2, 0, 0)
    # the midpoint 0.8 is positive definite, x = 1.4 is not
    assert certify.inertia_mp(off_diagonal_in(0.2, 1.4), 2, 128, 0) is None


def test_mp_rung_bounds_each_off_diagonal_modulus_from_above(monkeypatch):
    # With mp.eighe replaced by the basis 2^-prec * I, the rung's integer
    # matrix G is I, so its Gershgorin rows are those of C = 2^prec H:
    # C = [[c0, 7+8i, 3+10i], [7-8i, 100, 0], [3-10i, 0, 100]].  Row 0's
    # off-diagonal moduli are sqrt(113) + sqrt(109) = 21.07, but their
    # floors sum to 20, so at c0 = 21 the row's edge lies within n = 3
    # units of zero, and only the +1 on each floored modulus keeps the row
    # from being counted positive.  Any G is a valid congruence.
    from mpmath import iv, mp

    prec = 128

    def form(c0):
        c = [[c0, 7 + 8j, 3 + 10j], [7 - 8j, 100, 0], [3 - 10j, 0, 100]]

        def entry(i, j):
            z = complex(c[i][j]) * 2.0 ** -prec   # exact in a double
            return iv.mpf(z.real), iv.mpf(z.imag)
        return entry

    real = certify.inertia_mp(form(21), 3, prec, 0)
    assert (real.n_plus, real.n_zero, real.n_minus) == (3, 0, 0)
    monkeypatch.setattr(mp, "eighe",
                        lambda a: (None, mp.eye(3) * mp.mpf(2) ** -prec))
    assert certify.inertia_mp(form(21), 3, prec, 0) is None
    res = certify.inertia_mp(form(23), 3, prec, 0)
    assert (res.n_plus, res.n_zero, res.n_minus) == (3, 0, 0)


def test_mr_matmul_skips_only_zero_radius_products():
    rng = np.random.default_rng(3)

    def enclosure(exact):
        mid = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        rad = np.zeros((6, 6)) if exact else rng.random((6, 6)) * 1e-9
        return certify.MRMatrix(mid, rad)

    for a_exact in (False, True):
        for b_exact in (False, True):
            a, b = enclosure(a_exact), enclosure(b_exact)
            g = certify._gamma(6)
            am, bm = np.abs(a.mid), np.abs(b.mid)
            full = am @ b.rad + a.rad @ (bm + b.rad) + g * (am @ bm)
            full = full * (1.0 + 4.0 * g) + 16.0 * certify._TINY
            got = certify.mr_matmul(a, b)
            assert np.array_equal(got.mid, a.mid @ b.mid)
            assert np.allclose(got.rad, full, rtol=1e-14, atol=0)


def test_double_rung_stays_real_at_d2():
    form = build_form(seifert_matrix(torus_braid(5, 8)), 2, source=(5, 8))
    enc = tristram._float_enclosure(form)
    assert enc.mid.dtype == np.float64
    assert certify.MRMatrix.exact(np.eye(3)).mid.dtype == np.float64
    res = certify.inertia_via_congruence(enc, 0)
    assert res.signature == sigma_d_counting(5, 8, 2)
    form3 = build_form(seifert_matrix(torus_braid(5, 8)), 3, source=(5, 8))
    assert tristram._float_enclosure(form3).mid.dtype == np.complex128


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


def test_window_boundary_detector_matches_enumeration():
    # The kernel raises when d(iq + jp) meets a*pq or (d+a)*pq inside the
    # box.  For prime d and coprime (p, q) that never happens, so compare
    # the O(log) detector with enumeration where it does: composite d, and
    # (p, q) with a common factor.
    hits = {"composite d": 0, "common factor": 0}
    for p in range(1, 19):
        for q in range(p + 1, 24):
            lattice = {i * q + j * p for i in range(1, p) for j in range(1, q)}
            for d in range(2, 17):
                a = d // 2
                for num in (a * p * q, (d + a) * p * q):
                    fast = num % d == 0 and _lattice_hit(p, q, num // d)
                    slow = any(d * x == num for x in lattice)
                    assert fast == slow, (p, q, d, num)
                    if fast:
                        kind = ("composite d" if not is_prime(d)
                                else "common factor")
                        hits[kind] += 1
                        assert kind == "composite d" or math.gcd(p, q) > 1
    assert hits["composite d"] > 0 and hits["common factor"] > 0
    # (6, 9) at d = 2: 2(1*9 + 3*6) = 54 = (2+1)*6*9
    with pytest.raises(InternalCheckError):
        sigma_d_counting(6, 9, 2)


def test_prime_divisors_match_trial_division():
    def reference(n):
        out, f = [], 2
        while f * f <= n:
            if n % f == 0:
                out.append(f)
                while n % f == 0:
                    n //= f
            f += 1
        return out + [n] if n > 1 else out

    spf = smallest_prime_factors(20001)
    for n in range(2, 20001):
        assert prime_divisors(n, spf) == reference(n), n
    for n in list(range(1, 200)) + [4096, 19997, 30030]:
        assert prime_divisors(n) == reference(n), n


def test_primes_upto_match_trial_division():
    for n in [*range(-1, 200), 961, 1021, 1024, 20000]:
        assert primes_upto(n) == [d for d in range(n + 1) if is_prime(d)], n


def test_odd_sigma_is_an_internal_check_error_also_under_O(monkeypatch):
    # -5 is odd; -2 is even but above the -4 bound, and T(5,7) is not T(2,3)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for bad in (-5, -2):
        monkeypatch.setattr(tristram, "sigma_d_counting",
                            lambda p, q, d: bad)
        with pytest.raises(InternalCheckError):
            tristram_sigma(K(5, 7), 3, method="counting")
        # the check must survive python -O, and the CLI maps it to exit 3
        script = (
            "import sys\n"
            "from torustwist import cli, tristram\n"
            "from torustwist.errors import InternalCheckError\n"
            f"tristram.sigma_d_counting = lambda p, q, d: {bad}\n"
            "try:\n"
            "    tristram.tristram_sigma(tristram.TorusKnotParams(5, 7), 3,\n"
            "                            method='counting')\n"
            "except InternalCheckError:\n"
            "    sys.exit(cli.main(['classify', '-p', '5', '-q', '7']))\n"
            "sys.exit(1)\n")
        res = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, timeout=60)
        assert res.returncode == 3, (bad, res.stderr)
        assert "internal consistency failure" in res.stderr


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
