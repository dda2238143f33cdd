import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from torustwist import (DomainError, HermitianForm, TorusKnotParams,
                        build_form, inertia, prop35_bound_check,
                        seifert_matrix, sigma_closed, sigma_d,
                        sigma_d_counting, sigma_oracle, torus_braid,
                        tristram_sigma)
from torustwist import tristram
from torustwist.errors import InternalCheckError, UndecidedSignError
from torustwist.tristram import (_lattice_hit, _sigma_counting_brute, is_prime,
                                 prime_divisors, smallest_prime_factors)

SRC = Path(__file__).resolve().parent.parent / "src"


def K(p, q):
    return TorusKnotParams(p, q)


def coprime_range(pmax, qmax):
    return [(p, q) for p in range(2, pmax + 1) for q in range(p + 1, qmax + 1)
            if math.gcd(p, q) == 1]


def test_build_form_d2_is_twice_symmetrization():
    f = seifert_matrix(torus_braid(2, 3))
    h = build_form(f, 2)
    # evaluate coefficients at zeta = -1
    value = h.coeffs[:, :, 0] - h.coeffs[:, :, 1]
    assert value.tolist() == (2 * f.symmetrized()).tolist()


def test_build_form_rejects_composite():
    f = seifert_matrix(torus_braid(2, 3))
    with pytest.raises(DomainError):
        build_form(f, 4)
    with pytest.raises(DomainError):
        tristram_sigma(K(2, 5), 6)


def test_t25_all_primes():
    for d in (2, 3, 5, 7, 11):
        assert tristram_sigma(K(2, 5), d) == -4


def test_t23_d3():
    assert tristram_sigma(K(2, 3), 3) == -2


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


def test_precision_cap_raises_undecided():
    n = 2 ** 27
    coeffs = np.zeros((2, 2, 2), dtype=np.int64)
    coeffs[:, :, 0] = [[1, n], [n, n * n - 1]]
    with pytest.raises(UndecidedSignError):
        inertia(HermitianForm(2, 2, coeffs), precision_cap=53)


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


def test_odd_sigma_is_an_internal_check_error_also_under_O(monkeypatch):
    monkeypatch.setattr(tristram, "sigma_d_counting", lambda p, q, d: -5)
    with pytest.raises(InternalCheckError):
        tristram_sigma(K(5, 7), 3, method="counting")
    # the check must survive python -O, and the CLI maps it to exit code 3
    script = (
        "import sys\n"
        "from torustwist import cli, tristram\n"
        "from torustwist.errors import InternalCheckError\n"
        "tristram.sigma_d_counting = lambda p, q, d: -5\n"
        "try:\n"
        "    tristram.tristram_sigma(tristram.TorusKnotParams(5, 7), 3,\n"
        "                            method='counting')\n"
        "except InternalCheckError:\n"
        "    sys.exit(cli.main(['classify', '-p', '5', '-q', '7']))\n"
        "sys.exit(1)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 3, res.stderr
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
