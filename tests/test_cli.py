import concurrent.futures
import json
import os
import resource
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from torustwist import (DomainError, TorusKnotParams, certify, cli, classify,
                        tristram)
from torustwist.cli import (main, parse_scan_csv, render_scan_csv,
                            render_scan_json, scan_rows)
from torustwist.cli import MAX_SCAN_CELLS, MAX_SIGMA_DIM
from torustwist.obstruction import MAX_Q, certificate_to_dict, genus_cutoff

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_sigma_all_agrees(capsys):
    code, out, _ = run(capsys, "sigma", "-p", "5", "-q", "8", "--all")
    assert code == 0
    assert out.splitlines() == ["oracle: -20", "closed: -20", "seifert: -20"]


def test_sigma_trivial(capsys):
    code, out, _ = run(capsys, "sigma", "-p", "1", "-q", "5")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(capsys, "sigma", "-p", "1", "-q", "5", "--all")
    assert code == 0
    assert out.splitlines() == ["oracle: 0", "closed: 0", "seifert: 0"]


def test_sigma_mirror(capsys):
    code, out, _ = run(capsys, "sigma", "-p", "5", "-q", "-2", "--all")
    assert code == 0
    assert all(line.endswith(" 4") for line in out.splitlines())


def test_sigma_all_disagreement_is_an_internal_check_error(capsys,
                                                           monkeypatch):
    monkeypatch.setattr(cli, "sigma_closed", lambda k: -18)
    code, out, err = run(capsys, "sigma", "-p", "5", "-q", "8", "--all")
    assert code == 3 and "signature methods disagree" in err
    assert "closed: -18" in out


def test_invalid_input_exit_code(capsys):
    code, _, err = run(capsys, "sigma", "-p", "4", "-q", "6")
    assert code == 2 and "coprime" in err


def test_precision_exhaustion_exit_code(capsys, monkeypatch):
    # no rung resolves: the double rung gives up and the cap is below the
    # first precision rung at 128 bits.  The cache does not key on the cap, and
    # the --all tests may already hold T(5,8) at d = 2 there
    tristram._sigma_hermitian.cache_clear()
    monkeypatch.setattr(certify, "PRECISION_CAP", 64)
    monkeypatch.setattr(certify, "inertia_via_congruence", lambda h, z: None)
    code, out, err = run(capsys, "sigma", "-p", "5", "-q", "8",
                         "--method", "seifert")
    assert code == 4 and out == ""
    assert "precision exhausted" in err


def _cap_address_space():
    limit = 2 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("argv", [
    ["classify", "-p", "7", "-q", "1000000007"],
    ["classify", "-p", "-1000000007", "-q", "7", "--format", "json"],
    ["scan", "--p-min", "2", "--p-max", "3", "--q-min", "2",
     "--q-max", "1000000007"],
    ["sigma", "-p", "7", "-q", "100000007", "--method", "oracle"],
    ["sigma", "-p", "7", "-q", "100000007", "--method", "seifert"],
    ["sigma", "-p", "7", "-q", "-100000007", "--all"],
    ["sigma", "-p", "99999989", "-q", "100000007", "--method", "closed"],
    ["tables", "--which", "thm1.5", "--n-max", "1000000000"],
    ["tables", "--which", "example1.6", "--n-max", "1000000000"],
])
def test_hostile_q_is_rejected_before_allocating(argv):
    # in a child capped at 2 GB of address space: listing every candidate
    # (or every pair of the box) would fail with MemoryError, not exit 2
    res = _run_capped(argv)
    assert res.returncode == 2, res.stderr
    assert f"MAX_Q = {MAX_Q}" in res.stderr and res.stdout == ""


def _run_capped(argv):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "torustwist.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=60,
                          preexec_fn=_cap_address_space)


def test_hostile_scan_box_is_rejected_before_listing_pairs():
    # every bound is within MAX_Q, but the box has about 2^40 cells
    top = str(2 ** 20)
    res = _run_capped(["scan", "--p-min", "2", "--p-max", top,
                       "--q-min", "2", "--q-max", top])
    assert res.returncode == 2, res.stderr
    assert f"MAX_SCAN_CELLS = {MAX_SCAN_CELLS}" in res.stderr
    assert res.stdout == ""


def test_scan_over_the_work_bound_is_rejected_before_classifying():
    # 2^20 cells, within MAX_SCAN_CELLS, but each knot's genus cutoff is
    # about 2^20, so the cutoffs pass MAX_TABLE_OMEGAS after a few hundred
    # pairs; listing and classifying every pair would not fit the cap
    lo, hi = str(2 ** 20 - 1023), str(2 ** 20)
    res = _run_capped(["scan", "--p-min", lo, "--p-max", hi,
                       "--q-min", lo, "--q-max", hi])
    assert res.returncode == 2, res.stderr
    assert f"MAX_TABLE_OMEGAS = {cli.MAX_TABLE_OMEGAS}" in res.stderr
    assert res.stdout == ""


def test_scan_work_bound_sums_the_normalized_nontrivial_cutoffs(monkeypatch):
    # mirrors, trivial and exceptional knots; the sum taken from classify's
    # own normal forms
    box = ((-9, 9), (-3, 14))
    certs = [classify(TorusKnotParams(r["p"], r["q"]))
             for r in scan_rows(*box)]
    work = sum(genus_cutoff(c.normalized.p, c.normalized.q)
               for c in certs if not c.trivial)
    assert any(c.mirror for c in certs) and any(c.trivial for c in certs)
    monkeypatch.setattr(cli, "MAX_TABLE_OMEGAS", work)
    assert len(scan_rows(*box)) == len(certs)

    def classify_nothing(k):
        raise AssertionError(f"classified {k}")

    monkeypatch.setattr(cli, "MAX_TABLE_OMEGAS", work - 1)
    monkeypatch.setattr(cli, "classify", classify_nothing)
    with pytest.raises(DomainError, match="MAX_TABLE_OMEGAS"):
        scan_rows(*box)


def test_every_undecided_row_of_the_small_box_survives_only_at_the_cutoff():
    # p <= 60, q <= 120: every Undecided knot keeps exactly one candidate,
    # the largest w the genus bound allows
    rows = scan_rows((2, 60), (3, 120))
    for r in rows:
        if r["verdict"] == "Undecided":
            assert r["survivors"] == [[1, genus_cutoff(r["p"], r["q"])]], r
    assert Counter(r["verdict"] for r in rows) == {
        "NotInT": 2288, "TrivialOrExceptional": 713, "Undecided": 174}


def test_max_scan_cells_is_the_largest_accepted_box():
    # p > q everywhere, so the box lists its cells but holds no pair
    assert MAX_SCAN_CELLS == 1024 * 1024
    assert scan_rows((2000, 3023), (2, 1025)) == []
    with pytest.raises(DomainError):
        scan_rows((2000, 3024), (2, 1025))


def test_max_sigma_dim_is_the_largest_accepted_dimension(capsys):
    # T(2, 2049) has (p-1)(q-1) = 2^11; the oracle enumerates it at once
    assert MAX_SIGMA_DIM == 2048
    code, out, _ = run(capsys, "sigma", "-p", "2", "-q", "2049",
                       "--method", "oracle")
    assert code == 0 and out == "-2048\n"
    # T(2, 2051) is the smallest knot above it; the closed form still runs
    for argv in (["--method", "oracle"], ["--method", "seifert"], ["--all"]):
        code, out, err = run(capsys, "sigma", "-p", "2", "-q", "-2051", *argv)
        assert code == 2 and out == ""
        assert f"MAX_SIGMA_DIM = {MAX_SIGMA_DIM}" in err
    code, out, _ = run(capsys, "sigma", "-p", "2", "-q", "2051")
    assert code == 0 and out == "-2050\n"


def test_max_q_is_the_largest_accepted_q():
    top = MAX_Q
    # exceptional (q = 1 mod p), so classify returns without listing omegas
    assert classify(TorusKnotParams(top - 1, top)).exceptional
    with pytest.raises(DomainError):
        classify(TorusKnotParams(-(top + 1), top))
    with pytest.raises(DomainError):
        scan_rows((2, 3), (top, top + 1))


def test_classify_text(capsys):
    code, out, _ = run(capsys, "classify", "-p", "5", "-q", "8")
    assert code == 0
    assert "verdict: NotInT" in out


def test_classify_golden_text(capsys):
    code, out, _ = run(capsys, "classify", "-p", "5", "-q", "7")
    assert code == 0
    assert out == (DATA / "t57_certificate.txt").read_text()


@pytest.mark.parametrize("argv, golden", [
    # condition (iii), condition (iv) at many d, one kikuchi-no-square
    # and the genus tail
    (["-p", "79", "-q", "119", "--format", "json"], "t79_119_certificate.json"),
    # the paper's survivor omega = 17
    (["-p", "15", "-q", "19"], "t15_19_certificate.txt"),
    # a sequence ledger; the text form prints the path as given
    (["-p", "5", "-q", "8", "--sequence", "demos/t58_untwist.seq"],
     "t58_sequence_ledger.txt"),
    (["-p", "5", "-q", "8", "--sequence", "demos/t58_untwist.seq",
      "--format", "json"], "t58_sequence_ledger.json"),
])
def test_classify_golden_bytes(capsys, monkeypatch, argv, golden):
    # compared byte for byte, with no renderer or certificate_to_dict in
    # between; run from the repository root, where the paths above resolve
    monkeypatch.chdir(ROOT)
    code, out, _ = run(capsys, "classify", *argv)
    assert code == 0
    assert out.encode() == (DATA / golden).read_bytes()


def test_classify_with_sequence(capsys):
    code, out, _ = run(capsys, "classify", "-p", "5", "-q", "8",
                       "--sequence", str(DATA / "t58_untwist.seq"))
    assert code == 0
    assert "sequence-ledger:" in out
    assert "sigma(M)=1" in out and "-w^2+42" in out


# an untwisting sequence that starts at each normalized knot below
_UNTWIST = {
    (5, 8): (DATA / "t58_untwist.seq").read_text(encoding="utf-8"),
    (7, 4999): "start T(7,4999)\ntwist n=-714 w=7 -> T(7,1)\nend unknot\n",
    (7, 5001): "start T(7,5001)\ntwist n=-714 w=7 -> T(7,3)\n"
               "identify T(3,7)\ntwist n=-2 w=3 -> T(3,1)\nend unknot\n",
}


@pytest.mark.parametrize("p, q", [(5, 8), (-5, 8), (7, 4999), (7, 5001)])
@pytest.mark.parametrize("sequence", [False, True])
def test_classify_json_matches_the_dict_route(tmp_path, capsys,
                                              assert_same_text, p, q,
                                              sequence):
    argv = ["classify", "-p", str(p), "-q", str(q), "--format", "json"]
    cert = classify(TorusKnotParams(p, q))
    payload = certificate_to_dict(cert)
    if sequence:
        path = tmp_path / "untwist.seq"
        path.write_text(_UNTWIST[cert.normalized.p, cert.normalized.q],
                        encoding="utf-8")
        argv += ["--sequence", str(path)]
        payload["sequence_ledger"] = cli._sequence_report(str(path),
                                                          cert.normalized)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert_same_text(out, json.dumps(payload, indent=2) + "\n")
    assert list(json.loads(out))[-1] == ("sequence_ledger" if sequence
                                         else "notes")


def test_classify_bad_sequence_exit(tmp_path, capsys):
    bad = tmp_path / "bad.seq"
    bad.write_text("start T(5,8)\ntwist n=-1 w=5 -> T(5,4)\nend unknot\n")
    code, _, err = run(capsys, "classify", "-p", "5", "-q", "8",
                       "--sequence", str(bad))
    assert code == 2 and "line 2" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("p, q, path, message", [
    (5, 8, "/nonexistent.seq", "No such file"),
    (9, 13, str(DATA / "t58_untwist.seq"), "starts at T(5,8), not at T(9,13)"),
    (5, 8, str(DATA), "Is a directory"),
], ids=["missing-file", "other-knot", "directory"])
def test_classify_checks_the_sequence_before_writing(capsys, fmt, p, q, path,
                                                     message):
    code, out, err = run(capsys, "classify", "-p", str(p), "-q", str(q),
                         "--sequence", path, "--format", fmt)
    assert code == 2 and out == ""
    assert message in err


def test_an_oserror_writing_stdout_is_not_bad_input(monkeypatch):
    # only OSErrors from reading the --sequence file mean exit 2
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    with pytest.raises(BrokenPipeError):
        main(["classify", "-p", "5", "-q", "8",
              "--sequence", str(DATA / "t58_untwist.seq")])


def test_tables_thm13(capsys):
    code, out, _ = run(capsys, "tables", "--which", "thm1.3", "--n-max", "4",
                       "--format", "csv")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    ps = sorted(int(r.split(",")[1]) for r in rows)
    assert ps == [9, 11, 17, 19, 25, 27, 33, 35]
    assert all(r.endswith("NotInT") for r in rows)


def test_tables_json_rows_are_the_csv_rows(capsys):
    argv = ["tables", "--which", "thm1.3", "--n-max", "2", "--format"]
    code, out, _ = run(capsys, *argv, "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "torustwist-tables/1" and doc["table"] == "thm1.3"
    code, out, _ = run(capsys, *argv, "csv")
    assert code == 0
    header, *rows = out.splitlines()
    assert header == "family,p,q,verdict"
    assert [f"{r['family']},{r['p']},{r['q']},{r['verdict']}"
            for r in doc["rows"]] == rows


def test_tables_thm15_row(capsys):
    code, out, _ = run(capsys, "tables", "--which", "thm1.5", "--n-max", "1",
                       "--format", "csv")
    assert code == 0
    assert "r=4 n=1 p=2nr+1,9,13,NotInT" in out


@pytest.mark.parametrize("fmt", ["markdown", "json", "csv"])
@pytest.mark.parametrize("n_max", ["0", "-2"])
def test_tables_rejects_n_max_below_one(capsys, fmt, n_max):
    code, out, err = run(capsys, "tables", "--which", "thm1.3", "--n-max",
                         n_max, "--format", fmt)
    assert code == 2 and out == ""
    assert f"--n-max must be at least 1, got {n_max}" in err


@pytest.mark.parametrize("which, n_max", [
    ("thm1.3", "131072"), ("thm1.5", "200"), ("example1.6", "30000")])
def test_tables_row_above_max_q_is_rejected_before_classifying(
        capsys, monkeypatch, which, n_max):
    # each table first passes MAX_Q at the last n here, and no row is
    # classified
    def classify_nothing(k):
        raise AssertionError(f"classified {k}")

    monkeypatch.setattr(cli, "classify", classify_nothing)
    code, out, err = run(capsys, "tables", "--which", which, "--n-max", n_max)
    assert code == 2 and out == ""
    assert f"MAX_Q = {MAX_Q}" in err


@pytest.mark.parametrize("which, n_max", [
    ("thm1.3", "131071"), ("thm1.5", "180"), ("example1.6", "26213")])
def test_tables_over_the_work_bound_is_rejected_before_classifying(
        capsys, monkeypatch, which, n_max):
    # every row here passes MAX_Q, but the genus cutoffs sum past
    # MAX_TABLE_OMEGAS
    def classify_nothing(k):
        raise AssertionError(f"classified {k}")

    monkeypatch.setattr(cli, "classify", classify_nothing)
    code, out, err = run(capsys, "tables", "--which", which, "--n-max", n_max)
    assert code == 2 and out == ""
    assert f"MAX_TABLE_OMEGAS = {cli.MAX_TABLE_OMEGAS}" in err


def test_tables_thm13_reaches_max_q_at_its_last_accepted_n():
    assert cli._family_rows("thm1.3", 131071)[-1][1:] == (MAX_Q - 5,
                                                           MAX_Q - 1)


def test_scan_json_roundtrip(capsys):
    code, out, _ = run(capsys, "scan", "--p-min", "2", "--p-max", "6",
                       "--q-min", "3", "--q-max", "9", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "torustwist-scan/1"
    again = render_scan_json(payload["rows"], payload["config"])
    assert again == out
    t58 = [r for r in payload["rows"] if (r["p"], r["q"]) == (5, 8)]
    assert t58 and t58[0]["verdict"] == "NotInT" and t58[0]["sigma"] == -20


def test_scan_markdown_pins_the_normalized_sigma_of_a_mirror_row(capsys):
    code, out, _ = run(capsys, "scan", "--p-min", "-5", "--p-max", "-5",
                       "--q-min", "7", "--q-max", "9", "--format", "markdown")
    assert code == 0
    assert out == (
        "| p | q | exceptional | verdict | survivors | sigma |\n"
        "|---|---|-------------|---------|-----------|-------|\n"
        "| -5 | 7 | false | Undecided | 1:6 | -16 |\n"
        "| -5 | 8 | false | NotInT | - | -20 |\n"
        "| -5 | 9 | true | TrivialOrExceptional | - | -24 |\n")
    # sigma is the normalized knot's, T(5,8), not the mirror's
    code, out, _ = run(capsys, "sigma", "-p", "-5", "-q", "8")
    assert code == 0 and out == "20\n"
    row = scan_rows((-5, -5), (8, 8))[0]
    assert row["sigma"] == -20 == row["sigma_d_used"]["2"]


def test_scan_csv_roundtrip():
    rows = scan_rows((2, 6), (3, 9))
    text = render_scan_csv(rows)
    assert render_scan_csv(parse_scan_csv(text)) == text


@pytest.mark.parametrize("text", ["# torustwist-scan/1\n", "",
                                  "# torustwist-scan/1\n"
                                  "p,q,exceptional,verdict,survivors,sigma,"
                                  "sigma_d_used\n5,7,false,NotInT,-16\n"],
                         ids=["header-only", "empty", "short-row"])
def test_parse_scan_csv_rejects_short_input(text):
    with pytest.raises(ValueError):
        parse_scan_csv(text)


def test_scan_interrupt_writes_a_truncation_line(capsys, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "scan_rows", interrupted)
    code, out, _ = run(capsys, "scan", "--p-min", "2", "--p-max", "5",
                       "--q-min", "3", "--q-max", "8", "--format", "csv")
    assert code == 130 and out == "# scan truncated by interrupt\n"


def test_scan_exceptional_only(capsys):
    code, out, _ = run(capsys, "scan", "--p-min", "2", "--p-max", "2",
                       "--q-min", "3", "--q-max", "15", "--format", "csv")
    assert code == 0
    body = out.strip().splitlines()[2:]
    assert body and all(",TrivialOrExceptional," in line for line in body)


def test_scan_empty_box(capsys):
    code, out, _ = run(capsys, "scan", "--p-min", "9", "--p-max", "9",
                       "--q-min", "3", "--q-max", "6", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines()[2:] == []


def test_scan_parallel_matches_serial():
    a = scan_rows((2, 9), (3, 12), jobs=1)
    b = scan_rows((2, 9), (3, 12), jobs=4)
    assert a == b
    assert render_scan_csv(a) == render_scan_csv(b)


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_scan_rejects_jobs_below_one_before_listing_pairs(capsys, monkeypatch,
                                                          jobs):
    def list_nothing(p_range, q_range):
        raise AssertionError("listed pairs")

    monkeypatch.setattr(cli, "_scan_pairs", list_nothing)
    code, out, err = run(capsys, "scan", "--p-min", "2", "--p-max", "9",
                         "--q-min", "3", "--q-max", "12", "--jobs", jobs)
    assert code == 2 and out == ""
    assert f"--jobs must be at least 1, got {jobs}" in err


def test_scan_jobs_clamped_to_cpus_and_tasks(monkeypatch):
    seen = []

    chunks = []

    class FakePool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            chunks.append((len(tasks), chunksize))
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    # 4 CPUs in this process's affinity mask, on an 8-CPU host
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    serial = scan_rows((2, 9), (3, 12), jobs=1)
    assert scan_rows((2, 9), (3, 12), jobs=10 ** 6) == serial
    assert scan_rows((2, 2), (3, 5), jobs=10 ** 6) == scan_rows((2, 2), (3, 5))
    wide = scan_rows((2, 30), (3, 60), jobs=1)
    assert scan_rows((2, 30), (3, 60), jobs=3) == wide
    # 4 usable CPUs; the second box holds the 2 pairs (2, 3) and (2, 5)
    assert seen == [4, 2, 3]
    # about 16 chunks per worker, each of at least one pair: 769 pairs do
    # not fit 16 * 3 chunks of 16, so the chunks hold 17
    assert len(wide) == 16 * 3 * 16 + 1
    assert chunks == [(len(serial), 1), (2, 1), (len(wide), 17)]
    # a platform without an affinity mask falls back to the CPU count
    monkeypatch.delattr(cli.os, "sched_getaffinity")
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    assert scan_rows((2, 9), (3, 12), jobs=10 ** 6) == serial
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert scan_rows((2, 9), (3, 12), jobs=10 ** 6) == serial
    assert seen == [4, 2, 3, 3]


def test_scan_golden_csv():
    rows = scan_rows((2, 6), (3, 9))
    assert render_scan_csv(rows) == (DATA / "scan_small.csv").read_text()


def test_output_schema_literals(capsys):
    # one sigma_d route and no prime cap: the schemas' fixed values
    code, out, _ = run(capsys, "scan", "--p-min", "2", "--p-max", "5",
                       "--q-min", "3", "--q-max", "8", "--format", "json")
    assert code == 0
    assert json.loads(out)["config"] == {"p_range": [2, 5], "q_range": [3, 8],
                                         "sigma_method": "auto",
                                         "prime_cap": None}
    code, out, _ = run(capsys, "classify", "-p", "5", "-q", "8",
                       "--format", "json")
    assert code == 0 and json.loads(out)["sigma_method"] == "auto"
    code, out, _ = run(capsys, "classify", "-p", "5", "-q", "8")
    assert code == 0 and "\nsigma-method: auto\n" in out


@pytest.mark.parametrize("argv", [
    ["classify", "-p", "7", "-q", "1005", "--sigma-method", "hermitian"],
    ["classify", "-p", "5", "-q", "8", "--precision-bits", "64"],
    ["tables", "--which", "thm1.5", "--sigma-method", "auto"],
    ["scan", "--p-min", "2", "--p-max", "5", "--q-min", "3", "--q-max", "8",
     "--sigma-method", "counting"],
    ["scan", "--p-min", "2", "--p-max", "5", "--q-min", "3", "--q-max", "8",
     "--prime-cap", "3"],
    ["sigma", "-p", "5", "-q", "8", "--precision-bits", "64"],
])
def test_pipeline_has_no_sigma_route_or_cap_flags(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _readme_command_lines():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [line for line in block.splitlines()
            if line.startswith("torustwist ")]


def test_readme_command_lines_run(capsys, monkeypatch):
    lines = _readme_command_lines()
    assert len(lines) >= 5
    monkeypatch.chdir(ROOT)
    for line in lines:
        code = main(shlex.split(line, comments=True)[1:])
        out = capsys.readouterr()
        assert code == 0, (line, out.err)
        assert out.out, line


def test_output_digests_tool():
    # one line per command, each scan format's output does not depend on
    # --jobs, and the whole output equals the golden file byte for byte
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, str(ROOT / "tools" /
                                              "output_digests.py")],
                         env=env, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert len(lines) == 41
    digests = {}
    for line in lines:
        digest, sep, argv = line.partition("  ")
        assert sep and len(digest) == 64, line
        assert set(digest) <= set("0123456789abcdef"), line
        assert argv.split()[0] in ("classify", "scan", "tables", "sigma"), line
        digests[argv] = digest
    assert len(digests) == len(lines)
    scans = [a for a in digests if a.startswith("scan ")]
    assert len(scans) == 6
    for argv in scans:
        if argv.endswith("--jobs 1"):
            assert digests[argv] == digests[argv[:-1] + "2"], argv
    golden = (DATA / "output_digests.txt").read_bytes()
    assert lines == golden.decode().splitlines()
    assert res.stdout.encode() == golden
