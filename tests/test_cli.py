import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from torustwist import DomainError, TorusKnotParams, cli, classify
from torustwist.cli import (main, parse_scan_csv, render_scan_csv,
                            render_scan_json, scan_rows)
from torustwist.cli import MAX_SCAN_CELLS
from torustwist.obstruction import MAX_Q, certificate_to_dict

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"


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


def test_invalid_input_exit_code(capsys):
    code, _, err = run(capsys, "sigma", "-p", "4", "-q", "6")
    assert code == 2 and "coprime" in err


def _cap_address_space():
    limit = 2 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("argv", [
    ["classify", "-p", "7", "-q", "1000000007"],
    ["classify", "-p", "-1000000007", "-q", "7", "--format", "json"],
    ["scan", "--p-min", "2", "--p-max", "3", "--q-min", "2",
     "--q-max", "1000000007"],
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


def test_max_scan_cells_is_the_largest_accepted_box():
    # p > q everywhere, so the box lists its cells but holds no pair
    assert MAX_SCAN_CELLS == 1024 * 1024
    assert scan_rows((2000, 3023), (2, 1025)) == []
    with pytest.raises(DomainError):
        scan_rows((2000, 3024), (2, 1025))


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


def test_classify_with_sequence(capsys):
    code, out, _ = run(capsys, "classify", "-p", "5", "-q", "8",
                       "--sequence", str(DATA / "t58_untwist.seq"))
    assert code == 0
    assert "sequence-ledger:" in out
    assert "sigma(M)=1" in out and "-w^2+42" in out


@pytest.mark.parametrize("p, q", [(5, 8), (-5, 8), (7, 4999), (7, 5001)])
@pytest.mark.parametrize("sequence", [False, True])
def test_classify_json_matches_the_dict_route(capsys, assert_same_text, p, q,
                                              sequence):
    argv = ["classify", "-p", str(p), "-q", str(q), "--format", "json"]
    payload = certificate_to_dict(classify(TorusKnotParams(p, q)))
    if sequence:
        path = str(DATA / "t58_untwist.seq")
        argv += ["--sequence", path]
        payload["sequence_ledger"] = cli._sequence_report(path)
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


def test_tables_thm13(capsys):
    code, out, _ = run(capsys, "tables", "--which", "thm1.3", "--n-max", "4",
                       "--format", "csv")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    ps = sorted(int(r.split(",")[1]) for r in rows)
    assert ps == [9, 11, 17, 19, 25, 27, 33, 35]
    assert all(r.endswith("NotInT") for r in rows)


def test_tables_thm15_row(capsys):
    code, out, _ = run(capsys, "tables", "--which", "thm1.5", "--n-max", "1",
                       "--format", "csv")
    assert code == 0
    assert "r=4 n=1 p=2nr+1,9,13,NotInT" in out


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


def test_scan_csv_roundtrip():
    rows = scan_rows((2, 6), (3, 9))
    text = render_scan_csv(rows)
    assert render_scan_csv(parse_scan_csv(text)) == text


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


def test_scan_jobs_clamped_to_cpus_and_tasks(monkeypatch):
    seen = []

    class FakePool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    serial = scan_rows((2, 9), (3, 12), jobs=1)
    assert scan_rows((2, 9), (3, 12), jobs=10 ** 6) == serial
    assert scan_rows((2, 2), (3, 5), jobs=10 ** 6) == scan_rows((2, 2), (3, 5))
    # 4 CPUs; the second box holds the 2 pairs (2, 3) and (2, 5)
    assert seen == [4, 2]


def test_scan_golden_csv():
    rows = scan_rows((2, 6), (3, 9))
    assert render_scan_csv(rows) == (DATA / "scan_small.csv").read_text()
