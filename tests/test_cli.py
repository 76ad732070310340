import csv
import os
import sys
from pathlib import Path

import pytest

from cutstock import cli
from cutstock.cli import aggregate_rows, main, read_bks

from conftest import DEMO_TEXT

DATA = Path(__file__).parent / "data"
BRIDGE = f"{sys.executable} -m cutstock.satcore.extsolver_cli {{input}}"


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.txt"
    path.write_text(DEMO_TEXT)
    return str(path)


def test_solve_optimal_exit_code(demo_file, tmp_path, capsys):
    out = tmp_path / "demo.sol"
    code = main(["solve", "--input", demo_file, "--strategy", "inc", "--sb",
                 "--out", str(out)])
    captured = capsys.readouterr().out
    assert code == 0
    assert captured.splitlines()[0] == "OPTIMAL k=2"
    assert "status=OPTIMAL" in captured and "config=CSP_INC_SB" in captured
    assert out.exists()
    verify_code = main(["verify", "--input", demo_file, "--solution", str(out)])
    assert verify_code == 0


def test_solve_maxsat(demo_file, capsys):
    code = main(["solve", "--input", demo_file, "--strategy", "maxsat"])
    assert code == 0
    assert "OPTIMAL k=2" in capsys.readouterr().out


def test_solve_feasible_exit_code(tmp_path, capsys):
    # open bound window plus a zero budget: best effort is the FFD packing
    inst = tmp_path / "gap.txt"
    inst.write_text("4 4\n3\n1 2 3\n1 4 1\n3 2 1\n")
    code = main(["solve", "--input", str(inst), "--time-limit", "0"])
    assert code == 10
    assert "FEASIBLE" in capsys.readouterr().out


def test_encode_to_bridge_round_trip(demo_file, tmp_path):
    from cutstock.satcore import run_external

    sat_cnf = tmp_path / "k2.cnf"
    unsat_cnf = tmp_path / "k1.cnf"
    assert main(["encode", "--input", demo_file, "--sheets", "2", "--out", str(sat_cnf)]) == 0
    assert main(["encode", "--input", demo_file, "--sheets", "1", "--out", str(unsat_cnf)]) == 0
    assert run_external(BRIDGE, str(sat_cnf)).status == "SAT"
    assert run_external(BRIDGE, str(unsat_cnf)).status == "UNSAT"


def test_solve_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("not an instance\n")
    assert main(["solve", "--input", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_solve_missing_file(capsys):
    assert main(["solve", "--input", "/nonexistent/x.txt"]) == 2


def test_encode_dimacs_header(demo_file, capsys):
    code = main(["encode", "--input", demo_file, "--sheets", "2"])
    out = capsys.readouterr().out
    assert code == 0
    header = out.splitlines()[0].split()
    assert header[:3] == ["p", "cnf", "122"]
    assert int(header[3]) == len(out.splitlines()) - 1


def test_encode_deterministic(demo_file, tmp_path):
    a = tmp_path / "a.cnf"
    b = tmp_path / "b.cnf"
    for target in (a, b):
        assert main(["encode", "--input", demo_file, "--sheets", "2", "--sb",
                     "--rotation", "--out", str(target)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_encode_wcnf_single_soft(demo_file, capsys):
    # window is [2, 2], so exactly one soft clause
    code = main(["encode", "--input", demo_file, "--sheets", "2", "--format", "wcnf"])
    out = capsys.readouterr().out
    assert code == 0
    header = out.splitlines()[0].split()
    assert header[:2] == ["p", "wcnf"]
    top = int(header[4])
    assert top == 2  # one unit-weight soft
    softs = [l for l in out.splitlines()[1:] if l.split()[0] != str(top)]
    assert len(softs) == 1


def test_encode_rejects_bad_sheet_count(demo_file):
    assert main(["encode", "--input", demo_file, "--sheets", "0"]) == 2


def test_verify_detects_tampering(demo_file, tmp_path, capsys):
    sol = tmp_path / "s.sol"
    main(["solve", "--input", demo_file, "--out", str(sol)])
    capsys.readouterr()
    text = sol.read_text().splitlines()
    # shove the second placement onto the first: same sheet, same x/y
    first = text[1].split()
    second = text[2].split()
    second[2:5] = first[2:5]
    text[2] = " ".join(second)
    sol.write_text("\n".join(text) + "\n")
    assert main(["verify", "--input", demo_file, "--solution", str(sol)]) == 1
    assert "OVERLAP" in capsys.readouterr().out


def test_verify_demand_violation(demo_file, tmp_path, capsys):
    sol = tmp_path / "s.sol"
    main(["solve", "--input", demo_file, "--out", str(sol)])
    capsys.readouterr()
    lines = sol.read_text().splitlines()
    # unparseable count -> exit 2
    sol.write_text("\n".join([lines[0]] + lines[2:]) + "\n")
    assert main(["verify", "--input", demo_file, "--solution", str(sol)]) == 2


def test_render_writes_svg_per_sheet(demo_file, tmp_path, capsys):
    sol = tmp_path / "s.sol"
    main(["solve", "--input", demo_file, "--out", str(sol)])
    capsys.readouterr()
    prefix = tmp_path / "demo"
    assert main(["render", "--input", demo_file, "--solution", str(sol),
                 "--out", str(prefix)]) == 0
    svg1 = (tmp_path / "demo_sheet1.svg").read_text()
    svg2 = (tmp_path / "demo_sheet2.svg").read_text()
    total_rects = svg1.count("<rect") + svg2.count("<rect")
    assert total_rects == 6 + 2  # one per copy plus one outline per sheet
    assert "<svg" in svg1 and 'version="1.1"' in svg1


def test_render_refuses_invalid(demo_file, tmp_path, capsys):
    sol = tmp_path / "s.sol"
    main(["solve", "--input", demo_file, "--out", str(sol)])
    capsys.readouterr()
    lines = sol.read_text().splitlines()
    first = lines[1].split()
    second = lines[2].split()
    second[2:5] = first[2:5]
    lines[2] = " ".join(second)
    sol.write_text("\n".join(lines) + "\n")
    assert main(["render", "--input", demo_file, "--solution", str(sol),
                 "--out", str(tmp_path / "x")]) == 1


def test_solve_svg_output(demo_file, tmp_path, capsys):
    code = main(["solve", "--input", demo_file, "--svg", str(tmp_path / "pic")])
    assert code == 0
    assert (tmp_path / "pic_sheet1.svg").exists()
    assert (tmp_path / "pic_sheet2.svg").exists()


# ----------------------------------------------------------------------
# bench


def test_bench_aggregates_fixture(capsys):
    code = main([
        "bench",
        "--rows", str(DATA / "published_norot_rows.csv"),
        "--bks", str(DATA / "bks.csv"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    lines = {line.split()[0]: line.split() for line in out.splitlines()[2:]}
    assert lines["CSP"][1:3] == ["15", "3"]
    assert lines["CSP_INC_SB"][1:3] == ["16", "3"]
    assert lines["CSP_MS"][1:3] == ["15", "0"]


def test_bench_gap_formula():
    rows = [
        {"instance": "a", "config": "CSP", "status": "timeout", "k": "3",
         "vars": "100", "clauses": "200", "ttb": ""},
    ]
    metrics = aggregate_rows(rows, {"a": 2})
    assert metrics[0].gap_percent == pytest.approx(50.0)
    assert metrics[0].n_opt == 0 and metrics[0].n_feas == 0
    assert metrics[0].avg_ttb is None


def test_bench_missing_bks_warns(capsys):
    rows = [
        {"instance": "a", "config": "CSP", "status": "opt", "k": "2",
         "vars": "1", "clauses": "1", "ttb": "0.5"},
        {"instance": "mystery", "config": "CSP", "status": "timeout", "k": "9",
         "vars": "1", "clauses": "1", "ttb": ""},
    ]
    metrics = aggregate_rows(rows, {"a": 2})
    err = capsys.readouterr().err
    assert "mystery" in err
    assert metrics[0].gap_percent == pytest.approx(0.0)


def test_bench_runs_directory(tmp_path, capsys):
    (tmp_path / "inst").mkdir()
    (tmp_path / "inst" / "tiny.txt").write_text("3 3\n1\n3 3 2\n")
    (tmp_path / "inst" / "demo.txt").write_text(DEMO_TEXT)
    bks = tmp_path / "bks.csv"
    bks.write_text("instance,bks\ntiny,2\ndemo2,2\n")
    out_csv = tmp_path / "rows.csv"
    code = main([
        "bench", "--dir", str(tmp_path / "inst"), "--bks", str(bks),
        "--strategies", "sat,inc", "--sb", "both", "--out-csv", str(out_csv),
    ])
    assert code == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 2 * 2  # instances x strategies x sb
    assert all(r["status"] == "opt" for r in rows)
    table = capsys.readouterr().out
    assert "CSP_INC_SB" in table


def test_bench_parallel_jobs(tmp_path, capsys):
    (tmp_path / "inst").mkdir()
    (tmp_path / "inst" / "a.txt").write_text("3 3\n1\n3 3 2\n")
    (tmp_path / "inst" / "b.txt").write_text(DEMO_TEXT)
    out_csv = tmp_path / "rows.csv"
    code = main([
        "bench", "--dir", str(tmp_path / "inst"), "--jobs", "2",
        "--strategies", "sat", "--out-csv", str(out_csv),
    ])
    assert code == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["instance"] for r in rows] == ["a", "b"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_bench_failing_job_gives_error_row(tmp_path, capsys, jobs):
    (tmp_path / "inst").mkdir()
    (tmp_path / "inst" / "demo.txt").write_text(DEMO_TEXT)
    (tmp_path / "inst" / "huge.txt").write_text("6 4\n1\n9 9 1\n")  # fits no sheet
    out_csv = tmp_path / "rows.csv"
    code = main([
        "bench", "--dir", str(tmp_path / "inst"), "--jobs", jobs,
        "--strategies", "sat,inc", "--out-csv", str(out_csv),
    ])
    assert code == 1
    with open(out_csv, newline="") as fh:
        rows = [(r["instance"], r["config"], r["status"], r["k"], r["vars"], r["clauses"])
                for r in csv.DictReader(fh)]
    assert rows == [
        ("demo", "CSP", "opt", "2", "0", "0"),
        ("demo", "CSP_INC", "opt", "2", "0", "0"),
        ("huge", "CSP", "error", "", "", ""),
        ("huge", "CSP_INC", "error", "", "", ""),
    ]
    out, err = capsys.readouterr()
    assert "InstanceError" in err
    assert "CSP: 1 errored runs left out" in err
    lines = {line.split()[0]: line.split() for line in out.splitlines()[2:]}
    assert lines["CSP"][1] == lines["CSP_INC"][1] == "1"  # the demo optimum counts


def _die_on_crash_file(job, run_one=cli._run_one):
    """Stands in for a bench job in a worker process: crash.txt kills its worker."""
    if Path(job[0]).stem == "crash":
        os._exit(3)
    return run_one(job)


def test_bench_dead_worker_gives_only_its_error_row(tmp_path, capsys, monkeypatch):
    """A worker that dies breaks its pool; the jobs that never ran with it
    run again and are solved, and only the job that killed it errs."""
    monkeypatch.setattr(cli, "_run_one", _die_on_crash_file)
    (tmp_path / "inst").mkdir()
    for name in ("crash", "d1", "d2", "d3"):
        (tmp_path / "inst" / f"{name}.txt").write_text(DEMO_TEXT)
    out_csv = tmp_path / "rows.csv"
    code = main([
        "bench", "--dir", str(tmp_path / "inst"), "--jobs", "2",
        "--strategies", "sat", "--out-csv", str(out_csv),
    ])
    assert code == 1
    with open(out_csv, newline="") as fh:
        rows = [(r["instance"], r["status"], r["k"]) for r in csv.DictReader(fh)]
    assert rows == [("crash", "error", ""), ("d1", "opt", "2"), ("d2", "opt", "2"),
                    ("d3", "opt", "2")]
    assert "error: crash CSP: BrokenProcessPool" in capsys.readouterr().err


def test_bench_empty_directory(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    assert main(["bench", "--dir", str(tmp_path / "empty")]) == 0


def test_read_bks_skips_header(tmp_path):
    path = tmp_path / "b.csv"
    path.write_text("instance,bks\nfoo,3\n# comment,9\nbar,2\n")
    assert read_bks(str(path)) == {"foo": 3, "bar": 2}
