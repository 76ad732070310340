import concurrent.futures
import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cutstock import cli
from cutstock.cli import aggregate_rows, main, read_bks

from conftest import DEMO_PLACEMENTS, DEMO_TEXT

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
    from cutstock.satcore import parse_wcnf, run_external

    sat_cnf = tmp_path / "k2.cnf"
    unsat_cnf = tmp_path / "k1.cnf"
    assert main(["encode", "--input", demo_file, "--sheets", "2", "--out", str(sat_cnf)]) == 0
    assert main(["encode", "--input", demo_file, "--sheets", "1", "--out", str(unsat_cnf)]) == 0
    for path, status in ((sat_cnf, "SAT"), (unsat_cnf, "UNSAT")):
        num_vars, _, _, _ = parse_wcnf(path.read_text())
        assert run_external(BRIDGE, str(path), num_vars).status == status


@pytest.mark.parametrize("limit", ["inf", "1e300"])
def test_solve_external_with_a_limit_too_long_to_wait_for(limit, tmp_path, capsys):
    # two 12x12 sheets tiled exactly; FFD needs three
    inst = tmp_path / "tiled.txt"
    inst.write_text("12 12\n7\n10 6 1\n12 4 1\n6 8 1\n12 3 2\n6 5 1\n6 3 1\n2 6 1\n")
    code = main(["solve", "--input", str(inst), "--strategy", "maxsat", "--time-limit", limit,
                 "--solver-cmd", BRIDGE])
    out = capsys.readouterr().out
    assert code == 0 and out.splitlines()[0] == "OPTIMAL k=2"
    assert "backend=external" in out


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
    """Two encodings give the same bytes, the second over a longer file
    that it replaces whole."""
    a = tmp_path / "a.cnf"
    b = tmp_path / "b.cnf"
    b.write_text("c stale\n" * 100_000)
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


@pytest.mark.parametrize("broken", ["instance file", "instance", "solution"])
def test_verify_and_render_refuse_unreadable_files_alike(broken, demo_file, tmp_path, capsys):
    sol = tmp_path / "s.sol"
    main(["solve", "--input", demo_file, "--out", str(sol)])
    capsys.readouterr()
    inst = demo_file
    if broken == "instance file":
        inst = str(tmp_path / "missing.txt")
    elif broken == "instance":
        inst = str(tmp_path / "bad.txt")
        Path(inst).write_text("6 4\n1\n9 9 1\n")  # fits no sheet
    else:
        sol.write_text("k 2\n")
    captured = []
    for command in (["verify"], ["render", "--out", str(tmp_path / "x")]):
        assert main(command + ["--input", inst, "--solution", str(sol)]) == 2
        captured.append(capsys.readouterr())
    assert captured[0] == captured[1]
    assert captured[0].out == "" and captured[0].err.startswith("error: ")
    assert captured[0].err.count("\n") == 1
    assert not list(tmp_path.glob("x_sheet*.svg"))


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


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_bench_dead_worker_gives_only_its_error_row(tmp_path, capsys, monkeypatch, jobs):
    """A worker that dies breaks its pool; the jobs that never ran with it
    run again and are solved, and only the job that killed it errs.  With
    one job at a time too: the dying job never takes bench down with it."""
    monkeypatch.setattr(cli, "_run_one", _die_on_crash_file)
    (tmp_path / "inst").mkdir()
    for name in ("crash", "d1", "d2", "d3"):
        (tmp_path / "inst" / f"{name}.txt").write_text(DEMO_TEXT)
    out_csv = tmp_path / "rows.csv"
    code = main([
        "bench", "--dir", str(tmp_path / "inst"), "--jobs", jobs,
        "--strategies", "sat", "--out-csv", str(out_csv),
    ])
    assert code == 1
    with open(out_csv, newline="") as fh:
        rows = [(r["instance"], r["status"], r["k"]) for r in csv.DictReader(fh)]
    assert rows == [("crash", "error", ""), ("d1", "opt", "2"), ("d2", "opt", "2"),
                    ("d3", "opt", "2")]
    assert "error: crash CSP: BrokenProcessPool" in capsys.readouterr().err


# optimum 2 (area 144 of two 12x12 sheets), FFD 3; a zero time limit keeps FFD's 3
NOT_SOLVED = "12 12\n7\n10 6 1\n12 4 1\n6 8 1\n12 3 2\n6 5 1\n6 3 1\n2 6 1\n"


@pytest.mark.parametrize("best_known, status, ttb, n_feas", [("3", "feas", "0.000", "1"),
                                                              ("2", "timeout", "", "0")])
def test_bench_rows_that_are_not_optimal(best_known, status, ttb, n_feas, tmp_path, capsys):
    """A run without a proof is feas when it matches the best known count,
    and otherwise timeout with its time-to-best cleared."""
    (tmp_path / "inst").mkdir()
    (tmp_path / "inst" / "t.txt").write_text(NOT_SOLVED)
    bks = tmp_path / "bks.csv"
    bks.write_text(f"t,{best_known}\n")
    out_csv = tmp_path / "rows.csv"
    code = main([
        "bench", "--dir", str(tmp_path / "inst"), "--bks", str(bks),
        "--strategies", "sat,inc", "--time-limit", "0", "--out-csv", str(out_csv),
    ])
    assert code == 0
    with open(out_csv, newline="") as fh:
        rows = [(r["instance"], r["config"], r["status"], r["k"], r["ttb"])
                for r in csv.DictReader(fh)]
    assert rows == [("t", "CSP", status, "3", ttb), ("t", "CSP_INC", status, "3", ttb)]
    lines = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines()[2:]}
    assert lines["CSP"][1:3] == lines["CSP_INC"][1:3] == ["0", n_feas]  # #Opt, #Feas


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_bench_refuses_fewer_than_one_job(jobs, tmp_path, capsys):
    (tmp_path / "inst").mkdir()
    (tmp_path / "inst" / "demo.txt").write_text(DEMO_TEXT)
    out_csv = tmp_path / "rows.csv"
    assert main(["bench", "--dir", str(tmp_path / "inst"), "--jobs", jobs,
                 "--out-csv", str(out_csv)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --jobs must be at least 1\n" and captured.out == ""
    assert not out_csv.exists()


def test_bench_empty_directory(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    assert main(["bench", "--dir", str(tmp_path / "empty")]) == 0


def test_bench_dir_that_is_not_a_directory(tmp_path, capsys):
    (tmp_path / "file.txt").write_text(DEMO_TEXT)
    for path in (tmp_path / "missing", tmp_path / "file.txt"):
        assert main(["bench", "--dir", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path} is not a directory\n" and captured.out == ""


HEADER = "instance,config,status,k,vars,clauses,ttb\n"
# rows files that bench --rows refuses: (text or None for no file, what its error names)
BAD_ROWS = {
    "missing file": (None, "No such file"),
    "missing columns": ("instance,config,k\na,CSP,2\n", "expected the columns " + HEADER[:-1]),
    "empty": ("", "expected the columns " + HEADER[:-1]),
    "word for k": (HEADER + "a,CSP,opt,two,1,1,0.1\n", "row 1: k 'two'"),
    "fraction for clauses": (HEADER + "a,CSP,error,,,,\nb,CSP,opt,2,1,1.5,0.1\n",
                             "row 2: clauses '1.5'"),
    "short row": (HEADER + "a,CSP,opt,2\n", "row 1: vars None"),
    "word for ttb": (HEADER + "a,CSP,opt,2,1,1,fast\n", "row 1: ttb 'fast'"),
    # past the csv module's field size limit of 131,072 characters
    "huge field": (HEADER + "a," + "x" * 200_000 + ",opt,2,1,1,0.1\n",
                   "line 2: field larger than field limit"),
}


@pytest.mark.parametrize("name", list(BAD_ROWS))
def test_bench_refuses_malformed_rows(name, tmp_path, capsys):
    text, message = BAD_ROWS[name]
    path = tmp_path / "rows.csv"
    if text is not None:
        path.write_text(text)
    assert main(["bench", "--rows", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(path) in captured.err and message in captured.err and captured.out == ""


def test_read_bks_skips_header(tmp_path):
    path = tmp_path / "b.csv"
    path.write_text("instance,bks\nfoo,3\n# comment,9\nbar,2\n")
    assert read_bks(str(path)) == {"foo": 3, "bar": 2}


def test_bench_bks_line_without_value(tmp_path, capsys):
    bks = tmp_path / "b.csv"
    bks.write_text("instance,bks\nfoo,3\ndemo\n")
    (tmp_path / "empty").mkdir()
    assert main(["bench", "--dir", str(tmp_path / "empty"), "--bks", str(bks)]) == 2
    assert f"error: {bks} line 3: expected instance,best-known-k" in capsys.readouterr().err


# ----------------------------------------------------------------------
# refusals: main ends each with one error line and exit 2

# {bad} is not UTF-8, {missing} lies in a directory that does not exist, {huge}
# has a field past the csv module's size limit
REFUSALS = [
    "solve --input {bad}",
    "verify --input {bad} --solution {sol}",
    "render --input {bad} --solution {sol} --out {out}",
    "verify --input {inst} --solution {bad}",
    "render --input {inst} --solution {bad} --out {out}",
    "solve --input {inst} --out {missing}",
    "solve --input {inst} --svg {missing}",
    "encode --input {inst} --sheets 2 --out {missing}",
    "render --input {inst} --solution {sol} --out {missing}",
    "bench --dir {dir} --out-csv {missing}",
    "bench --rows {huge}",
    "bench --dir {dir} --bks {huge}",
    "solve --input {inst} --time-limit nan",
    "solve --input {inst} --time-limit -1",
    "bench --dir {dir} --time-limit nan",
    "bench --dir {dir} --time-limit -1",
    "bench --dir {dir} --strategies sat,foo",
    "bench --dir {dir} --strategies sat,,inc",
]


@pytest.fixture
def refusal_paths(tmp_path):
    (tmp_path / "dir").mkdir()
    inst = tmp_path / "dir" / "demo.txt"
    inst.write_text(DEMO_TEXT)
    sol = tmp_path / "demo.sol"
    sol.write_text("2 6\n" + "".join(" ".join(map(str, p)) + "\n" for p in DEMO_PLACEMENTS))
    (tmp_path / "bad.txt").write_bytes(b"6 4\n1\n3 2 \xff\n")
    (tmp_path / "huge.csv").write_text(BAD_ROWS["huge field"][0])  # rows and BKS alike
    names = {"inst": inst, "sol": sol, "bad": tmp_path / "bad.txt", "dir": tmp_path / "dir",
             "out": tmp_path / "out", "missing": tmp_path / "missing" / "x",
             "huge": tmp_path / "huge.csv"}
    return {name: str(path) for name, path in names.items()}


def _no_job(pool, job):
    raise AssertionError(f"bench ran {job} before refusing")


def _no_solve(instance, **kwargs):
    raise AssertionError(f"solve ran {instance.name} before refusing")


def _no_encode(copies, instance, config):
    raise AssertionError(f"encode ran {instance.name} before refusing")


@pytest.mark.parametrize("command", REFUSALS)
def test_main_refuses_with_one_error_line(command, refusal_paths, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_pooled", _no_job)
    monkeypatch.setattr(cli, "solve_instance", _no_solve)
    monkeypatch.setattr(cli, "encode_formula", _no_encode)
    assert main([arg.format(**refusal_paths) for arg in command.split()]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify --input {inst} --solution {bad}",
                                     "bench --rows {bad}", "bench --dir {dir} --bks {bad}"])
def test_undecodable_file_is_named(command, refusal_paths, capsys, monkeypatch):
    """A file that is not UTF-8 text is refused by its path."""
    monkeypatch.setattr(cli, "_pooled", _no_job)
    assert main([arg.format(**refusal_paths) for arg in command.split()]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {refusal_paths['bad']} is not UTF-8 text: ")


def test_refusal_reaches_the_shell_without_traceback(refusal_paths):
    proc = subprocess.run([sys.executable, "-m", "cutstock", "solve", "--input",
                           refusal_paths["bad"]], capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("error", [RuntimeError, ValueError, KeyboardInterrupt])
def test_solver_errors_are_not_refusals(error, demo_file, tmp_path, monkeypatch):
    """Only input, output and arguments are refused: an error from solving
    a valid instance is a fault, and main lets it through.  A solve cut
    short leaves an existing --out file as it was."""
    def fail(*args, **kwargs):
        raise error("solver fault")

    out = tmp_path / "kept.sol"
    out.write_text("an earlier solution\n")
    monkeypatch.setattr(cli, "solve_instance", fail)
    with pytest.raises(error, match="solver fault"):
        main(["solve", "--input", demo_file, "--out", str(out)])
    assert out.read_text() == "an earlier solution\n"


class _AtMostTwoWorkers(concurrent.futures.ProcessPoolExecutor):
    """Records the pool size bench asks for, and starts at most two workers."""

    asked: list[int] = []

    def __init__(self, max_workers):
        self.asked.append(max_workers)
        super().__init__(max_workers=min(max_workers, 2))


def test_bench_starts_at_most_one_worker_per_job(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _AtMostTwoWorkers)
    monkeypatch.setattr(_AtMostTwoWorkers, "asked", [])
    (tmp_path / "inst").mkdir()
    (tmp_path / "inst" / "a.txt").write_text("3 3\n1\n3 3 2\n")
    (tmp_path / "inst" / "b.txt").write_text(DEMO_TEXT)
    (tmp_path / "empty").mkdir()
    for folder, rows in (("inst", 2), ("empty", 0)):
        assert main(["bench", "--dir", str(tmp_path / folder), "--jobs", "1000",
                     "--strategies", "sat"]) == 0
        table = capsys.readouterr().out.splitlines()
        assert table[0].startswith("Config") and len(table) == 2 + (rows > 0)
    assert _AtMostTwoWorkers.asked == [2, 1]
