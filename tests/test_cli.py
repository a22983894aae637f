import gc
import inspect
import json
import tracemalloc
from math import comb

import pytest

from arclab import certifier, cli, gf
from arclab.arcgeom import TABLE_WORDS, ArcConfig, ArcInputError, InvariantError, complete_search
from arclab.cli import (
    ArcFileError,
    build_parser,
    cmd_analyze,
    cmd_bound,
    cmd_conjecture,
    cmd_cosecants,
    cmd_hypersurface,
    cmd_search,
    format_arc_file,
    main,
    parse_arc_file,
)
from arclab.exactmat import LeftNullBasis

from conftest import ARCS_DIR, prefix_arc, shuffled_nrc


def load(name):
    return (ARCS_DIR / name).read_text()


def strip_timings(report):
    if isinstance(report, dict):
        return {k: strip_timings(v) for k, v in report.items() if k != "timings"}
    if isinstance(report, list):
        return [strip_timings(v) for v in report]
    return report


def test_parse_round_trip():
    for name in [
        "q11_size7.arc",
        "q13_size6.arc",
        "q13_size9.arc",
        "q81_size11.arc",
        "conic_f5.arc",
        "hyperconic_f8.arc",
    ]:
        arc = parse_arc_file(load(name))
        text = format_arc_file(arc)
        again = parse_arc_file(text)
        assert again.points == arc.points
        assert again.ctx == arc.ctx
        # canonical text is a fixed point
        assert format_arc_file(again) == text


def test_parse_errors():
    with pytest.raises(ArcFileError):
        parse_arc_file("k 3\n1 0 0\n")
    with pytest.raises(ArcFileError):
        parse_arc_file("field 11 1\nk 3\n1 0\n")
    with pytest.raises(ArcFileError):
        parse_arc_file("field 11 1\nk 3\nt^44 0 0\n")
    with pytest.raises(ArcFileError):
        parse_arc_file("field 4 1\nk 3\n1 0 0\n")  # 4 not prime
    with pytest.raises(ArcFileError):
        # two proportional vectors: not an arc
        parse_arc_file("field 11 1\nk 3\n1 0 0\n2 0 0\n0 1 0\n")


def test_bad_k_line_is_an_arc_file_error(tmp_path, capsys):
    for line in ("k x", "k 3.0", "k -3"):
        with pytest.raises(ArcFileError, match="bad k line"):
            parse_arc_file(f"field 11 1\n{line}\n1 0 0\n")
    bad = tmp_path / "badk.arc"
    bad.write_text("field 11 1\nk x\n1 0 0\n")
    assert main(["analyze", str(bad), "--n", "0"]) == 2
    assert capsys.readouterr().err.strip() == "error: bad k line: 'k x'"


def test_modulus_override():
    text = "field 3 2\nk 3\nt^0 0 0\n0 t^0 0\n0 0 t^0\n"
    default = parse_arc_file(text)
    assert default.ctx.modulus == (1, 2, 2)
    forced = parse_arc_file(text, modulus=(1, 1, 2))
    assert forced.ctx.modulus == (1, 1, 2)


def test_cmd_analyze_q11():
    arc = parse_arc_file(load("q11_size7.arc"))
    rep = cmd_analyze(arc, 2)
    assert rep["shape"] == [21, 105]
    assert rep["rank"] == 20
    assert rep["full_row_rank"] == 21
    assert rep["weight_one"] is True
    assert rep["forbidden_size"] == 11


def test_cmd_analyze_negative_verdict_still_reports():
    arc = parse_arc_file(load("q13_size6.arc"))
    rep = cmd_analyze(arc, 0)
    assert rep["weight_one"] is False
    assert rep["forbidden_size"] is None


def test_cmd_bound():
    arc = parse_arc_file(load("q11_size7.arc"))
    rep = cmd_bound(arc)
    assert rep["n0"] == 2
    assert rep["largest_arc_bound"] == 10
    even = cmd_bound(prefix_arc(parse_arc_file(load("hyperconic_f8.arc")), 6))
    assert even["n0"] is None
    assert even["even_q_nullity_law"] is True


def test_cmd_cosecants_q13_size6():
    arc = parse_arc_file(load("q13_size6.arc"))
    rep = cmd_cosecants(arc, 2)
    assert rep["property_w"] is True
    assert rep["corollary2_route"] is True
    assert rep["theorem4_hypersurface_licensed"] is True  # 2*2 >= 6-3-1
    assert rep["all_split"] is True
    assert len(rep["predictions"]) == 6
    for item in rep["predictions"]:
        assert item["status"] == "ok"
        assert len(item["cosecants"]) == rep["t"] == 1


def test_cmd_cosecants_reports_the_search_on_the_nullity_one_route():
    # there the null vector has full support, so Property W holds; the
    # report is the one the search gives, and recovery reads the null vector
    cases = [(parse_arc_file(load("q13_size6.arc")), 2), (parse_arc_file(load("q81_size11.arc")), 1)]
    for arc, n in cases:
        w = certifier.property_w(certifier.build_Mn(arc, n))
        rep = cmd_cosecants(arc, n)
        assert rep["corollary2_route"] is True
        assert (rep["property_w"], rep["missing"]) == (w.holds, list(w.missing)) == (True, [])
        assert rep["route"] == "null-vector"
        assert len(rep["predictions"]) == comb(arc.size, arc.k - 2)


def test_internal_fault_exits_4(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise InvariantError("pencil has 13 members, not q+1 = 14")

    monkeypatch.setattr(certifier, "recover_cosecants", broken)
    assert main(["property-w", str(ARCS_DIR / "q13_size6.arc"), "--n", "2"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: pencil has 13 members, not q+1 = 14\n"


def test_cmd_cosecants_runs_property_w_once(monkeypatch):
    # the report makes the one Property W pass; recovery reads the null
    # vector and makes none
    calls = []
    partners = LeftNullBasis.partners
    monkeypatch.setattr(LeftNullBasis, "partners", lambda *args: calls.append(1) or partners(*args))
    arc = parse_arc_file(load("q13_size6.arc"))
    rep = cmd_cosecants(arc, 2)
    assert (rep["corollary2_route"], rep["route"], rep["all_split"]) == (True, "null-vector", True)
    assert len(calls) == 1
    certifier.recover_cosecants(certifier.build_Mn(arc, 2))
    assert len(calls) == 1
    calls.clear()
    # a weight-one vector there: Property W holds, but its zero null-basis
    # columns fix no ratio, so recovery is skipped and the verdict is the bound
    rep = cmd_cosecants(parse_arc_file(load("q11_size7.arc")), 2)
    assert (rep["corollary2_route"], rep["property_w"]) == (False, True)
    assert "route" not in rep and "predictions" not in rep
    assert rep["verdict"] == (
        "weight-one vector at row {0,1}: the arc cannot extend to size 11, "
        "and its ratios are not determined"
    )
    assert len(calls) == 1


def test_input_errors_exit_2(capsys, monkeypatch):
    q13 = str(ARCS_DIR / "q13_size6.arc")
    assert main(["search", q13, "--target", "16"]) == 2  # q+k-1 = 15
    assert capsys.readouterr().err == "error: target size 16 exceeds q+k-1\n"
    for target in ("-1", "3", "5"):  # below the six input points
        assert main(["search", q13, "--target", target]) == 2
        assert capsys.readouterr().err == f"error: target size {target} is below the input size 6\n"
    assert main(["search", q13, "--target", "6"]) == 0
    assert "1 arcs of size 6 contain the input" in capsys.readouterr().out
    assert main(["conjecture-scan", "--p", "7", "--k", "2", "--n", "1"]) == 2
    assert capsys.readouterr().err == "error: dimension k must be at least 3\n"
    # a negative n is refused before any search: over GF(3) the size 10 > q+k-1
    # once gave an empty scan that exited 0, and over GF(7) the size-6 search ran first
    def no_search(*args, **kwargs):
        raise AssertionError("the search ran before n was checked")

    monkeypatch.setattr(certifier, "complete_search", no_search)
    for p, k in (("3", "7"), ("7", "5")):
        assert main(["conjecture-scan", "--p", p, "--k", k, "--n", "-1"]) == 2
        assert capsys.readouterr().err == "error: need n >= 0, got n=-1\n"


def test_conjecture_scan_refuses_before_building_the_field(capsys, monkeypatch):
    # n < 0, k < 3 and an oversized hyperplane table need only p, h, k and
    # n: GF(1048573)'s tables once took 0.4 s before the table was refused.
    # Field errors still come first, with exit 2 where the table would exit 3
    def no_field(*args, **kwargs):
        raise AssertionError("the field's tables were built before the refusal")

    monkeypatch.setattr(cli, "FieldCtx", no_field)
    scan = ["conjecture-scan", "--p", "1048573"]
    assert main(scan + ["--k", "2000", "--n", "0"]) == 3
    assert capsys.readouterr().err == f"error: the hyperplane table of PG(1999, 1048573) exceeds {TABLE_WORDS} words\n"
    assert main(scan + ["--k", "2000", "--n", "-1"]) == 2
    assert capsys.readouterr().err == "error: need n >= 0, got n=-1\n"
    assert main(scan + ["--k", "2", "--n", "1"]) == 2  # PG(1, q)'s table is oversized too
    assert capsys.readouterr().err == "error: dimension k must be at least 3\n"
    for field, err in [
        (["--p", "4"], "4 is not prime"),
        (["--p", "7", "--h", "0"], "extension degree must be >= 1, got 0"),
        (["--p", "3", "--h", "13"], f"field order 3^13 exceeds table cap {gf.TABLE_CAP}"),
        (["--p", "7", "--h", "5"], "no built-in modulus for GF(7^5); supply one explicitly"),
    ]:
        assert main(["conjecture-scan", *field, "--k", "2000", "--n", "0"]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"


def test_modulus_x_of_gf3_exits_2(tmp_path, capsys):
    # over the modulus x, "GF(3)" had generator 0 and 1 * 2 = 1, and the
    # frame read as a complete arc of 3 points; over GF(3) it extends to 4
    frame = tmp_path / "frame.arc"
    frame.write_text("field 3 1 1 0\nk 3\n1 0 0\n0 1 0\n0 0 1\n")
    assert main(["search", str(frame)]) == 2
    assert capsys.readouterr().err == "error: modulus has constant term 0, so x is not a unit\n"
    frame.write_text("field 3 1\nk 3\n1 0 0\n0 1 0\n0 0 1\n")
    assert main(["--emit", "structured", "search", str(frame)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["complete_sizes"], rep["nodes"]) == ([4], 5)


def test_fields_past_the_table_cap_exit_2_before_a_primality_test(tmp_path, capsys, monkeypatch):
    # 3^10000 has more digits than an int may print, and trial division
    # of a 19-digit prime takes hours: the table cap refuses both first
    def no_trial_division(p):
        raise AssertionError("the primality test ran before the table cap")

    monkeypatch.setattr(gf, "_is_prime", no_trial_division)
    for head in ("field 3 10000", "field 1000000000000000003 1"):
        path = tmp_path / "big.arc"
        path.write_text(f"{head}\nk 3\n1 0 0\n0 1 0\n0 0 1\n")
        assert main(["analyze", str(path), "--n", "0"]) == 2
        assert capsys.readouterr().err == f"error: field order p^h exceeds table cap {gf.TABLE_CAP}\n"
    assert main(["conjecture-scan", "--p", "1000000000000000003", "--k", "3", "--n", "1"]) == 2
    assert main(["conjecture-scan", "--p", "3", "--h", "10000", "--k", "3", "--n", "1"]) == 2


def test_searches_past_the_table_cap_exit_3(capsys):
    assert main(["search", str(ARCS_DIR / "q81_size11.arc")]) == 3
    assert capsys.readouterr().err == f"error: the hyperplane table of PG(5, 81) exceeds {TABLE_WORDS} words\n"
    # PG(13, 13): the exhaustive search and the sampling both give up
    assert main(["conjecture-scan", "--p", "13", "--k", "14", "--n", "1"]) == 3
    assert "PG(13, 13)" in capsys.readouterr().err


def test_conjecture_scan_answers_before_building_the_frame(monkeypatch, capsys):
    # over GF(3) no arc of size 2k-3 = 3997 > q+k-1 exists, which
    # arithmetic alone decides: no 2000 x 2000 frame is built
    tracemalloc.start()
    try:
        rep = cmd_conjecture(3, 1, 2000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del rep["timings"]
    assert rep == {
        "schema_version": 1, "command": "conjecture-scan", "p": 3, "h": 1, "q": 3, "k": 2000, "n": 0,
        "arc_size": 3997, "conjectured_range": False, "mode": "exhaustive", "total": 0, "certified": 0,
        "fraction": 0.0, "counterexamples": [], "verdict": "no arc was scanned: no arc of size 3997 exists",
    }
    assert peak < 1 << 20
    # over GF(1048573) such arcs exist, but the table of PG(1999, q) is
    # refused (exit 3) before the frame is built
    def no_frame(*args, **kwargs):
        raise AssertionError("the frame was built before the table check")

    monkeypatch.setattr(certifier, "ArcConfig", no_frame)
    assert main(["conjecture-scan", "--p", "1048573", "--k", "2000", "--n", "0"]) == 3
    assert capsys.readouterr().err == f"error: the hyperplane table of PG(1999, 1048573) exceeds {TABLE_WORDS} words\n"


def test_bound_past_the_mn_cap_exits_3(tmp_path, capsys, F81):
    # at n = 0 the 17-point GF(81) curve arc at k = 6 needs a 29.5 M-cell
    # residual work array: once a MemoryError traceback (exit 1)
    path = tmp_path / "g17.arc"
    path.write_text(format_arc_file(ArcConfig(F81, 6, shuffled_nrc(F81, 6, 13)[:17], check=False)))
    assert main(["bound", str(path)]) == 3
    captured = capsys.readouterr()
    err = "error: M_0 of a 17-point arc at k=6 needs a table of 29475264 cells, over 16777216\n"
    assert (captured.out, captured.err) == ("", err)


@pytest.mark.parametrize("text,err", [
    ("field \u0661\u0663 1\nk 3\n1 0 0\n0 1 0\n0 0 1\n", "error: bad field line: 'field \u0661\u0663 1'\n"),
    ("field 13 1\nk \u0663\n1 0 0\n0 1 0\n0 0 1\n", "error: bad k line: 'k \u0663'\n"),
    ("field 13 1\nk 3\n\uff11 0 0\n0 1 0\n0 0 1\n", "error: '\uff11 0 0': cannot parse field element '\uff11'\n"),
    ("field 3 2\nk 3\nt^0 0 0\n0 t^0 0\n0 0 t^\uff11\n", "error: '0 0 t^\uff11': bad exponent in 't^\uff11'\n"),
], ids=["field-line", "k-line", "prime-field-element", "exponent"])
def test_non_ascii_decimal_digits_in_an_arc_file_exit_2(tmp_path, capsys, text, err):
    # str.isdecimal() holds for every Unicode decimal digit and int() reads
    # them all: 'field \u0661\u0663 1' once ran as GF(13), '\uff11' as 1
    path = tmp_path / "digits.arc"
    path.write_text(text, encoding="utf-8")
    assert main(["analyze", str(path), "--n", "0"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", err)


def test_non_ascii_decimal_digits_in_options_exit_2(capsys):
    # '1,\u0661\u0661' once read as the file's own modulus x - 2, and a
    # budget '\u0661\u0660' as 10
    q13 = str(ARCS_DIR / "q13_size6.arc")
    assert main(["analyze", q13, "--n", "2", "--modulus", "1,\u0661\u0661"]) == 2
    assert capsys.readouterr().err == "error: bad --modulus value '1,\u0661\u0661'\n"
    with pytest.raises(SystemExit) as exc:
        main(["search", q13, "--budget", "\u0661\u0660"])
    assert exc.value.code == 2
    assert "expected an integer >= 0, got '\u0661\u0660'" in capsys.readouterr().err


def test_other_value_errors_are_not_input_errors(monkeypatch):
    # a ValueError from a fault in the code is not reported as exit 2
    def broken(*args, **kwargs):
        raise ValueError("not an input error")

    monkeypatch.setattr(certifier, "build_Mn", broken)
    with pytest.raises(ValueError, match="not an input error"):
        main(["analyze", str(ARCS_DIR / "q11_size7.arc"), "--n", "2"])


def test_cmd_cosecants_missing_verdict():
    arc = parse_arc_file(load("q13_size9.arc"))
    rep = cmd_cosecants(arc, 3)
    assert rep["property_w"] is False
    assert "PropertyWMissing" in rep["verdict"]
    assert "predictions" not in rep


def test_cmd_hypersurface():
    rep = cmd_hypersurface(parse_arc_file(load("conic_f5.arc")))
    assert rep["parity"] == "odd"
    assert rep["theorem9_all"] is True
    assert rep["cosecant_zero_failures"] == 0
    rep8 = cmd_hypersurface(parse_arc_file(load("hyperconic_f8.arc")))
    assert rep8["parity"] == "even"
    assert rep8["degree"] == 0


def test_cmd_search():
    arc = parse_arc_file(load("q13_size6.arc"))
    rep = cmd_search(arc)
    assert {9, 10, 12, 14} <= set(rep["complete_sizes"])
    rep_t = cmd_search(parse_arc_file(load("q11_size7.arc")), target=11)
    assert rep_t["found"] == 0
    assert "exhaustive" in rep_t["verdict"]


def test_cmd_conjecture():
    rep = cmd_conjecture(5, 1, 3, 1)
    assert rep["total"] == rep["certified"]
    assert rep["fraction"] == 1.0


def test_conjecture_sampling_that_cannot_succeed_exits_3(capsys):
    # no 7-arc exists in V_3(F_5), so every random attempt stops short
    argv = ["conjecture-scan", "--p", "5", "--k", "3", "--n", "4", "--budget", "0", "--samples", "1"]
    assert main(argv) == 3
    assert "random point orders" in capsys.readouterr().err


def test_empty_conjecture_scan_says_no_arc_was_scanned(capsys):
    # over GF(3) no arc of size 6 > q+k-1 = 5 exists, and the search finds
    # none of size 5; a sampled scan of 0 samples scans nothing either
    cases = [
        (["--p", "3", "--k", "3", "--n", "3"], "exhaustive", "no arc was scanned: no arc of size 6 exists"),
        (["--p", "3", "--k", "3", "--n", "2"], "exhaustive", "no arc was scanned: no arc of size 5 exists"),
        (["--p", "5", "--k", "3", "--n", "2", "--budget", "0", "--samples", "0"], "sampled",
         "no arc was scanned: none was sampled"),
    ]
    for argv, mode, verdict in cases:
        assert main(["--emit", "structured", "conjecture-scan", *argv]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert (rep["mode"], rep["total"], rep["verdict"]) == (mode, 0, verdict)


def test_negative_counts_are_usage_errors(capsys):
    q13 = str(ARCS_DIR / "q13_size6.arc")
    scan = ["conjecture-scan", "--p", "5", "--k", "3", "--n", "2"]
    for argv in (["search", q13, "--budget", "-1"], scan + ["--samples", "-1"], scan + ["--budget", "-1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "expected an integer >= 0, got '-1'" in capsys.readouterr().err
    # 0 stays a valid budget: the search exceeds it at once
    assert main(["search", q13, "--budget", "0"]) == 3
    assert capsys.readouterr().err == "error: search exceeded 0 nodes\n"


def test_report_determinism():
    arc = parse_arc_file(load("q13_size6.arc"))
    a = strip_timings(cmd_cosecants(arc, 2))
    b = strip_timings(cmd_cosecants(parse_arc_file(load("q13_size6.arc")), 2))
    assert a == b
    assert json.dumps(a) == json.dumps(b)


def test_main_exit_codes(tmp_path, capsys):
    q11 = str(ARCS_DIR / "q11_size7.arc")
    assert main(["analyze", q11, "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "rank: 20" in out
    # negative verdict still exits 0
    assert main(["analyze", q11, "--n", "0"]) == 0
    capsys.readouterr()
    # structured emit is valid JSON
    assert main(["--emit", "structured", "analyze", q11, "--n", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["rank"] == 20
    assert data["schema_version"] == 1
    # operational errors exit 2
    assert main(["analyze", str(tmp_path / "missing.arc"), "--n", "1"]) == 2
    assert main(["analyze", q11, "--n", "9"]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.arc"
    bad.write_text("field 11 1\nk 3\n1 0 0\n2 0 0\n0 1 0\n")
    assert main(["analyze", str(bad), "--n", "0"]) == 2
    # budget exhaustion exits 3
    q13 = str(ARCS_DIR / "q13_size6.arc")
    assert main(["search", q13, "--budget", "2"]) == 3
    capsys.readouterr()
    # cosecants alias works
    assert main(["cosecants", q13, "--n", "2"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("text,err", [
    ("field 5 1\nk 3\n1 0 0\n0 1 0\n0 0 \u00b2\n", "error: '0 0 \u00b2': cannot parse field element '\u00b2'\n"),
    ("field 3 2\nk 3\nt^0 0 0\n0 t^0 0\n0 0 t^\u00b2\n", "error: '0 0 t^\u00b2': bad exponent in 't^\u00b2'\n"),
    ("field 5 1\nk \u00b3\n1 0 0\n0 1 0\n0 0 1\n", "error: bad k line: 'k \u00b3'\n"),
], ids=["prime-field-element", "exponent", "k-line"])
def test_superscript_digits_in_an_arc_file_exit_2(tmp_path, capsys, text, err):
    # '\u00b2'.isdigit() holds but int() rejects it: such a number is a
    # syntax error of the file, not a traceback
    path = tmp_path / "sup.arc"
    path.write_text(text, encoding="utf-8")
    assert main(["analyze", str(path), "--n", "0"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", err)


@pytest.mark.parametrize("field", ["field 1_1 1", "field +11 1", "field 11 0_1"])
def test_signs_and_underscores_in_the_field_line_exit_2(tmp_path, capsys, field):
    # int() takes '1_1' as 11 and '+11' as 11: each of these once ran as GF(11)
    path = tmp_path / "f.arc"
    path.write_text(f"{field}\nk 3\n1 0 0\n0 1 0\n0 0 1\n1 1 1\n")
    assert main(["bound", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: bad field line: {field!r}\n")


@pytest.mark.parametrize("modulus", ["1_0 2", "+1,11"])
def test_signs_and_underscores_in_the_modulus_option_exit_2(capsys, modulus):
    # '+1,11' would read as the file's own modulus x - 2 of GF(13)
    q13 = str(ARCS_DIR / "q13_size6.arc")
    assert main(["analyze", q13, "--n", "2", "--modulus", modulus]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: bad --modulus value {modulus!r}\n")


def test_main_bound_on_fewer_than_k_points_exits_2(tmp_path, capsys):
    two = tmp_path / "two.arc"
    two.write_text("field 13 1\nk 3\n1 0 0\n0 1 0\n")
    assert main(["bound", str(two)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need |G| >= k, got |G|=2, k=3\n"


# every subcommand and alias: its arc (None for conjecture-scan), its
# options, and the cmd_* call main must make for it
MAIN_CASES = [
    ("analyze", "q11_size7", ["--n", "2"], lambda arc: cmd_analyze(arc, 2)),
    ("bound", "q11_size7", [], cmd_bound),
    ("property-w", "q13_size6", ["--n", "2"], lambda arc: cmd_cosecants(arc, 2)),
    ("cosecants", "q13_size9", ["--n", "1"], lambda arc: cmd_cosecants(arc, 1)),
    ("hypersurface", "conic_f5", [], cmd_hypersurface),
    ("search", "q13_size6", ["--target", "14"], lambda arc: cmd_search(arc, target=14)),
    (
        "conjecture-scan",
        None,
        ["--p", "5", "--k", "3", "--n", "1", "--budget", "0", "--samples", "3", "--seed", "7"],
        lambda _: cmd_conjecture(5, 1, 3, 1, budget=0, samples=3, seed=7),
    ),
]


@pytest.mark.parametrize("command,arc_name,opts,direct", MAIN_CASES, ids=[c[0] for c in MAIN_CASES])
def test_main_runs_each_command(command, arc_name, opts, direct, capsys):
    path = [] if arc_name is None else [str(ARCS_DIR / f"{arc_name}.arc")]
    assert main(["--emit", "structured", command, *path, *opts]) == 0
    printed = json.loads(capsys.readouterr().out)
    report = direct(None if arc_name is None else parse_arc_file(load(f"{arc_name}.arc")))
    # same keys in the same order, timings last
    assert list(printed) == list(report) and list(report)[-1] == "timings"
    assert strip_timings(printed) == strip_timings(report)


def test_parser_defaults_match_the_library():
    search = build_parser().parse_args(["search", "x.arc"])
    scan = build_parser().parse_args(["conjecture-scan", "--p", "5", "--k", "3", "--n", "1"])
    for fn, args, names in [
        (complete_search, search, ["budget"]),
        (cmd_search, search, ["budget"]),
        (certifier.conjecture_scan, scan, ["budget", "samples", "seed"]),
        (cmd_conjecture, scan, ["budget", "samples", "seed"]),
    ]:
        params = inspect.signature(fn).parameters
        assert [getattr(args, name) for name in names] == [params[name].default for name in names]


def test_main_modulus_override(capsys):
    q13 = str(ARCS_DIR / "q13_size6.arc")
    # the file's own modulus x - 2, spelled with a comma
    assert main(["analyze", q13, "--n", "2", "--modulus", "1,11"]) == 0
    capsys.readouterr()
    # a quadratic modulus for GF(13), and a value that is no list of integers
    assert main(["analyze", q13, "--n", "2", "--modulus", "1 2 2"]) == 2
    assert main(["analyze", q13, "--n", "2", "--modulus", "1 t"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: modulus must have degree 1 (2 coefficients)\n"
        "error: bad --modulus value '1 t'\n"
    )


def test_main_hypersurface_prints_the_report(capsys):
    conic = ARCS_DIR / "conic_f5.arc"
    assert main(["--emit", "structured", "hypersurface", str(conic)]) == 0
    printed = strip_timings(json.loads(capsys.readouterr().out))
    assert printed == strip_timings(cmd_hypersurface(parse_arc_file(conic.read_text())))


def test_main_even_q_bound_reports_and_exits_zero(capsys):
    assert main(["bound", str(ARCS_DIR / "hyperconic_f8.arc")]) == 0
    out = capsys.readouterr().out
    assert "no certificate at any n" in out


def test_cmd_analyze_q81_regression():
    arc = parse_arc_file(load("q81_size11.arc"))
    assert arc.ctx.q == 81 and arc.k == 6
    rep = cmd_analyze(arc, 1)
    assert rep["shape"] == [462, 2310]
    assert rep["rank"] == 461
    assert rep["full_row_rank"] == 462
    assert rep["weight_one"] is False


def test_cmd_cosecants_degenerate_t_zero():
    arc = parse_arc_file(load("q13_size6.arc"))
    rep = cmd_cosecants(arc, 3)  # t = 0
    assert rep["t"] == 0
    assert "nothing to recover" in rep["verdict"]
    assert "predictions" not in rep


def test_commands_leave_no_reference_cycles():
    # with the cyclic collector off, every command's garbage is freed by
    # reference counting alone: nothing cached on an arc refers back to it.
    # Each job parses its own arc, so the arc and its caches die with it;
    # arcs too small for a surface raise before any is built
    names = ["conic_f5", "hyperconic_f8", "q11_size7", "q13_size6", "q13_size9", "q81_size11"]
    jobs = [(f"{cmd} {name}", run, name) for name in names for cmd, run in [
        ("analyze", lambda arc: cmd_analyze(arc, 1)),
        ("property-w", lambda arc: cmd_cosecants(arc, 1)),
        ("bound", cmd_bound),
        ("hypersurface", cmd_hypersurface),
        ("search", cmd_search),
    ] if (cmd, name) != ("search", "q81_size11")]
    scans = [((5, 1, 3, 1), {}), ((5, 1, 3, 2), {"budget": 1, "samples": 2}), ((7, 1, 4, 1), {})]
    gc.collect()
    gc.disable()
    try:
        for label, run, name in jobs:
            try:
                run(parse_arc_file(load(f"{name}.arc")))
            except ArcInputError:
                pass
            assert gc.collect() == 0, label
        for args, kw in scans:
            cmd_conjecture(*args, **kw)
            assert gc.collect() == 0, args
    finally:
        gc.enable()
