import hashlib
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from aifv.builder import FAMILIES, BuildConfig, construct
from aifv.cli import main, read_distribution, read_symbols, report_sidecar
from aifv.forest import encode, format_codebook, pack_bits
from oracles import parse_symbols

BAD_TOKENS = ["x", "1.5", "0x1", "+1", "1_0", "\u0661"]
WHITESPACE = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())


def write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


@pytest.fixture
def dist_file(tmp_path):
    path = tmp_path / "binary.dist"
    write(path, "a0 0.9\na1 0.1\n")
    return str(path)


def test_construct_encode_decode_round_trip(tmp_path, dist_file):
    book = str(tmp_path / "book.aifv")
    assert main(["construct", "--dist", dist_file, "-N", "2", "-o", book]) == 0
    assert os.path.exists(book)
    assert os.path.exists(book + ".report.csv")
    with open(book + ".report.csv") as fh:
        sidecar = fh.read()
    assert "# f_optimal: true" in sidecar
    assert "iter,block,lbar,max_dcost" in sidecar

    syms = str(tmp_path / "input.sym")
    write(syms, "0 0 1 0 1 0 0 0\n")
    bits = str(tmp_path / "payload.bin")
    assert main(["encode", "--codebook", book, "--input", syms, "-o", bits]) == 0
    out = str(tmp_path / "output.sym")
    assert main(["decode", "--codebook", book, "--input", bits, "-L", "8",
                 "-o", out]) == 0
    with open(out) as fh:
        assert [int(t) for t in fh.read().split()] == [0, 0, 1, 0, 1, 0, 0, 0]


def test_encode_demo_codebook_payload(tmp_path, demo_forest):
    book = str(tmp_path / "demo.aifv")
    write(book, format_codebook(demo_forest))
    syms = str(tmp_path / "acba.sym")
    write(syms, "0 2 1 0\n")
    bits = str(tmp_path / "payload.bin")
    assert main(["encode", "--codebook", book, "--input", syms, "-o", bits]) == 0
    with open(bits, "rb") as fh:
        payload = fh.read()
    assert payload == bytes([0b10101100])  # '1010110' zero-padded to a byte
    out = str(tmp_path / "back.sym")
    assert main(["decode", "--codebook", book, "--input", bits, "-L", "4",
                 "-o", out]) == 0
    with open(out) as fh:
        assert fh.read().split() == ["0", "2", "1", "0"]


def test_check_pass_and_delay(tmp_path, dist_file, demo_forest, capsys):
    book = str(tmp_path / "demo.aifv")
    write(book, format_codebook(demo_forest))
    assert main(["check", "--codebook", book]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "delay <= 3" in out


def test_check_fails_on_broken_codebook(tmp_path, capsys):
    book = str(tmp_path / "bad.aifv")
    write(book, "\n".join([
        "AIFV1 N=2 M=2 K=1",
        "TREE 0 MODE -",
        "SYM 0 CODE - LINK 0",
        "SYM 1 CODE - LINK 0",
    ]) + "\n")
    assert main(["check", "--codebook", book]) == 2
    assert "Rule 1a" in capsys.readouterr().out


def test_encode_rejects_broken_codebook(tmp_path, capsys):
    book = str(tmp_path / "bad.aifv")
    write(book, "\n".join([
        "AIFV1 N=2 M=2 K=1",
        "TREE 0 MODE -",
        "SYM 0 CODE - LINK 0",
        "SYM 1 CODE - LINK 0",
    ]) + "\n")
    syms = str(tmp_path / "input.sym")
    write(syms, "0 1\n")
    out = str(tmp_path / "payload.bin")
    assert main(["encode", "--codebook", book, "--input", syms, "-o", out]) == 2
    assert "Rule 1a" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("token", BAD_TOKENS)
def test_encode_names_bad_symbol_token(tmp_path, demo_forest, capsys, token):
    book = str(tmp_path / "demo.aifv")
    write(book, format_codebook(demo_forest))
    syms = str(tmp_path / "input.sym")
    write(syms, f"0 2\n1 {token} 0\n")
    out = str(tmp_path / "payload.bin")
    assert main(["encode", "--codebook", book, "--input", syms, "-o", out]) == 2
    assert f"error: {syms}: symbol token {token!r} is not an integer" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_encode_symbol_separators_and_negative_symbol(tmp_path, demo_forest, capsys):
    book = str(tmp_path / "demo.aifv")
    write(book, format_codebook(demo_forest))
    syms = str(tmp_path / "input.sym")
    out = str(tmp_path / "payload.bin")
    write(syms, "0\u00a02\t1\n0")  # any whitespace separates symbols
    assert main(["encode", "--codebook", book, "--input", syms, "-o", out]) == 0
    os.remove(out)
    write(syms, "0 -1\n")  # an integer, so the alphabet check rejects it
    assert main(["encode", "--codebook", book, "--input", syms, "-o", out]) == 2
    assert "error: symbol -1 outside alphabet of 3\n" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_encode_rejects_a_name_outside_the_alphabet(tmp_path, demo_forest, capsys):
    book = str(tmp_path / "demo.aifv")
    write(book, format_codebook(demo_forest))
    syms = str(tmp_path / "input.sym")
    write(syms, "0 1 2 3 0\n")
    out = str(tmp_path / "payload.bin")
    assert main(["encode", "--codebook", book, "--input", syms, "-o", out]) == 2
    assert capsys.readouterr().err == "error: symbol 3 outside alphabet of 3\n"
    assert not os.path.exists(out)


def test_encode_reads_padded_and_signed_zero_as_their_values(tmp_path):
    forest, _ = construct((0.3,) + (0.1,) * 7, BuildConfig(n=2))
    book = str(tmp_path / "eight.aifv")
    write(book, format_codebook(forest))
    payloads = []
    for k, text in enumerate(["007 -0\n", "7 0\n"]):
        syms, out = str(tmp_path / f"in{k}.sym"), str(tmp_path / f"out{k}.bin")
        write(syms, text)
        assert main(["encode", "--codebook", book, "--input", syms, "-o", out]) == 0
        with open(out, "rb") as fh:
            payloads.append(fh.read())
    assert payloads[0] == payloads[1] == pack_bits(encode(forest, [7, 0]))


def test_encode_payload_of_mixed_separators(tmp_path, demo_forest):
    book = str(tmp_path / "demo.aifv")
    write(book, format_codebook(demo_forest))
    syms = str(tmp_path / "input.sym")
    write(syms, " 2\t0\u00a0\u00a01\n\n\u20032 0\u3000\x1c1\r\n2\x0b\x0c0 ")
    out = str(tmp_path / "payload.bin")
    assert main(["encode", "--codebook", book, "--input", syms, "-o", out]) == 0
    with open(out, "rb") as fh:
        assert fh.read() == pack_bits(encode(demo_forest, [2, 0, 1, 2, 0, 1, 2, 0]))


@st.composite
def symbol_files(draw):
    """An alphabet size and a text of tokens, each a name of the
    alphabet, a zero-padded or signed integer, a name past the alphabet
    or a bad token, separated by arbitrary whitespace."""
    m = draw(st.integers(1, 12))
    values = st.integers(0, 2 * m)
    name = st.integers(0, m - 1).map(str)
    token = st.one_of(
        name,
        st.tuples(st.integers(1, 3), values).map(lambda zv: "0" * zv[0] + str(zv[1])),
        values.map(lambda v: f"-{v}"),
        st.integers(m, 3 * m).map(str),
        st.sampled_from(BAD_TOKENS),
    )
    tokens = draw(st.one_of(st.lists(name, max_size=16), st.lists(token, max_size=16)))
    gap = st.text(WHITESPACE, min_size=1, max_size=3)
    end = st.text(WHITESPACE, max_size=3)
    text = draw(end)
    for k, tok in enumerate(tokens):
        text += (draw(gap) if k else "") + tok
    return m, text + draw(end)


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=symbol_files())
def test_read_symbols_matches_the_grammar(tmp_path, case):
    m, text = case
    path = str(tmp_path / "input.sym")
    with open(path, "w", newline="") as fh:
        fh.write(text)
    try:
        expected = parse_symbols(path, text)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            read_symbols(path, m)
        assert str(got.value) == str(e)
    else:
        assert read_symbols(path, m) == expected


@pytest.mark.parametrize("command, name", [
    ("encode", "input.sym"),
    ("check", "demo.aifv"),
    ("construct", "d.dist"),
])
def test_an_input_that_is_not_utf8_is_named(tmp_path, demo_forest, capsys, command, name):
    book = str(tmp_path / "demo.aifv")
    write(book, format_codebook(demo_forest))
    syms = str(tmp_path / "input.sym")
    write(syms, "0 1 2\n")
    write(tmp_path / "d.dist", "a0 0.9\na1 0.1\n")
    bad = str(tmp_path / name)
    with open(bad, "ab") as fh:
        fh.write(b"\xff\n")
    out = str(tmp_path / "out")
    args = {"encode": ["encode", "--codebook", book, "--input", syms, "-o", out],
            "check": ["check", "--codebook", book],
            "construct": ["construct", "--dist", bad, "-N", "2", "-o", out]}[command]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {bad}: 'utf-8' codec can't decode byte 0xff in position ")
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["encode", "decode"])
def test_output_into_a_missing_directory_names_the_output(tmp_path, demo_forest, capsys,
                                                          command):
    book = str(tmp_path / "demo.aifv")
    write(book, format_codebook(demo_forest))
    syms = str(tmp_path / "input.sym")
    write(syms, "0 2 1 0\n")
    bits = str(tmp_path / "payload.bin")
    assert main(["encode", "--codebook", book, "--input", syms, "-o", bits]) == 0
    capsys.readouterr()
    out = str(tmp_path / "nodir" / "x")
    args = {"encode": ["encode", "--codebook", book, "--input", syms, "-o", out],
            "decode": ["decode", "--codebook", book, "--input", bits, "-L", "4",
                       "-o", out]}[command]
    assert main(args) == 4
    assert capsys.readouterr().err == f"i/o error: [Errno 2] No such file or directory: {out!r}\n"
    assert sorted(os.listdir(tmp_path)) == ["demo.aifv", "input.sym", "payload.bin"]


@pytest.mark.parametrize("command", ["encode", "decode"])
def test_output_onto_a_directory_names_the_output(tmp_path, demo_forest, capsys, command):
    """The final rename fails; the error names the output, not the temp
    file, and no temp file is left."""
    book = str(tmp_path / "demo.aifv")
    write(book, format_codebook(demo_forest))
    syms = str(tmp_path / "input.sym")
    write(syms, "0 2 1 0\n")
    bits = str(tmp_path / "payload.bin")
    assert main(["encode", "--codebook", book, "--input", syms, "-o", bits]) == 0
    capsys.readouterr()
    out = str(tmp_path / "taken")
    os.mkdir(out)
    args = {"encode": ["encode", "--codebook", book, "--input", syms, "-o", out],
            "decode": ["decode", "--codebook", book, "--input", bits, "-L", "4",
                       "-o", out]}[command]
    assert main(args) == 4
    assert capsys.readouterr().err == f"i/o error: [Errno 21] Is a directory: {out!r}\n"
    assert sorted(os.listdir(tmp_path)) == ["demo.aifv", "input.sym", "payload.bin", "taken"]
    assert os.listdir(out) == []


@pytest.mark.parametrize("line, field, message", [
    (3, 1, "TREE index 'x' is not an integer"),
    (5, 1, "SYM index 'x' is not an integer"),
    (6, 5, "LINK 'x' is not an integer"),
    (6, 3, "not a bit string: 'x'"),
])
def test_codebook_bad_field_names_file_and_line(tmp_path, demo_forest, capsys,
                                                line, field, message):
    lines = format_codebook(demo_forest).splitlines()
    lines.insert(1, "")  # line numbers count every line of the file
    parts = lines[line - 1].split()
    parts[field] = "x"
    lines[line - 1] = " ".join(parts)
    book = str(tmp_path / "bad.aifv")
    write(book, "\n".join(lines) + "\n")
    syms = str(tmp_path / "input.sym")
    write(syms, "0 1\n")
    out = str(tmp_path / "payload.bin")
    assert main(["encode", "--codebook", book, "--input", syms, "-o", out]) == 2
    assert capsys.readouterr().err == f"error: {book}: line {line}: {message}\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("header, link, line, message", [
    ("N=1 M=1 K=1", "7", 3, "LINK 7 outside forest of 1"),
    ("N=1 M=1 K=1", "-1", 3, "LINK -1 outside forest of 1"),
    ("N=1 M=1 K=0", "0", 1, "header K=0 is below 1"),
    ("N=1 M=0 K=1", "0", 1, "header M=0 is below 1"),
    ("N=0 M=1 K=1", "0", 1, "header N=0 is below 1"),
    ("N=-1 M=1 K=1", "0", 1, "header N=-1 is below 1"),
])
@pytest.mark.parametrize("command", ["check", "encode"])
def test_codebook_out_of_range_field_names_file_and_line(tmp_path, capsys, command,
                                                         header, link, line, message):
    book = str(tmp_path / "bad.aifv")
    write(book, f"AIFV1 {header}\nTREE 0 MODE -\nSYM 0 CODE 1 LINK {link}\n")
    syms = str(tmp_path / "input.sym")
    write(syms, "0\n")
    out = str(tmp_path / "payload.bin")
    args = {"check": ["check", "--codebook", book],
            "encode": ["encode", "--codebook", book, "--input", syms, "-o", out]}[command]
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {book}: line {line}: {message}\n"
    assert not os.path.exists(out)


def test_decode_requires_count(tmp_path, dist_file):
    with pytest.raises(SystemExit):
        main(["decode", "--codebook", "x", "--input", "y", "-o", "z"])


def test_missing_file_is_io_error(tmp_path):
    assert main(["check", "--codebook", str(tmp_path / "nope.aifv")]) == 4


def test_bad_distribution_is_validation_error(tmp_path):
    path = str(tmp_path / "bad.dist")
    write(path, "a0 0.9\na1 0.2\n")
    assert main(["construct", "--dist", path, "-N", "1",
                 "-o", str(tmp_path / "book")]) == 2


@pytest.mark.parametrize("text, message", [
    ("a0 0.3\na0 0.5\na1 0.5\n", ":2: symbol a0 given twice"),
    ("a0 0.9\nab 0.1\n", ":2: expected 'a<m> <probability>', got 'ab 0.1'"),
    ("# comment\na0 0.9\na1 x\n", ":3: expected 'a<m> <probability>', got 'a1 x'"),
    ("a0 0\na1 1\n", ":1: probability must be in (0, 1], got '0'"),
    ("a0 1e-400\na1 1\n", ":1: probability must be in (0, 1], got '1e-400'"),
    ("a0 0.5\na1 1e400\n", ":2: probability must be in (0, 1], got '1e400'"),
    ("a0 0.9\na1 0.2\n", ": probabilities must sum to 1"),
    ("a0 1\n", ": alphabet needs at least two symbols"),
])
def test_distribution_errors_name_the_line(tmp_path, capsys, text, message):
    path = str(tmp_path / "bad.dist")
    write(path, text)
    book = str(tmp_path / "book")
    assert main(["construct", "--dist", path, "-N", "1", "-o", book]) == 2
    assert f"error: {path}{message}\n" in capsys.readouterr().err
    assert not os.path.exists(book)


@pytest.mark.parametrize("name", ["a+0", "a01", "a\u06601", "a-0", "a1_0", "a", "A0", "a\uff10"])
def test_distribution_rejects_non_decimal_symbol_names(tmp_path, capsys, name):
    path = str(tmp_path / "bad.dist")
    write(path, f"a1 0.5\n{name} 0.5\n")
    book = str(tmp_path / "book")
    assert main(["construct", "--dist", path, "-N", "1", "-o", book]) == 2
    line = f"{name} 0.5"
    assert capsys.readouterr().err == (
        f"error: {path}:2: expected 'a<m> <probability>', got {line!r}\n")
    assert not os.path.exists(book)


@pytest.mark.parametrize("prob", ["9_0e-2", "\u0660.\u0669", "inf", "nan", "-0.9", "+0.9",
                                  "0x1p-1", "1e", ".", "0.9\uff10"])
def test_distribution_rejects_non_decimal_probabilities(tmp_path, capsys, prob):
    path = str(tmp_path / "bad.dist")
    write(path, f"a0 {prob}\na1 0.1\n")
    book = str(tmp_path / "book")
    assert main(["construct", "--dist", path, "-N", "1", "-o", book]) == 2
    line = f"a0 {prob}"
    assert capsys.readouterr().err == (
        f"error: {path}:1: expected 'a<m> <probability>', got {line!r}\n")
    assert not os.path.exists(book)


@pytest.mark.parametrize("p0, p1", [("0.9", "0.1"), ("0.999", "1e-3"), (".5", "5E-1"),
                                    ("9e-1", "1.e-1")])
def test_distribution_reads_ascii_decimal_probabilities(tmp_path, p0, p1):
    path = str(tmp_path / "ok.dist")
    write(path, f"a0 {p0}\na1 {p1}\n")
    assert read_distribution(path).probs == (float(p0), float(p1))
    assert main(["construct", "--dist", path, "-N", "1", "-o", str(tmp_path / "book")]) == 0


def test_distribution_reads_multi_digit_symbols(tmp_path):
    path = str(tmp_path / "eleven.dist")
    write(path, "".join(f"a{m} {p}\n" for m, p in enumerate([0.5] + [0.05] * 10)))
    book = str(tmp_path / "book")
    assert main(["construct", "--dist", path, "-N", "1", "-o", book]) == 0
    with open(book) as fh:
        assert fh.readline().split()[2] == "M=11"


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_output_files_follow_the_umask(tmp_path, dist_file, umask):
    book = str(tmp_path / "book.aifv")
    syms = str(tmp_path / "input.sym")
    write(syms, "0 1 0\n")
    bits = str(tmp_path / "payload.bin")
    rows = str(tmp_path / "rows.csv")
    old = os.umask(umask)
    try:
        assert main(["construct", "--dist", dist_file, "-N", "2", "-o", book]) == 0
        assert main(["encode", "--codebook", book, "--input", syms, "-o", bits]) == 0
        assert main(["eval", "--dist", dist_file, "--aifv", "1", "-o", rows]) == 0
    finally:
        os.umask(old)
    for path in (book, book + ".report.csv", bits, rows):
        assert os.stat(path).st_mode & 0o777 == 0o666 & ~umask, path


@pytest.mark.parametrize("depth", ["0", "-3"])
def test_construct_rejects_depth_bound_below_one(tmp_path, dist_file, capsys, depth):
    book = str(tmp_path / "book")
    assert main(["construct", "--dist", dist_file, "-N", "2", "--max-depth", depth,
                 "-o", book]) == 2
    assert capsys.readouterr().err == "error: depth bound must be at least 1\n"
    assert not os.path.exists(book)


def test_construct_names_a_depth_bound_no_tree_fits(tmp_path, dist_file, capsys):
    book = str(tmp_path / "book")
    assert main(["construct", "--dist", dist_file, "-N", "2", "--max-depth", "1",
                 "-o", book]) == 2
    assert capsys.readouterr().err == "error: no tree of mode (0, 1) fits depth bound 1\n"
    assert not os.path.exists(book)


def test_construct_exits_3_when_a_tree_solve_spends_its_node_budget(tmp_path, capsys,
                                                                    monkeypatch):
    import aifv.builder

    # a binary alphabet takes no tree search, so three symbols
    dist = tmp_path / "ternary.dist"
    write(dist, "a0 0.6\na1 0.3\na2 0.1\n")
    solve = aifv.builder.solve_ilp
    monkeypatch.setattr(aifv.builder, "solve_ilp",
                        lambda model, below=None: solve(model, node_budget=1, below=below))
    book = str(tmp_path / "book")
    assert main(["construct", "--dist", str(dist), "-N", "2", "-o", book]) == 3
    assert capsys.readouterr().err == "resource limit: node budget 1 exhausted for mode (0, 0)\n"
    assert not os.path.exists(book)


def test_decode_rejects_negative_count(tmp_path, dist_file, capsys):
    book = str(tmp_path / "book.aifv")
    assert main(["construct", "--dist", dist_file, "-N", "2", "-o", book]) == 0
    syms = str(tmp_path / "input.sym")
    write(syms, "0 1 0\n")
    bits = str(tmp_path / "payload.bin")
    assert main(["encode", "--codebook", book, "--input", syms, "-o", bits]) == 0
    out = str(tmp_path / "output.sym")
    assert main(["decode", "--codebook", book, "--input", bits, "-L", "-3",
                 "-o", out]) == 2
    assert "must not be negative" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_construct_accepts_a_tiny_but_nonzero_pivot(tmp_path, capsys):
    """The (1 - 1e-13, 1e-13) source at N=3 builds: its chain reaches the
    pinned tree, if only through a pivot of about 1e-13."""
    dist = tmp_path / "tiny.dist"
    write(dist, "a0 0.9999999999999\na1 1e-13\n")
    book = str(tmp_path / "book.aifv")
    assert main(["construct", "--dist", str(dist), "-N", "3", "-o", book]) == 0
    assert capsys.readouterr().out.startswith(f"wrote {book}: 4 trees,")
    with open(book + ".report.csv") as fh:
        sidecar = fh.read()
    assert "# converged: true" in sidecar
    assert "# expected_length: 0.2500000000002374" in sidecar


def test_construct_aifvm_and_brute(tmp_path, dist_file):
    book_m = str(tmp_path / "m.aifv")
    assert main(["construct", "--dist", dist_file, "-N", "2", "--family", "aifvm",
                 "-o", book_m]) == 0
    book_b = str(tmp_path / "b.aifv")
    assert main(["construct", "--dist", dist_file, "-N", "2", "--family", "full-binary",
                 "-o", book_b]) == 0
    with open(book_b + ".report.csv") as fh:
        assert "# g_checked: true" in fh.read()


@pytest.mark.parametrize("family", FAMILIES)
def test_construct_family_writes_what_construct_builds(tmp_path, dist_file, family):
    book = str(tmp_path / "book.aifv")
    assert main(["construct", "--dist", dist_file, "-N", "2", "--family", family,
                 "-o", book]) == 0
    forest, report = construct((0.9, 0.1), BuildConfig(n=2, family=family))
    with open(book) as fh:
        assert fh.read() == format_codebook(forest)
    with open(book + ".report.csv") as fh:
        assert fh.read() == report_sidecar(report)


# SHA-256 of the whole sidecar of three delay-3 builds, computed while the
# report still stored its optimality flags and iteration count as fields.
SIDECAR_PINS = [
    ((0.9, 0.1), "continuous",
     "e7ba363ff822d96d035a9a5c4b951919b13427eaae1b9a6e4db3fd1b083f9915"),
    ((0.9, 0.1), "full-binary",
     "206c629a74fb9808f209bf31aa2bdc971a8122cbd226feca1f260a613acf4aed"),
    ((0.4, 0.25, 0.15, 0.12, 0.08), "aifvm",
     "c0a8420eb8d30e59e3e8532ae214e75f6d4bede5739879b3c6a6ac63b975d8dd"),
]


@pytest.mark.parametrize("probs, family, digest", SIDECAR_PINS)
def test_report_sidecar_is_pinned(probs, family, digest):
    _, report = construct(probs, BuildConfig(n=3, family=family))
    assert hashlib.sha256(report_sidecar(report).encode()).hexdigest() == digest


def test_construct_full_binary_rejects_a_depth_bound(tmp_path, dist_file, capsys):
    book = str(tmp_path / "book")
    assert main(["construct", "--dist", dist_file, "-N", "3", "--family", "full-binary",
                 "--max-depth", "1", "-o", book]) == 2
    assert capsys.readouterr().err == "error: the full-binary family takes no depth bound\n"
    assert not os.path.exists(book)


def test_eval_csv(tmp_path, dist_file):
    out = str(tmp_path / "rows.csv")
    assert main(["eval", "--dist", dist_file, "--aifv", "1,2", "--ext-huffman", "2",
                 "-o", out]) == 0
    with open(out) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("source,coder")
    assert len(lines) == 1 + 4  # huffman, ext-2, aifv-1, aifv-2


def test_simulate_deterministic(tmp_path, dist_file):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    argv = ["simulate", "--dist", dist_file, "--aifv", "2", "--sizes", "32,64",
            "--trials", "5", "--seed", "42", "-o"]
    assert main(argv + [a]) == 0
    assert main(argv + [b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


@pytest.mark.parametrize("option, value", [("--trials", "0"), ("--trials", "-3"),
                                           ("--sizes", "0,32")])
def test_simulate_rejects_counts_below_one(tmp_path, dist_file, capsys, option, value):
    out = str(tmp_path / "sim.csv")
    argv = ["simulate", "--dist", dist_file, "--aifv", "2", "--sizes", "32",
            "--trials", "5", "-o", out]
    argv[argv.index(option) + 1] = value
    assert main(argv) == 2
    assert "must be at least 1" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("command, option, value", [
    ("simulate", "--sizes", "8,,16"), ("simulate", "--sizes", ","),
    ("simulate", "--aifv", "2,"), ("simulate", "--aifvm", ",2"),
    ("eval", "--aifv", "1,x"), ("eval", "--ext-huffman", "2,,3"),
])
def test_drivers_reject_an_empty_or_bad_list_entry(tmp_path, dist_file, capsys,
                                                   command, option, value):
    out = str(tmp_path / "rows.csv")
    argv = [command, "--dist", dist_file, option, value, "-o", out]
    if command == "simulate" and option != "--sizes":
        argv += ["--sizes", "8", "--trials", "1"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {option} takes comma-separated integers, got {value!r}\n")
    assert not os.path.exists(out)


def test_simulate_rejects_a_negative_seed(tmp_path, dist_file, capsys):
    out = str(tmp_path / "sim.csv")
    assert main(["simulate", "--dist", dist_file, "--sizes", "8", "--trials", "1",
                 "--seed", "-5", "-o", out]) == 2
    assert capsys.readouterr().err == "error: seed must not be negative, got -5\n"
    assert not os.path.exists(out)


def test_cli_and_a_build_import_no_sparse_matrices():
    """``scipy`` costs a fresh process time and memory at import; neither
    the CLI nor a build loads it or any of its submodules, such as
    ``scipy.sparse``."""
    code = ("import sys\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
            "import aifv.cli\n"
            "assert not loaded(), f'import aifv.cli loaded {loaded()}'\n"
            "from aifv.builder import BuildConfig, construct\n"
            "construct((0.9, 0.1), BuildConfig(n=3))\n"
            "assert not loaded(), f'a build loaded {loaded()}'\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]


def run_python(*args, cwd=None):
    """Runs ``python -X importtime *args`` in a fresh process; returns the
    names of the modules it imported."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    run = subprocess.run([sys.executable, "-X", "importtime", *args], env=env, cwd=cwd,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    return {line.rpartition("|")[2].strip() for line in run.stderr.splitlines()
            if line.startswith("import time:")}


def test_codec_commands_load_no_numpy(tmp_path, demo_forest):
    """``import aifv.cli`` and the commands ``encode``, ``decode`` and
    ``check`` load no numpy."""
    write(tmp_path / "demo.aifv", format_codebook(demo_forest))
    write(tmp_path / "in.sym", "0 2 1 0 0 1\n")
    runs = {"import aifv.cli": ("-c", "import aifv.cli"),
            "encode": ("encode", "--codebook", "demo.aifv", "--input", "in.sym", "-o", "b"),
            "decode": ("decode", "--codebook", "demo.aifv", "--input", "b", "-L", "6",
                       "-o", "out.sym"),
            "check": ("check", "--codebook", "demo.aifv")}
    for what, args in runs.items():
        if args[0] != "-c":
            args = ("-m", "aifv.cli", *args)
        modules = run_python(*args, cwd=tmp_path)
        assert "aifv.forest" in modules
        assert not {m for m in modules if m.partition(".")[0] == "numpy"}, what
    with open(tmp_path / "out.sym") as fh:
        assert fh.read() == "0 2 1 0 0 1\n"


def test_construct_in_a_fresh_process_writes_the_pinned_codebook(tmp_path, dist_file):
    """``python -m aifv.cli construct``, whose builder loads on demand,
    writes the codebook the p0=0.9, N=3 build wrote when the CLI imported
    the builder up front."""
    book = tmp_path / "book.aifv"
    assert "aifv.builder" in run_python("-m", "aifv.cli", "construct", "--dist", dist_file,
                                        "-N", "3", "-o", str(book))
    assert hashlib.sha256(book.read_bytes()).hexdigest() == (
        "b005e1bfe3535ab0d3032c75d6c0ac14ec8b352278eba66960ed87141a8cfa67")


def test_construct_calls_the_cli_module_construct(tmp_path, dist_file, monkeypatch):
    """``aifv.cli.construct`` resolves to the builder's, and the command
    calls whatever that attribute is at the time, so a wrapper set on it
    sees the build."""
    import aifv.cli

    assert aifv.cli.construct is construct
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(args)
        return construct(*args, **kwargs)

    monkeypatch.setattr(aifv.cli, "construct", wrapped, raising=False)
    assert main(["construct", "--dist", dist_file, "-N", "2", "-o", str(tmp_path / "b")]) == 0
    assert [args[0] for args in calls] == [(0.9, 0.1)]
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        aifv.cli.no_such_name


def test_simulate_rejects_an_empty_size_list(tmp_path, dist_file, capsys):
    out = str(tmp_path / "sim.csv")
    assert main(["simulate", "--dist", dist_file, "--aifv", "2", "--sizes", "",
                 "-o", out]) == 2
    assert capsys.readouterr().err == "error: no sequence sizes given\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("command, message", [
    ("eval", "no coder to run: huffman is off and no aifv, aifvm or ext-huffman "
             "order is given"),
    ("simulate", "no coder to run: huffman and range are off and no aifv or aifvm "
                 "order is given"),
])
def test_drivers_reject_a_run_without_coders(tmp_path, dist_file, capsys, command, message):
    out = str(tmp_path / "rows.csv")
    argv = [command, "--dist", dist_file, "--no-huffman", "-o", out]
    if command == "simulate":
        argv += ["--no-range", "--sizes", "8", "--trials", "2"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("command, option, value, message", [
    ("eval", "--aifv", "1,2,1", "aifv delay 1 given twice"),
    ("eval", "--aifvm", "2,2", "aifvm order 2 given twice"),
    ("eval", "--ext-huffman", "2,3,3", "ext-huffman order 3 given twice"),
    ("simulate", "--aifv", "2,2", "aifv delay 2 given twice"),
    ("simulate", "--aifvm", "2,2", "aifvm order 2 given twice"),
    ("simulate", "--sizes", "8,16,8", "sequence size 8 given twice"),
    ("simulate", "--dist", None, "source 'binary.dist' given twice"),
])
def test_drivers_reject_a_repeated_row(tmp_path, dist_file, capsys,
                                       command, option, value, message):
    out = str(tmp_path / "rows.csv")
    argv = [command, "--dist", dist_file, option, value or dist_file, "-o", out]
    if command == "simulate" and option != "--sizes":
        argv += ["--sizes", "8", "--trials", "1"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("command, option, value, message", [
    ("eval", "--tol", "nan", "tolerance must be finite and positive"),
    ("eval", "--max-depth", "0", "depth bound must be at least 1"),
    ("simulate", "--tol", "-1", "tolerance must be finite and positive"),
    ("simulate", "--max-depth", "-2", "depth bound must be at least 1"),
])
def test_drivers_check_limits_without_a_build(tmp_path, dist_file, capsys,
                                              command, option, value, message):
    """The limits are checked even when only Huffman rows are asked for."""
    out = str(tmp_path / "rows.csv")
    argv = [command, "--dist", dist_file, option, value, "-o", out]
    if command == "simulate":
        argv += ["--sizes", "8", "--trials", "1"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("tol", ["inf", "nan", "0"])
def test_construct_rejects_a_tolerance_not_finite_and_positive(tmp_path, dist_file, capsys, tol):
    book = str(tmp_path / "book")
    assert main(["construct", "--dist", dist_file, "-N", "3", "--tol", tol, "-o", book]) == 2
    assert capsys.readouterr().err == "error: tolerance must be finite and positive\n"
    assert not os.path.exists(book)


def test_eval_requires_sources(tmp_path):
    assert main(["eval", "-o", str(tmp_path / "x.csv")]) == 2
