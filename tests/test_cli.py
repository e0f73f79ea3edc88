import os

import pytest

from aifv.cli import main
from aifv.forest import format_codebook


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


def test_construct_aifvm_and_brute(tmp_path, dist_file):
    book_m = str(tmp_path / "m.aifv")
    assert main(["construct", "--dist", dist_file, "-N", "2", "--aifvm",
                 "-o", book_m]) == 0
    book_b = str(tmp_path / "b.aifv")
    assert main(["construct", "--dist", dist_file, "-N", "2", "--backend", "brute",
                 "-o", book_b]) == 0
    with open(book_b + ".report.csv") as fh:
        assert "# g_checked: true" in fh.read()


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


def test_eval_requires_sources(tmp_path):
    assert main(["eval", "-o", str(tmp_path / "x.csv")]) == 2
